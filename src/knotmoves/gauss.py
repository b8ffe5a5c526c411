"""Gauss diagrams and the Gauss-diagram formulas for v2 and v3.

An arrow runs from the over-passage (tail) to the under-passage (head) of a
crossing and carries its sign.  Passages are numbered 0..2n-1 from the
basepoint; crossing a is passed first at f_a and again at g_a, and the
chords, ordered by f, are the diagram's ``gauss_chords``.  v2 and v3 are
the Polyak-Viro (IMRN 1994) and Goussarov-Polyak-Viro (Topology 39, 2000)
signed counts, each term weighted by the product of the signs:

* v2: pairs a < b, a first passed as a head and b as a tail, with
  f_b < g_a < g_b (based pattern 0h1t0t1h);
* v3: triples i < j < k whose first passages are tails or heads as listed,
  in one of five orders:
  t h t, f_k < g_i < g_j < g_k (0t1h2t0h1t2h);
  h t h, f_k < g_i < g_j < g_k (0h1t2h0t1h2t);
  h h t, f_k < g_i < g_k < g_j (0h1h2t0t2h1t);
  h t t, f_k < g_j < g_i < g_k (0h1t2t1h0t2h);
  t h t, g_i < f_k < g_j < g_k (0t1h0h2t1t2h).

The tests check both counts against the Conway and Jones routes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram


@dataclass(frozen=True)
class Arrow:
    over: int
    under: int
    sign: int


@dataclass(frozen=True)
class GaussDiagram:
    """Chords with signs and over->under direction on a based circle of 2n slots."""

    length: int
    arrows: tuple[Arrow, ...]

    def validate(self) -> None:
        slots = [s for a in self.arrows for s in (a.over, a.under)]
        if sorted(slots) != list(range(self.length)):
            raise ValueError("arrow endpoints must hit every slot exactly once")
        if any(a.sign not in (-1, 1) for a in self.arrows):
            raise ValueError("arrow signs must be +-1")


def to_gauss(d: Diagram) -> GaussDiagram:
    """Gauss diagram along the canonical traversal from the basepoint."""
    over_pos: dict[int, int] = {}
    under_pos: dict[int, int] = {}
    for pos, (ci, slot) in enumerate(d.passages):
        if slot % 2 == 0:
            under_pos[ci] = pos
        else:
            over_pos[ci] = pos
    arrows = tuple(
        Arrow(over_pos[ci], under_pos[ci], d.signs[ci]) for ci in range(d.n_crossings))
    g = GaussDiagram(2 * d.n_crossings, arrows)
    g.validate()
    return g


def _v2_count(chords) -> int:
    """Signed count of the pair pattern 0h1t0t1h."""
    total = 0
    for a, (fa, ga, ta, sa) in enumerate(chords):
        if ta:
            continue
        for fb, gb, tb, sb in chords[a + 1:]:
            if fb > ga:
                break
            if tb and gb > ga:
                total += sa * sb
    return total


def _v3_count(chords) -> int:
    """Signed count of the five triple orders in the module docstring."""
    end = 2 * len(chords)
    total = 0
    for i, (fi, gi, ti, si) in enumerate(chords):
        for j in range(i + 1, len(chords)):
            fj, gj, tj, sj = chords[j]
            if fj > gi:
                break
            # k is first passed before `bound`, as a tail or a head as
            # `tail` says, and again strictly between lo and hi.
            if gj > gi and ti and not tj:  # both t h t orders
                bound, tail, lo, hi = gj, True, gj, end
            elif gj > gi and tj and not ti:  # h t h
                bound, tail, lo, hi = gi, False, gj, end
            elif gj > gi and not (ti or tj):  # h h t
                bound, tail, lo, hi = gi, True, gi, gj
            elif gj < gi and tj and not ti:  # h t t
                bound, tail, lo, hi = gj, True, gi, end
            else:
                continue
            inner = 0
            for fk, gk, tk, sk in chords[j + 1:]:
                if fk > bound:
                    break
                if tk == tail and lo < gk < hi:
                    inner += sk
            total += si * sj * inner
    return total


def v2(d: Diagram) -> int:
    """Order-2 Vassiliev invariant: signed count of one interleaved arrow pair."""
    return _v2_count(d.gauss_chords)


def v3(d: Diagram) -> int:
    """Order-3 Vassiliev invariant: signed count of five arrow-triple orders."""
    return _v3_count(d.gauss_chords)
