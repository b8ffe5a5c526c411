"""Tangles: crossing fragments with boundary legs.

Two layouts are used throughout:

* through form: k strands enter at the bottom and leave at the top
  (boundary legs ccw: bottoms left to right, then tops right to left);
* finger form: every strand is a hairpin entering and leaving on adjacent
  legs, so strand i owns legs (2i, 2i+1).  Finger form is what gets glued
  into a face of a host diagram.

Words of elementary crossings build both forms; hairpin returns are closed
by identifying the top ends pairwise.
"""

from __future__ import annotations

from .diagram import Crossing, Fragment, _IdJoiner


class Tangle(Fragment):
    @property
    def key(self) -> str:
        """What the explorer compares for a tangle: ``tangle_key``."""
        return tangle_key(self)

    def _end_legs(self, walk: list[int]) -> tuple[int, int]:
        """Leg indices where a boundary strand walk starts and ends."""
        legs_from = 4 * self.n_crossings
        return walk[0] - legs_from, self._slots[0][walk[-1]] - legs_from

    def strand_legs(self) -> list[tuple[int, int]]:
        """Leg-index pairs connected by a strand, ordered by first leg."""
        return [self._end_legs(walk) for walk in self.boundary_strands()]

    def finger_count(self) -> int:
        if len(self.legs) % 2:
            raise ValueError("odd number of legs")
        return len(self.legs) // 2

    def is_finger_form(self) -> bool:
        want = {(2 * i, 2 * i + 1) for i in range(self.finger_count())}
        return {tuple(sorted(p)) for p in self.strand_legs()} == want

    def delete_strand(self, strand: int) -> "Tangle":
        """Remove one strand (indexed per strand_legs), smoothing its crossings."""
        walk = self.boundary_strands()[strand]
        li, lj = self._end_legs(walk)
        dart = self._slots[1]
        dead = {dart[p][0] for p in walk}
        joiner = _IdJoiner()
        kept = []
        for c in self.crossings:
            under = (c.ends[0], c.ends[2])
            over = (c.ends[1], c.ends[3])
            u_in = under[0] in dead or under[1] in dead
            o_in = over[0] in dead or over[1] in dead
            if u_in and o_in:
                continue
            if u_in:
                joiner.join(over[0], over[1])
                continue
            if o_in:
                joiner.join(under[0], under[1])
                continue
            kept.append(c)
        legs = [e for i, e in enumerate(self.legs) if i not in (li, lj)]
        crossings = joiner.apply(kept)
        legs = [joiner.find(e) for e in legs]
        out = Tangle(crossings, legs, self.free_loops + joiner.loops)
        out.check_edge_pairing()
        return out

    def mirrored(self) -> "Tangle":
        return Tangle([c.mirrored() for c in self.crossings], self.legs,
                      self.free_loops)


def tangle_key(t: Fragment) -> str:
    """Structural key: strand walks from every leg, then ``closed_components``.

    A crossing's first visit reads ``{label}u`` or ``{label}o`` and its
    second ``{label}.{slot offset}``; ``>{leg}`` ends a leg walk.  The tokens
    rebuild each crossing up to its two-slot rotation gauge, so equal keys
    mean fragments equal up to edge relabelling.  The key is canonical under
    relabelling only when every component touches a leg: a closed component
    is walked from its smallest edge id, so a relabelled closed fragment
    may key differently.  The Kauffman bracket keys no states by it.
    """
    mate = t._slots[0]
    legs_from = 4 * t.n_crossings
    walks = [t._strand_walk(legs_from + li) for li in range(len(t.legs))]
    label: dict[int, int] = {}
    first_slot: dict[int, int] = {}
    parts = []
    for walk in walks + t.closed_components():
        sub = []
        for p in walk:
            q = mate[p]
            ci, slot = divmod(q, 4)
            if q >= legs_from:
                sub.append(f">{q - legs_from}")
            elif ci not in label:
                label[ci] = len(label)
                first_slot[ci] = slot
                sub.append(f"{label[ci]}{'u' if slot % 2 == 0 else 'o'}")
            else:
                sub.append(f"{label[ci]}.{(slot - first_slot[ci]) % 4}")
        parts.append(",".join(sub))
    return f"L{t.free_loops}|" + "|".join(parts)


class Builder:
    """Compose elementary crossings on a front of vertical strand lines."""

    def __init__(self, width: int):
        self.width = width
        self.front = list(range(width))
        self.bottom = list(range(width))
        self._next = width
        self.crossings: list[Crossing] = []

    def cross(self, p: int, left_over: bool) -> "Builder":
        """Cross lines p and p+1; `left_over` puts the left line on top."""
        bl, br = self.front[p], self.front[p + 1]
        tl, tr = self._next, self._next + 1
        self._next += 2
        if left_over:
            self.crossings.append(Crossing((br, tr, tl, bl)))
        else:
            self.crossings.append(Crossing((bl, br, tr, tl)))
        self.front[p], self.front[p + 1] = tl, tr
        return self

    def word(self, letters) -> "Builder":
        for p, left_over in letters:
            self.cross(p, left_over)
        return self

    def through(self) -> Tangle:
        """Close as a through-form tangle: bottoms L->R then tops R->L."""
        legs = list(self.bottom) + list(reversed(self.front))
        t = Tangle(self.crossings, legs)
        t.check_edge_pairing()
        return t

    def fingers(self) -> Tangle:
        """Join front pairs (2i, 2i+1) into hairpin turns; legs at the bottom."""
        if self.width % 2:
            raise ValueError("finger closure needs an even width")
        joiner = _IdJoiner()
        for i in range(0, self.width, 2):
            joiner.join(self.front[i], self.front[i + 1])
        crossings = joiner.apply(self.crossings)
        legs = [joiner.find(e) for e in self.bottom]
        t = Tangle(crossings, legs, joiner.loops)
        t.check_edge_pairing()
        return t


def inverse_word(letters) -> list[tuple[int, bool]]:
    return [(p, not left_over) for p, left_over in reversed(letters)]


def clasp_word(width: int, i: int, j: int, left_over: bool) -> list[tuple[int, bool]]:
    """Full clasp of lines i < j, routed over every line in between."""
    if not 0 <= i < j < width:
        raise ValueError("clasp needs 0 <= i < j < width")
    pull = [(p, False) for p in range(j - 1, i, -1)]       # j moves left, over
    clasp = [(i, left_over), (i, left_over)]
    back = [(p, True) for p in range(i + 1, j)]            # j moves home, over
    return pull + clasp + back


def commutator(a, b) -> list[tuple[int, bool]]:
    return list(a) + list(b) + inverse_word(a) + inverse_word(b)
