"""The slot-table walks against the dict-based walks they replaced.

The ``reference_*`` functions are the dict-based traversal of ``Fragment``
and ``Diagram`` as it was before the walks moved onto flat slot tables,
kept verbatim (methods turned into functions of ``self``).  They are the
oracle: face walks, strand walks, passages, signs and planarity must agree
on perturbed corpus diagrams, large family members, tangles with legs and
the 0-crossing unknot.
"""

import random

import pytest

from knotmoves.corpus import corpus
from knotmoves.diagram import Crossing, Dart, Diagram, Fragment, MalformedDiagram, Occ
from knotmoves.finitetype import random_family
from knotmoves.moves import random_perturb
from knotmoves.tangles import Builder, Tangle, clasp_word
from knotmoves.templates import InvalidSite, _glue_many, builtin_templates, family


# -- the dict-based walks ------------------------------------------------------

def reference_check_edge_pairing(self) -> None:
    for e, occs in self.occurrences.items():
        if len(occs) != 2:
            raise MalformedDiagram(
                f"edge {e} occurs {len(occs)} times (expected exactly 2)")


def reference_arrival(self, dart: Dart) -> Occ:
    e, d = dart
    return self.occurrences[e][1 - d]


def reference_leg_dart(self, li: int) -> Dart:
    """The dart entering the fragment from boundary leg ``li``."""
    e = self.legs[li]
    return (e, 0 if self.occurrences[e][0] == ("b", li, 0) else 1)


def reference_strand_walk(self, start: Dart) -> list[Dart]:
    """Follow the strand from ``start`` to a boundary leg or back to ``start``."""
    walk = [start]
    while True:
        kind, ci, slot = reference_arrival(self, walk[-1])
        if kind != "x":
            return walk
        out = (slot + 2) % 4
        f = self.crossings[ci].ends[out]
        dart = (f, 0 if self.occurrences[f][0] == ("x", ci, out) else 1)
        if dart == start:
            return walk
        walk.append(dart)


def reference_boundary_strands(self) -> list[list[Dart]]:
    """Strand walks from each leg to its partner leg, in leg order."""
    reference_check_edge_pairing(self)
    strands = []
    ends: set[int] = set()
    for li in range(len(self.legs)):
        if li not in ends:
            walk = reference_strand_walk(self, reference_leg_dart(self, li))
            ends.add(reference_arrival(self, walk[-1])[1])
            strands.append(walk)
    return strands


def reference_closed_components(self) -> list[list[Dart]]:
    visited = {e for walk in reference_boundary_strands(self) for e, _ in walk}
    comps = []
    for e in self.edges():
        if e not in visited:
            walk = reference_strand_walk(self, (e, 0))
            visited.update(f for f, _ in walk)
            comps.append(walk)
    return comps


def reference_next_face_dart(self, dart: Dart) -> Dart:
    kind, ci, slot = reference_arrival(self, dart)
    if kind == "b":
        return (dart[0], 1 - dart[1])
    nxt = (slot + 1) % 4
    f = self.crossings[ci].ends[nxt]
    d = 0 if self.occurrences[f][0] == ("x", ci, nxt) else 1
    return (f, d)


def reference_face_walks(self) -> list[list[Dart]]:
    if not self.crossings and self.free_loops == 1 and not self.legs:
        return [[(0, 0)], [(0, 1)]]
    seen: set[Dart] = set()
    walks = []
    for e in self.edges():
        for d in (0, 1):
            start = (e, d)
            if start in seen:
                continue
            walk = []
            cur = start
            while cur not in seen:
                seen.add(cur)
                walk.append(cur)
                cur = reference_next_face_dart(self, cur)
            walks.append(walk)
    return walks


def reference_knot_walk(self) -> list[Dart]:
    if not self.crossings:
        return []
    occ = self.occurrences[self.basepoint]
    d = 0
    if occ[0][1] == occ[1][1]:
        under = 0 if occ[0][2] % 2 == 0 else 1
        d = 1 - under if occ[under][2] == 0 else under
    return reference_strand_walk(self, (self.basepoint, d))


def reference_passages(self) -> list[tuple[int, int]]:
    """(crossing index, arrival slot) at each traversal step."""
    out = []
    for dart in reference_knot_walk(self):
        kind, ci, slot = reference_arrival(self, dart)
        out.append((ci, slot))
    return out


def reference_signs(self) -> tuple[int, ...]:
    """Crossing signs derived from the canonical traversal."""
    in_slots: dict[int, list[int]] = {}
    for ci, slot in reference_passages(self):
        in_slots.setdefault(ci, []).append(slot)
    signs = [0] * self.n_crossings
    for ci, slots in in_slots.items():
        u_in = next(s for s in slots if s in (0, 2))
        o_in = next(s for s in slots if s in (1, 3))
        signs[ci] = 1 if (o_in - u_in) % 4 == 3 else -1
    return tuple(signs)


# -- inputs ---------------------------------------------------------------------

def _perturbed() -> list[Diagram]:
    out = []
    for i, (_, d) in enumerate(sorted(corpus().items())):
        out += [random_perturb(d, 10, 7 * i + s) for s in range(2)]
    return out


def _large_members() -> list[Diagram]:
    rng = random.Random(31)
    out = []
    for _, d in sorted(corpus().items()):
        fam = random_family(d, (4, 4, 3), rng)
        if fam is not None:
            out += [m for m in family(fam).values() if 30 <= m.n_crossings <= 90]
    return out


def _tangles() -> list[Tangle]:
    out = [Builder(4).word(clasp_word(4, 0, 2, True)).fingers(),
           Builder(3).word(clasp_word(3, 0, 2, False)).through()]
    for tpl in builtin_templates().values():
        out += [tpl.before, tpl.after, *tpl.insertions]
    for t in list(out):
        out += [t.delete_strand(s) for s in range(len(t.boundary_strands()))]
    # Bare arcs between legs, and free loops beside crossings.
    out += [Tangle((), (5, 5)), Tangle((), (5, 6, 6, 5)),
            Tangle(out[0].crossings, out[0].legs, free_loops=2)]
    return out


def _reflected(d: Diagram, ci: int) -> Diagram:
    """Reverse the cyclic order at one crossing: same strands, other surface."""
    a, b, c, e = d.crossings[ci].ends
    crossings = list(d.crossings)
    crossings[ci] = Crossing((a, e, c, b))
    return Diagram(crossings)


@pytest.fixture(scope="module")
def perturbed():
    return _perturbed()


@pytest.fixture(scope="module")
def large_members():
    members = _large_members()
    sizes = [m.n_crossings for m in members]
    assert len(sizes) == 147 and min(sizes) == 30 and max(sizes) == 73
    return members


def _darts(frag: Fragment, walks: list[list[int]]) -> list[list[Dart]]:
    dart = frag._slots[1]
    return [[dart[p] for p in walk] for walk in walks]


def _check_fragment(frag: Fragment) -> None:
    assert frag.face_walks() == reference_face_walks(frag)
    mate, dart, order = frag._slots
    assert [dart[p] for p in order] == sorted(dart)
    for p, (e, d) in enumerate(dart):
        assert dart[mate[p]] == (e, 1 - d)
        assert _darts(frag, [frag._strand_walk(p)]) == [reference_strand_walk(frag, (e, d))]
    assert _darts(frag, frag.boundary_strands()) == reference_boundary_strands(frag)
    assert _darts(frag, frag.closed_components()) == reference_closed_components(frag)


def _check_diagram(d: Diagram) -> None:
    _check_fragment(d)
    assert _darts(d, [d.knot_walk]) == [reference_knot_walk(d)]
    assert d.passages == reference_passages(d)
    assert d.signs == reference_signs(d)
    assert d.is_planar() == (len(reference_face_walks(d)) == d.n_crossings + 2)


# -- tests ----------------------------------------------------------------------

def test_slot_walks_match_reference_on_perturbed_corpus(perturbed):
    for d in perturbed:
        _check_diagram(d)
        assert d.is_planar()


def test_slot_walks_match_reference_on_large_family_members(large_members):
    for d in large_members:
        _check_diagram(d)


def test_slot_walks_match_reference_on_tangles():
    tangles = _tangles()
    assert any(t.legs and t.crossings for t in tangles)
    assert any(t.free_loops for t in tangles)
    for t in tangles:
        _check_fragment(t)


def test_slot_walks_match_reference_on_the_unknot(unknot):
    _check_diagram(unknot)
    assert unknot.face_walks() == [[(0, 0)], [(0, 1)]]
    assert unknot.knot_walk == [] and unknot.passages == [] and unknot.signs == ()


def test_slot_walks_match_reference_off_the_plane(perturbed):
    # One reflected crossing puts most diagrams on a surface of higher genus.
    off = [_reflected(d, 0) for d in perturbed if d.n_crossings]
    for d in off:
        _check_diagram(d)
    assert sum(not d.is_planar() for d in off) > len(off) // 2


@pytest.mark.parametrize("crossings, legs", [
    ([(1, 2, 3, 4), (1, 2, 3, 5)], ()),
    ([(1, 2, 3, 4), (4, 3, 2, 1), (1, 5, 5, 6)], ()),
    ([(1, 1, 2, 2)], (3,)),
    ([(1, 2, 2, 3)], (1, 3, 3)),
    ([(7, 7, 8, 9)], ()),
])
def test_unpaired_records_raise_the_same_message(crossings, legs):
    frag = Fragment([Crossing(c) for c in crossings], legs)
    with pytest.raises(MalformedDiagram) as want:
        reference_check_edge_pairing(frag)
    with pytest.raises(MalformedDiagram, match=r"^edge \d+ occurs \d+ times") as got:
        frag.check_edge_pairing()
    assert str(got.value) == str(want.value)
    with pytest.raises(MalformedDiagram) as walk:
        frag.face_walks()
    assert str(walk.value) == str(want.value)
    if not legs:
        with pytest.raises(MalformedDiagram) as built:
            Diagram([Crossing(c) for c in crossings])
        assert str(built.value) == str(want.value)


GENUS_ONE = [Crossing((1, 2, 3, 4)), Crossing((2, 1, 3, 4))]


def test_is_planar_false_on_genus_one_knot_records():
    d = Diagram(GENUS_ONE)  # one component, connected
    assert d.component_count() == 1
    assert len(d.face_walks()) == 2  # V - E + F = 2 - 4 + 2 = 0: genus 1
    assert not d.is_planar()


def test_glue_many_refuses_an_insertion_off_the_plane():
    host = Diagram(GENUS_ONE)
    (e, side), *_ = host.face_walks()[0]
    tangle = builtin_templates()[2].insertion(0)
    with pytest.raises(InvalidSite, match="^insertion would leave the plane$"):
        _glue_many(host, [([(e, 1, side), (e, 2, side)], tangle, 1000)])
