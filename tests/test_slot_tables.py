"""The slot-table walks and move-site finders against the dict-based code
they replaced.

The ``reference_*`` functions are the traversal of ``Fragment`` and
``Diagram`` and the site finders of ``moves`` as they were when they read
the edge-keyed ``occurrences`` dict, kept verbatim (methods turned into
functions of ``self``, ``self.occurrences`` into ``reference_occurrences``).
They are the oracle: face walks, strand walks, passages, signs, planarity,
bigon and triangle faces, slide classes and the R1/R2 additions must agree
on perturbed corpus diagrams, large family members, tangles with legs and
the 0-crossing unknot.  ``reference_slide_records`` is the triangle slide as
it was written out slot by slot, the oracle for the one-rule slide.
``reference_face_rules`` is the co-facial and the interleave rule of the
insertion glue, which the full member's Euler test replaced: the glue must
refuse every chord set they refuse.  ``reference_gauss_chords`` pairs the
reference passages as the Gauss formulas once did themselves, the oracle
for ``Diagram.gauss_chords``.
"""

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import pytest

from knotmoves.corpus import corpus
from knotmoves.diagram import (Crossing, Dart, Diagram, Fragment, MalformedDiagram,
                               NotRealizable, parse_dt)
from knotmoves import finitetype
from knotmoves.finitetype import random_family
from knotmoves.moves import (InapplicableMove, _bigon_faces, _classify_slide, _rebuild,
                             _slide_records, apply_move, greedy_reduce, r1_add,
                             r1_removal_sites, r2_add, r2_add_sites, r2_removal_sites,
                             random_perturb, replay, simplify, triangle_faces,
                             triangle_slide_sites)
from knotmoves.tangles import Builder, Tangle, clasp_word
from knotmoves.templates import (Chord, InvalidSite, SingularFamily, _face_slots, _glue_many,
                                 apply_chord, builtin_templates, family)

# An occurrence of an edge end: ("x", crossing_index, slot) or ("b", leg_index, 0).
Occ = tuple[str, int, int]


# -- the dict-based walks ------------------------------------------------------

@lru_cache(maxsize=None)
def reference_occurrences(self) -> dict[int, list[Occ]]:
    """The ends of each edge in code order; cached per fragment, since a
    rebuild per call makes the large-member checks take minutes."""
    occ: dict[int, list[Occ]] = {}
    for ci, c in enumerate(self.crossings):
        for slot, e in enumerate(c.ends):
            occ.setdefault(e, []).append(("x", ci, slot))
    for li, e in enumerate(self.legs):
        occ.setdefault(e, []).append(("b", li, 0))
    return occ


def reference_edges(self) -> list[int]:
    return sorted(reference_occurrences(self))


def reference_check_edge_pairing(self) -> None:
    for e, occs in reference_occurrences(self).items():
        if len(occs) != 2:
            raise MalformedDiagram(
                f"edge {e} occurs {len(occs)} times (expected exactly 2)")


def reference_arrival(self, dart: Dart) -> Occ:
    e, d = dart
    return reference_occurrences(self)[e][1 - d]


def reference_leg_dart(self, li: int) -> Dart:
    """The dart entering the fragment from boundary leg ``li``."""
    e = self.legs[li]
    return (e, 0 if reference_occurrences(self)[e][0] == ("b", li, 0) else 1)


def reference_strand_walk(self, start: Dart) -> list[Dart]:
    """Follow the strand from ``start`` to a boundary leg or back to ``start``."""
    walk = [start]
    while True:
        kind, ci, slot = reference_arrival(self, walk[-1])
        if kind != "x":
            return walk
        out = (slot + 2) % 4
        f = self.crossings[ci].ends[out]
        dart = (f, 0 if reference_occurrences(self)[f][0] == ("x", ci, out) else 1)
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
    for e in reference_edges(self):
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
    d = 0 if reference_occurrences(self)[f][0] == ("x", ci, nxt) else 1
    return (f, d)


def reference_face_walks(self) -> list[list[Dart]]:
    if not self.crossings and self.free_loops == 1 and not self.legs:
        return [[(0, 0)], [(0, 1)]]
    seen: set[Dart] = set()
    walks = []
    for e in reference_edges(self):
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
    occ = reference_occurrences(self)[self.basepoint]
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


def reference_gauss_chords(self) -> list[tuple[int, int, bool, int]]:
    """(f, g, first passage goes over, sign) per crossing, sorted by f: the
    passages of each crossing paired, with its sign."""
    passages, signs = reference_passages(self), reference_signs(self)
    first = [-1] * self.n_crossings
    second = [-1] * self.n_crossings
    for pos, (ci, _) in enumerate(passages):
        (second if first[ci] >= 0 else first)[ci] = pos
    return sorted((f, g, passages[f][1] % 2 == 1, signs[ci])
                  for ci, (f, g) in enumerate(zip(first, second)))


# -- the dict-based move-site finders and R1/R2 additions ------------------------

def reference_max_edge_id(self) -> int:
    ids = list(reference_occurrences(self))
    return max(ids) if ids else 0


def reference_r1_add(frag: Fragment, edge: int, chirality: int) -> Fragment:
    occ = reference_occurrences(frag)
    if edge not in occ:
        if frag.free_loops == 1 and not frag.crossings and edge == 0:
            # Kink on the bare circle: one big arc plus the curl loop.
            a, g = 1, 2
            ends = (a, a, g, g) if chirality > 0 else (a, g, g, a)
            return _rebuild(frag, [Crossing(ends)], frag.legs, 0)
        raise InapplicableMove(f"edge {edge} not present")
    fresh = reference_max_edge_id(frag) + 1
    b, g = fresh, fresh + 1
    crossings = list(frag.crossings)
    legs = list(frag.legs)
    kind, xi, slot = occ[edge][1]
    if kind == "x":
        ends = list(crossings[xi].ends)
        ends[slot] = b
        crossings[xi] = Crossing(tuple(ends))
    else:
        legs[xi] = b
    crossings.append(Crossing((edge, b, g, g) if chirality > 0 else (edge, g, g, b)))
    return _rebuild(frag, crossings, tuple(legs), frag.free_loops)


def reference_bigon_faces(frag: Fragment) -> list[tuple[Dart, Dart]]:
    out = []
    for walk in frag.face_walks():
        if len(walk) != 2:
            continue
        (x, _), (y, _) = walk
        if x == y:
            continue
        occx = reference_occurrences(frag)[x]
        if any(k == "b" for k, _, _ in occx + reference_occurrences(frag)[y]):
            continue
        cis = {occx[0][1], occx[1][1]}
        if len(cis) == 2:
            out.append((walk[0], walk[1]))
    return out


def reference_r2_removal_sites(frag: Fragment) -> list[tuple]:
    sites = []
    seen = set()
    for dx, dy in reference_bigon_faces(frag):
        x, y = dx[0], dy[0]
        occx, occy = reference_occurrences(frag)[x], reference_occurrences(frag)[y]
        if {o[1] for o in occx} != {o[1] for o in occy}:
            continue
        ci, cj = sorted({o[1] for o in occx})
        key = (ci, cj, *sorted((x, y)))
        if key in seen:
            continue
        cx, cy = frag.crossings[ci], frag.crossings[cj]
        if any(cr.ends.count(e) != 1 for cr in (cx, cy) for e in (x, y)):
            continue
        sx_i, sx_j = cx.ends.index(x), cy.ends.index(x)
        sy_i, sy_j = cx.ends.index(y), cy.ends.index(y)
        if (sy_i - sx_i) % 2 == 0 or (sy_j - sx_j) % 2 == 0:
            continue  # bigon arcs on one strand: not an R2 pattern
        if (sx_i % 2) == (sx_j % 2):
            seen.add(key)
            sites.append(("r2-", ci, cj, x, y))
    return sites


def reference_r2_add(frag: Fragment, e: int, de: int, f: int, df: int,
                     over: bool) -> Fragment:
    occ = reference_occurrences(frag)
    if e not in occ or f not in occ or e == f:
        raise InapplicableMove("R2 push needs two distinct existing edges")
    fresh = reference_max_edge_id(frag) + 1
    a2, b2, m, w = fresh, fresh + 1, fresh + 2, fresh + 3
    crossings = list(frag.crossings)
    legs = list(frag.legs)

    def _replace(occurrence, old, new):
        kind, idx, slot = occurrence
        if kind == "x":
            ends = list(crossings[idx].ends)
            ends[slot] = new
            crossings[idx] = Crossing(tuple(ends))
        else:
            legs[idx] = new

    _replace(occ[e][1 - de], e, a2)
    _replace(occ[f][1 - df], f, b2)
    if over:
        cw = Crossing((w, e, b2, m))
        ce = Crossing((f, a2, w, m))
    else:
        cw = Crossing((e, b2, m, w))
        ce = Crossing((a2, w, m, f))
    crossings.extend([cw, ce])
    return _rebuild(frag, crossings, tuple(legs), frag.free_loops)


def reference_triangle_faces(frag: Fragment) -> list[list[Dart]]:
    out = []
    for walk in frag.face_walks():
        if len(walk) != 3:
            continue
        edges = [d[0] for d in walk]
        if len(set(edges)) != 3:
            continue
        if any(e not in reference_occurrences(frag)
               or any(k == "b" for k, _, _ in reference_occurrences(frag)[e])
               for e in edges):
            continue
        corners = {reference_arrival(frag, d)[1] for d in walk}
        if len(corners) == 3:
            out.append(walk)
    return out


def reference_classify_slide(frag: Fragment, walk: list[Dart], moving: int):
    # walk darts: eA arrives at P, eB at Q, eC at R; edges around the face.
    darts = list(walk[moving:]) + list(walk[:moving])
    x12 = darts[1][0]
    _, c1, _ = reference_arrival(frag, darts[0])
    _, c2, _ = reference_arrival(frag, darts[1])
    _, c3, _ = reference_arrival(frag, darts[2])
    x31, x23 = darts[0][0], darts[2][0]
    s1 = frag.crossings[c1].ends.index(x12)
    s2 = frag.crossings[c2].ends.index(x12)
    coherent = (s1 % 2) == (s2 % 2)
    return ("r3" if coherent else "delta", c1, c2, c3, x12, x23, x31)


def reference_slide_records(frag: Fragment, c1: int, c2: int, c3: int,
                            x12: int, x23: int, x31: int) -> tuple[Crossing, ...]:
    crossings = list(frag.crossings)
    ca, cb, cc = crossings[c1], crossings[c2], crossings[c3]
    p_x12, p_x31 = ca.ends.index(x12), ca.ends.index(x31)
    q_x12, q_x23 = cb.ends.index(x12), cb.ends.index(x23)
    r_x23, r_x31 = cc.ends.index(x23), cc.ends.index(x31)
    a1 = ca.ends[(p_x12 + 2) % 4]
    co1 = ca.ends[(p_x31 + 2) % 4]
    a2 = cb.ends[(q_x12 + 2) % 4]
    b2 = cb.ends[(q_x23 + 2) % 4]
    b3 = cc.ends[(r_x23 + 2) % 4]
    co3 = cc.ends[(r_x31 + 2) % 4]

    # The slide swaps the crossing order along every strand; each strand
    # keeps its slot pair at each record, so over/under data is untouched.
    na = list(ca.ends)
    na[(p_x12 + 2) % 4] = a2
    na[(p_x31 + 2) % 4] = co3
    nb = list(cb.ends)
    nb[(q_x12 + 2) % 4] = a1
    nb[(q_x23 + 2) % 4] = b3
    nc = list(cc.ends)
    nc[(r_x23 + 2) % 4] = b2
    nc[(r_x31 + 2) % 4] = co1
    crossings[c1] = Crossing(tuple(na))
    crossings[c2] = Crossing(tuple(nb))
    crossings[c3] = Crossing(tuple(nc))
    return tuple(crossings)


# -- the insertion glue's face rules ----------------------------------------------

def reference_face_rules(host: Diagram, inserts: Sequence[Chord]) -> str | None:
    """Why the glue refused the insertions ``inserts`` on ``host`` (the base
    with its family's rewrites applied) by its co-facial or interleave rule,
    or None.  A site on no dart of the host is left to the glue's lookup."""
    where = {dart: (wi, pos) for wi, walk in enumerate(host.face_walks())
             for pos, dart in enumerate(walk)}
    all_sites = [(ci, i, site) for ci, c in enumerate(inserts)
                 for i, site in enumerate(c.sites)]
    if any((s[0], s[2]) not in where for _, _, s in all_sites):
        return None
    keyed = sorted(all_sites, key=lambda e: (*where[(e[2][0], e[2][2])],
                                             e[2][1] if e[2][2] == 0 else -e[2][1]))
    groups = [[entry for entry in keyed if entry[0] == ci] for ci in range(len(inserts))]
    for group in groups:
        faces = {where[(s[0], s[2])][0] for _, _, s in group}
        if len(faces) != 1:
            return "sites of one chord are not co-facial"
    # chords sharing a face must not interleave
    by_face: dict[int, list[int]] = {}
    for entry in keyed:
        wi = where[(entry[2][0], entry[2][2])][0]
        by_face.setdefault(wi, []).append(entry[0])
    for word in by_face.values():
        for a, b in combinations(sorted(set(word)), 2):
            sub = [x for x in word if x in (a, b)]
            runs = 1 + sum(1 for u, v in zip(sub, sub[1:]) if u != v)
            if sub[0] == sub[-1] and runs > 1:
                runs -= 1
            if runs > 2:
                return "insertions interleave around a face"
    return None


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
    assert frag.edges() == reference_edges(frag)
    assert frag.max_edge_id() == reference_max_edge_id(frag)
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
    assert d.gauss_chords == reference_gauss_chords(d)
    assert d.is_planar() == (len(reference_face_walks(d)) == d.n_crossings + 2)


def _outcome(move, *args):
    """The result's records, or None where the move is refused."""
    try:
        out = move(*args)
    except InapplicableMove:
        return None
    return type(out), out.crossings, out.legs, out.free_loops


def _check_moves(frag: Fragment, stride: int = 1) -> None:
    """Finders and R1/R2 additions against the dict-based ones; the
    additions are tried through ``apply_move`` at every ``stride``-th edge
    and R2 site, and refused exactly where the checking oracles refuse."""
    dart = frag._slots[1]
    assert [tuple(dart[p] for p in w) for w in _bigon_faces(frag)] \
        == reference_bigon_faces(frag)
    assert r2_removal_sites(frag) == reference_r2_removal_sites(frag)
    triangles = triangle_faces(frag)
    assert [[dart[p] for p in w] for w in triangles] == reference_triangle_faces(frag)
    for w in triangles:
        for moving in range(3):
            assert _classify_slide(frag, w, moving) == reference_classify_slide(
                frag, [dart[p] for p in w], moving)
    missing = reference_max_edge_id(frag) + 1
    for e in reference_edges(frag)[::stride] + [0, missing]:
        for chirality in (1, -1):
            assert _outcome(apply_move, frag, ("r1+", e, chirality)) \
                == _outcome(reference_r1_add, frag, e, chirality)
    pushes = [site[1:] for site in r2_add_sites(frag)[::stride]]
    if frag.face_walks() and frag.face_walks()[0]:
        e, de = frag.face_walks()[0][0]
        pushes += [(e, de, missing, 0, True), (e, de, e, 1 - de, False)]
    for push in pushes:
        assert _outcome(apply_move, frag, ("r2+", *push)) \
            == _outcome(reference_r2_add, frag, *push)


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


def test_gauss_chords_match_reference_on_dt_codes_and_kinks(unknot):
    # Random signed DT codes of 1-9 crossings, and kinks: alone, stacked,
    # and on every edge of a trefoil, the basepoint edge among them.
    rng = random.Random(41)
    diagrams = []
    for n in range(1, 10):
        for _ in range(30):
            evens = list(range(2, 2 * n + 1, 2))
            rng.shuffle(evens)
            try:
                diagrams.append(parse_dt(" ".join(str(rng.choice((e, -e))) for e in evens)))
            except NotRealizable:
                pass
    assert len(diagrams) > 100
    for chirality in (1, -1):
        d = unknot
        for _ in range(3):
            d = r1_add(d, max(d.edges(), default=0), chirality)
            diagrams.append(d)
        trefoil = parse_dt("4 6 2")
        diagrams += [r1_add(trefoil, e, chirality) for e in trefoil.edges()]
    for d in diagrams:
        assert d.gauss_chords == reference_gauss_chords(d), d.crossings
        assert d.signs == reference_signs(d)


def test_dart_lookup_matches_list_index(perturbed):
    lookups = 0
    for frag in perturbed + _tangles():
        dart = frag._slots[1]
        for d in dart:
            assert frag._code(d) == dart.index(d)
            lookups += 1
        for absent in ((-1, 0), (dart[0][0], 2), (frag.max_edge_id() + 1, 0)):
            with pytest.raises(ValueError):
                frag._code(absent)
    assert lookups > 1000


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
    with pytest.raises(InvalidSite, match="^insertion would leave the plane$"):
        apply_chord(host, Chord(2, "insert", ((e, 1, side), (e, 2, side))))


def test_family_off_the_plane_is_refused_from_json():
    base = {"crossings": [list(c.ends) for c in GENUS_ONE], "free_loops": 0, "basepoint": 1}
    for chords in ([], [{"template_k": 2, "kind": "switch", "sites": [0]}]):
        fam = SingularFamily.from_json({"base": base, "chords": chords})
        with pytest.raises(InvalidSite, match="^diagram is not planar$"):
            family(fam)


def _check_gate(base: Diagram, chords: Sequence[Chord], seen: Counter) -> None:
    """The glue refuses ``chords`` on ``base`` whenever the reference face
    rules do, and every member of a set it accepts is a planar knot: so it
    refuses exactly what it refused when it ran those rules and tested every
    member.  ``seen`` counts the outcomes."""
    host = base
    try:
        for c in chords:
            if c.kind != "insert":
                host = apply_move(host, (c.kind, *c.sites))
        face_rule = reference_face_rules(host, [c for c in chords if c.kind == "insert"])
    except InapplicableMove:
        face_rule = None
    try:
        _, member = _glue_many(base, chords)
    except (InvalidSite, MalformedDiagram) as exc:
        seen["refused by a face rule, " + str(exc) if face_rule else "refused"] += 1
        return
    assert face_rule is None, (base.crossings, chords, face_rule)
    n = len(chords)
    for mask in range(1 << n):
        d = member({i for i in range(n) if mask >> i & 1})
        d.validate()
        assert d.is_planar(), (base.crossings, chords, mask)
    seen["accepted"] += 1


def test_gate_on_single_chords_with_arbitrary_sites(small_knots):
    rng = random.Random(25)
    seen: Counter = Counter()
    for _, d in sorted(small_knots.items()):
        darts = [dart for walk in d.face_walks() for dart in walk]
        for _ in range(150):
            k, walk, mode = rng.choice((2, 3, 4)), rng.choice(d.face_walks()), rng.randrange(3)
            slots = _face_slots(walk)
            if mode == 2:  # any darts, any offsets
                sites = [(e, rng.randint(1, 3), side)
                         for e, side in (rng.choice(darts) for _ in range(k))]
            elif len(slots) >= k:  # one face, in walk order or shuffled
                sites = [slots[i] for i in sorted(rng.sample(range(len(slots)), k))]
                if mode == 1:
                    rng.shuffle(sites)
            else:
                continue
            _check_gate(d, [Chord(k, "insert", tuple(sites), rng.randrange(2))], seen)
    assert seen["accepted"] > 1000 and seen["refused"] > 200, seen
    assert seen["refused by a face rule, insertion would leave the plane"] > 200, seen


def test_gate_on_pairs_of_chords_on_one_face(small_knots):
    rng = random.Random(26)
    seen: Counter = Counter()
    for _, d in sorted(small_knots.items()):
        for _ in range(120):
            walk = rng.choice(d.face_walks())
            chords = []
            for j, k in enumerate((rng.choice((2, 3, 4)), rng.choice((2, 3)))):
                slots = _face_slots(walk, offset_base=4 * j)
                if len(slots) >= k:
                    picks = sorted(rng.sample(range(len(slots)), k))
                    chords.append(Chord(k, "insert", tuple(slots[i] for i in picks),
                                        rng.randrange(2)))
            if len(chords) == 2:
                _check_gate(d, chords, seen)
    assert seen["accepted"] > 1000, seen
    assert seen["refused by a face rule, insertion would leave the plane"] > 300, seen


def test_gate_on_random_family_draws(small_knots, monkeypatch):
    drawn = []

    def recording_family(base, chords):
        drawn.append((base, chords))
        return SingularFamily(base, chords)

    monkeypatch.setattr(finitetype, "SingularFamily", recording_family)
    rng = random.Random(27)
    bases = [d for _, d in sorted(small_knots.items())]
    for orders in ((2, 2, 2), (2, 2, 2, 2), (3, 2), (3, 3), (4, 2), (4,), (3, 2, 2)):
        for _ in range(57):
            random_family(bases[rng.randrange(len(bases))], orders, rng)
    seen: Counter = Counter()
    for base, chords in drawn:
        _check_gate(base, chords, seen)
    assert len(drawn) > 350 and seen["accepted"] > 300, seen
    assert seen["refused by a face rule, insertion would leave the plane"] > 0, seen


def test_move_finders_match_reference_on_perturbed_corpus(perturbed, unknot):
    for d in perturbed + [unknot]:
        _check_moves(d)
    assert sum(len(r2_removal_sites(d)) for d in perturbed) > 0
    assert sum(len(triangle_faces(d)) for d in perturbed) > 0


def test_move_finders_match_reference_on_tangles():
    for t in _tangles():
        _check_moves(t)


def test_move_finders_match_reference_on_large_family_members(large_members):
    for d in large_members:
        _check_moves(d, stride=11)


def _check_listed_moves(frag: Fragment) -> int:
    """Every listed slide against the slot-by-slot oracle, and every listed
    R2 push applied with no check; returns the number of slides."""
    slides = triangle_slide_sites(frag, "r3") + triangle_slide_sites(frag, "delta")
    for site in slides:
        assert _slide_records(frag, *site[1:]) == reference_slide_records(frag, *site[1:])
    for site in r2_add_sites(frag):
        pushed = r2_add(frag, *site[1:])
        assert type(pushed) is type(frag) and pushed.n_crossings == frag.n_crossings + 2
    return len(slides)


def test_listed_slides_and_pushes_on_perturbed_corpus(perturbed):
    assert sum(_check_listed_moves(d) for d in perturbed) > 100


def test_listed_slides_and_pushes_on_tangles():
    assert sum(_check_listed_moves(t) for t in _tangles()) > 10


def test_listed_slides_and_pushes_on_large_family_members(large_members):
    assert sum(_check_listed_moves(d) for d in large_members) > 1000


def test_moves_keep_a_tangle_a_tangle():
    for t in _tangles():
        # ``_check_listed_moves`` covers R2 pushes.
        sites = (r1_removal_sites(t) + r2_removal_sites(t) + triangle_slide_sites(t, "r3")
                 + triangle_slide_sites(t, "delta")
                 + [("switch", ci) for ci in range(t.n_crossings)]
                 + [("r1+", e, 1) for e in t.edges()[:2]])
        for site in sites:
            assert type(apply_move(t, site)) is Tangle, site
    # Deleting a strand of the order-4 template leaves an R2 bigon.
    t = builtin_templates()[4].before.delete_strand(0)
    reduced, script = greedy_reduce(t)
    assert script and type(reduced) is Tangle and type(replay(t, script)) is Tangle
    simple, _ = simplify(t, 400)
    assert type(simple) is Tangle and simple.strand_legs() == reduced.strand_legs()
