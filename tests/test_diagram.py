import hashlib
import itertools
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from knotmoves.diagram import (Crossing, Diagram, DTCapExceeded, MalformedDiagram,
                               NotRealizable, emit_dt, emit_pd, parse_dt, parse_pd)
from knotmoves.gauss import to_gauss
from knotmoves.moves import random_perturb


def _gauss_sequence(self, reverse: bool = False) -> list[tuple[int, bool, int]]:
    """(crossing, is_over, sign) per passage, optionally reversed traversal."""
    seq = [(ci, slot in (1, 3), self.signs[ci]) for ci, slot in self.passages]
    if reverse:
        seq = seq[::-1]
    return seq


def reference_key(d: Diagram) -> str:
    """The unpruned O(m^2) key: every rotation in both directions, as strings."""
    if not d.crossings:
        return "unknot"
    best = None
    for reverse in (False, True):
        seq = _gauss_sequence(d, reverse)
        m = len(seq)
        for r in range(m):
            label: dict[int, int] = {}
            parts = []
            for i in range(m):
                ci, over, sign = seq[(r + i) % m]
                lab = label.setdefault(ci, len(label))
                parts.append(f"{lab}{'o' if over else 'u'}{'+' if sign > 0 else '-'}")
            cand = ";".join(parts)
            if best is None or cand < best:
                best = cand
    return best


def reference_parse_dt(text: str) -> Diagram:
    """The product enumerator over all 2^(n-1) orientation patterns."""
    stripped = text.strip()
    if not stripped:
        return Diagram.unknot()
    try:
        entries = [int(tok) for tok in stripped.replace(",", " ").split()]
    except ValueError as exc:
        raise MalformedDiagram(f"bad DT token in {text!r}") from exc
    n = len(entries)
    if any(a == 0 or a % 2 for a in entries):
        raise MalformedDiagram("DT entries must be nonzero even integers")
    evens = [abs(a) for a in entries]
    if sorted(evens) != list(range(2, 2 * n + 1, 2)):
        raise MalformedDiagram("DT even entries must be 2,4,...,2n in some order")
    if n > 14:
        raise DTCapExceeded("DT realizability search capped at 14 crossings")

    # Positions 1..2n around the circle; edge j runs from position j to j+1.
    # Crossing i has one record per orientation bit: bit 0 puts the outgoing
    # over edge at slot 1, bit 1 the incoming one.
    def edge_before(p: int) -> int:
        return 2 * n if p == 1 else p - 1

    ends = []
    for i, a in enumerate(entries):
        odd = 2 * i + 1
        even = abs(a)
        over, under = (even, odd) if a > 0 else (odd, even)
        u_in, u_out = edge_before(under), under
        o_in, o_out = edge_before(over), over
        ends.append(((u_in, o_out, u_out, o_in), (u_in, o_in, u_out, o_out)))

    # Faces are the orbits of the left-turn map on the 4n slot positions: a
    # slot goes to the other end of its edge, then one slot ccw.
    m = 4 * n
    ccw = [p - p % 4 + (p + 1) % 4 for p in range(m)]

    def n_faces(flat: list[int]) -> int:
        first = [-1] * (2 * n + 1)
        turn = [0] * m
        for p, e in enumerate(flat):
            q = first[e]
            if q < 0:
                first[e] = p
            else:
                turn[p], turn[q] = ccw[q], ccw[p]
        seen = bytearray(m)
        faces = 0
        for p in range(m):
            if not seen[p]:
                faces += 1
                while not seen[p]:
                    seen[p] = 1
                    p = turn[p]
        return faces

    for bits in product((0, 1), repeat=n - 1):
        records = [ends[0][0]] + [e[bit] for e, bit in zip(ends[1:], bits)]
        if n_faces([e for rec in records for e in rec]) == n + 2:
            return Diagram([Crossing(rec) for rec in records], basepoint=1)
    raise NotRealizable(f"DT code {text!r} has no planar realization")


@pytest.fixture(scope="module")
def perturbed(knots) -> list[Diagram]:
    """Corpus knots, R-perturbed copies up to 17 crossings, and all mirrors."""
    out = []
    for d in knots.values():
        out.append(d)
        for seed in range(4):
            out.append(random_perturb(d, 14, seed=seed, max_extra=8))
    return out + [d.mirror() for d in out]


def test_empty_code_is_unknot():
    d = parse_pd("")
    assert d.n_crossings == 0 and d.free_loops == 1
    assert d.canonical_key == "unknot"
    assert parse_dt("").canonical_key == "unknot"


def test_kink_parses():
    d = parse_pd("X(1,1,2,2)")
    assert d.n_crossings == 1
    assert d.is_planar()


def test_parse_pd_errors():
    with pytest.raises(MalformedDiagram):
        parse_pd("X(1,2,3)")
    with pytest.raises(MalformedDiagram):
        parse_pd("X(1,4,2,5) X(3,6,4,1)")  # edges 2,5 appear once
    with pytest.raises(MalformedDiagram):
        parse_pd("garbage")
    # two disjoint kinks: two components
    with pytest.raises(MalformedDiagram):
        parse_pd("X(1,1,2,2) X(3,3,4,4)")


def test_trefoil_structure(left_trefoil):
    assert left_trefoil.n_crossings == 3
    assert left_trefoil.writhe() == -3
    assert left_trefoil.is_planar()
    assert len(left_trefoil.face_walks()) == 5


def test_pd_round_trip(left_trefoil, knots):
    for d in [left_trefoil] + [k for k in knots.values() if k.crossings][:6]:
        again = parse_pd(emit_pd(d))
        assert again.canonical_key == d.canonical_key


def test_basepoint_lowest_edge():
    d = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    assert d.basepoint == 1


def test_canonical_key_invariances(left_trefoil):
    # relabeling
    mapping = {e: e + 50 for e in left_trefoil.edges()}
    relabeled = left_trefoil.relabeled(mapping)
    assert relabeled.canonical_key == left_trefoil.canonical_key
    # basepoint rotation
    for e in left_trefoil.edges():
        rotated = Diagram(left_trefoil.crossings, basepoint=e, check=False)
        assert rotated.canonical_key == left_trefoil.canonical_key


def test_canonical_key_matches_reference(perturbed):
    # Multi-digit labels ("10u+" sorts before "1o+") must be covered.
    assert max(d.n_crossings for d in perturbed) >= 15
    for d in perturbed:
        assert d.canonical_key == reference_key(d), d.crossings


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_canonical_key_relabel_and_basepoint(perturbed, data):
    d = data.draw(st.sampled_from(perturbed))
    shifted = d.shifted(data.draw(st.integers(1, 500)))
    assert shifted.canonical_key == d.canonical_key
    if d.crossings:
        e = data.draw(st.sampled_from(d.edges()))
        rebased = Diagram(d.crossings, d.free_loops, basepoint=e, check=False)
        assert rebased.canonical_key == d.canonical_key


def test_canonical_key_separates(left_trefoil):
    fig8 = parse_dt("4 6 8 2")
    assert fig8.canonical_key != left_trefoil.canonical_key
    assert left_trefoil.mirror().canonical_key != left_trefoil.canonical_key


def test_mirror_is_involution(knots):
    # double mirror returns the same diagram (records may be gauge-rotated)
    for d in list(knots.values())[:8]:
        dd = d.mirror().mirror()
        assert dd.canonical_key == d.canonical_key
        assert [c.rotated(2) for c in dd.crossings] == list(d.crossings)


def test_connected_sum_counts(left_trefoil, unknot):
    fig8 = parse_dt("4 6 8 2")
    s = left_trefoil.connected_sum(fig8)
    assert s.n_crossings == 7
    assert s.is_planar()
    assert unknot.connected_sum(left_trefoil).canonical_key == left_trefoil.canonical_key
    assert left_trefoil.connected_sum(unknot).canonical_key == left_trefoil.canonical_key


def test_unknot_sum_is_identity_after_simplify(knots):
    from knotmoves.moves import simplify

    unknot = Diagram.unknot()
    for name, d in knots.items():
        if d.n_crossings > 8:
            continue
        s = unknot.connected_sum(d)
        assert simplify(s).canonical_key == simplify(d).canonical_key, name


def test_dt_round_trips():
    # The last code has a kink at its basepoint edge.
    for code in ["4 6 2", "4 6 8 2", "6 8 10 2 4", "4 8 12 2 14 6 10",
                 "-2 10 4 14 12 -6 -8"]:
        d = parse_dt(code)
        assert emit_dt(d) == code
        assert d.is_planar()


def test_dt_errors():
    with pytest.raises(MalformedDiagram):
        parse_dt("3 6 2")  # odd entry
    with pytest.raises(MalformedDiagram):
        parse_dt("4 4 2")  # repeated value
    with pytest.raises(MalformedDiagram):
        parse_dt("4 6 10")  # not a permutation of 2..2n
    with pytest.raises(NotRealizable):
        parse_dt("4 10 12 16 14 2 8 6")


def test_dt_cap_is_not_a_realizability_verdict(knots):
    # Emitted from a 15-crossing diagram, so the code is realizable.
    code = emit_dt(knots["7_1"].connected_sum(knots["dt8a"]))
    assert len(code.split()) == 15
    with pytest.raises(DTCapExceeded, match="capped at 14 crossings") as info:
        parse_dt(code)
    assert not isinstance(info.value, NotRealizable)


def _dt_outcome(parse, code: str):
    try:
        d = parse(code)
    except NotRealizable:
        return "not realizable"
    return d.basepoint, [c.ends for c in d.crossings]


def test_parse_dt_matches_reference_on_random_codes(knots):
    # Random signed codes are mostly realizable up to 7 crossings and mostly
    # not from 10 on; signed emitted codes of perturbed copies add realizable
    # codes of 8-12 crossings.
    rng = random.Random(77)
    codes = []
    for n in range(3, 13):
        for _ in range(25):
            evens = list(range(2, 2 * n + 1, 2))
            rng.shuffle(evens)
            codes.append([rng.choice((e, -e)) for e in evens])
    for _, d in sorted(knots.items()):
        p = random_perturb(d, 8, seed=8, max_extra=5)
        if 8 <= p.n_crossings <= 12:
            codes.append([rng.choice((a, -a)) for a in map(int, emit_dt(p).split())])
    seen = {False: set(), True: set()}
    for entries in codes:
        code = " ".join(map(str, entries))
        want = _dt_outcome(reference_parse_dt, code)
        assert _dt_outcome(parse_dt, code) == want, code
        seen[want != "not realizable"].add(len(entries))
    assert seen[True] == set(range(3, 13))
    assert seen[False] == set(range(5, 13))


def test_parse_dt_golden_on_perturbed_codes(knots):
    # Recorded with the product enumerator: emitted codes of 9-14 crossings.
    lines = []
    for name, d in sorted(knots.items()):
        for seed in range(3):
            p = random_perturb(d, 10, seed=seed, max_extra=6)
            if 9 <= p.n_crossings <= 14:
                code = emit_dt(p)
                basepoint, ends = _dt_outcome(parse_dt, code)
                lines.append(f"{name}~{seed} {p.n_crossings} {code} | {basepoint} {ends}")
    assert len(lines) == 66
    assert sum(line.split()[1] == "14" for line in lines) == 22
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "0cd55397771d1d0f15a0f72397c66ac5ce44ea8cf2b981df9f9c601309c717e0"


def test_gauss_of_trefoil(left_trefoil):
    g = to_gauss(left_trefoil)
    assert g.length == 6 and len(g.arrows) == 3
    assert len({a.sign for a in g.arrows}) == 1
    # brute check: all three chords pairwise interleaved
    for a, b in itertools.combinations(g.arrows, 2):
        pa, pb = sorted((a.over, a.under)), sorted((b.over, b.under))
        assert pa[0] < pb[0] < pa[1] < pb[1] or pb[0] < pa[0] < pb[1] < pa[1]


def test_gauss_of_unknot_and_kink(unknot):
    assert to_gauss(unknot).length == 0
    kink = parse_pd("X(1,1,2,2)")
    g = to_gauss(kink)
    assert len(g.arrows) == 1
    a = g.arrows[0]
    assert abs(a.over - a.under) == 1  # endpoints adjacent


def test_component_count(unknot, left_trefoil):
    assert unknot.component_count() == 1
    assert left_trefoil.component_count() == 1
    from knotmoves.diagram import Fragment
    # two stacked kink circles as a raw fragment
    two = Fragment(parse_pd("X(1,1,2,2)").crossings
                   + tuple(c.relabeled({1: 11, 2: 12})
                           for c in parse_pd("X(1,1,2,2)").crossings))
    assert two.component_count() == 2


def test_pd_parser_accepts_whitespace_and_brackets():
    a = parse_pd("X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)")
    b = parse_pd("X[1, 4, 2, 5]\nX[3, 6, 4, 1]\nX[5, 2, 6, 3]")
    assert a.canonical_key == b.canonical_key


def test_dt_parser_accepts_commas():
    assert parse_dt("4, 6, 2").canonical_key == parse_dt("4 6 2").canonical_key
