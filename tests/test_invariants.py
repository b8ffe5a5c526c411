import itertools
import math
import random
from pathlib import Path

import pytest

from knotmoves import gauss
from knotmoves.diagram import Diagram, Fragment, _IdJoiner, parse_dt, parse_pd
from knotmoves.finitetype import random_family
from knotmoves.invariants import (CrossingLimitExceeded, _alexander_rows, _det, _digits,
                                  _v2_from_jones, _v3_from_jones, conway, jones,
                                  kauffman_bracket, v2_conway, v2_jones, v3_jones,
                                  vassiliev_report)
from knotmoves.moves import r1_add, random_perturb, replay
from knotmoves.poly import LaurentPolynomial as L
from knotmoves.tangles import tangle_key
from knotmoves.templates import family
from polyops import padd, pmul


def brute_bracket(d: Diagram) -> L:
    """Independent oracle: literal 2^n state sum with union-find loop counting."""
    n = d.n_crossings
    if n == 0:
        return L({0: 1})
    delta = L({2: -1, -2: -1})
    total = L()
    for state in itertools.product("AB", repeat=n):
        parent: dict = {}

        def find(x):
            while parent.get(x, x) != x:
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        exp = 0
        for c, mode in zip(d.crossings, state):
            # ports 0..3; A joins (0,1), (2,3); B joins (1,2), (3,0)
            pairs = [(0, 1), (2, 3)] if mode == "A" else [(1, 2), (3, 0)]
            exp += 1 if mode == "A" else -1
            for a, b in pairs:
                union((id(c), a), (id(c), b))
        # connect ports along edges
        occs: dict = {}
        for c in d.crossings:
            for slot, e in enumerate(c.ends):
                occs.setdefault(e, []).append((id(c), slot))
        for ports in occs.values():
            union(ports[0], ports[1])
        loops = len({find((id(c), s)) for c in d.crossings for s in range(4)})
        total = padd(total, pmul(L({exp: 1}), *[delta] * (loops - 1)))
    return total


def test_bracket_unknot(unknot):
    assert kauffman_bracket(unknot) == L({0: 1})


def test_bracket_kinks(unknot):
    # hand state sum: positive kink has states A -> one extra circle factor
    assert kauffman_bracket(r1_add(unknot, 0, 1)) == L({3: -1})
    assert kauffman_bracket(r1_add(unknot, 0, -1)) == L({-3: -1})


@pytest.mark.parametrize("code", ["4 6 2", "4 6 8 2", "6 8 10 2 4"])
def test_bracket_matches_brute_enumeration(code):
    d = parse_dt(code)
    assert kauffman_bracket(d) == brute_bracket(d)


def test_bracket_matches_brute_on_perturbed_corpus(knots):
    # The contraction order depends on the labelling; R-moves reshuffle it.
    sizes = []
    for i, name in enumerate(sorted(knots)):
        if knots[name].n_crossings > 6:
            continue
        for seed in (i, 50 + i):
            p = random_perturb(knots[name], 12, seed=seed, max_extra=4)
            sizes.append(p.n_crossings)
            assert kauffman_bracket(p) == brute_bracket(p), (name, seed)
    assert len(sizes) == 20 and max(sizes) == 11


@pytest.mark.parametrize("chirality", [1, -1])
def test_bracket_of_kinks_reaches_the_packing_range(unknot, chirality):
    # n kinks of one chirality: <D> = (-A^(3 chirality))^n, whose one term
    # sits at exponent +-3n, the edge of the packed range (low = 3n).
    d = unknot
    for n in range(1, 13):
        d = r1_add(d, max(d.edges(), default=0), chirality)
        assert kauffman_bracket(d) == L({3 * chirality * n: (-1) ** n}), n


def test_bracket_multiplicative_on_a_sum_with_large_coefficients(knots):
    # Six 7_7 summands, 42 crossings: bracket coefficients up to 7,460,631
    # (24-bit digits), where no corpus knot passes 6, so a digit
    # width far too narrow shows here.
    d = knots["7_7"]
    for _ in range(5):
        d = d.connected_sum(knots["7_7"])
    bracket = kauffman_bracket(d, limit=d.n_crossings)
    assert bracket == pmul(*[kauffman_bracket(knots["7_7"])] * 6)
    assert max(abs(c) for _, c in bracket.items()) == 7_460_631


@pytest.mark.parametrize("chirality", [1, -1])
def test_bracket_cut_on_a_kink_loop(knots, chirality):
    # The contraction cuts the knot at slot 0 of crossing 0; put that slot on
    # the loop of a fresh kink, so the cut strand is also a curl.
    for name in ("3_1", "4_1", "6_2"):
        d = knots[name]
        kinked = r1_add(d, d.crossings[1].ends[2], chirality)
        curl = kinked.crossings[-1].rotated(2)
        assert curl.ends[0] in (curl.ends[1], curl.ends[3])
        first = Diagram((curl,) + kinked.crossings[:-1])
        assert kauffman_bracket(first) == brute_bracket(first)
        assert kauffman_bracket(first) == pmul(L({3 * chirality: -1}), kauffman_bracket(d))


def test_bracket_crossing_limit(left_trefoil):
    with pytest.raises(CrossingLimitExceeded):
        kauffman_bracket(left_trefoil, limit=2)


def reciprocal(p: L) -> L:
    """p with t -> 1/t: the Jones polynomial of the mirror image."""
    return L({-e: c for e, c in p.items()})


def test_jones_trefoil(right_trefoil, left_trefoil):
    # V(right trefoil) = -t^4 + t^3 + t, stored in half-unit exponents
    assert jones(right_trefoil) == L({2: 1, 6: 1, 8: -1})
    assert jones(left_trefoil) == reciprocal(jones(right_trefoil))


def test_jones_fig8_amphichiral():
    fig8 = parse_dt("4 6 8 2")
    assert jones(fig8) == reciprocal(jones(fig8))
    assert jones(fig8.mirror()) == jones(fig8)


def test_jones_r_move_invariance(left_trefoil):
    j0 = jones(left_trefoil)
    for seed in range(5):
        assert jones(random_perturb(left_trefoil, 15, seed=seed)) == j0


def test_conway_anchors(unknot, right_trefoil):
    # two-step skein by hand: switch one trefoil crossing -> unknot,
    # smooth -> Hopf link whose own skein gives +-z, so conway = 1 + z^2.
    assert conway(unknot) == L({0: 1})
    assert conway(right_trefoil) == L({0: 1, 2: 1})
    assert conway(parse_dt("4 6 8 2")) == L({0: 1, 2: -1})


# Conway polynomials as pairs (exponent of z, coefficient), recorded with the
# switch-and-smooth skein recursion; any later route must reproduce them.
GOLDEN_CONWAY = {
    "unknot": [[0, 1]],
    "3_1": [[0, 1], [2, 1]],
    "4_1": [[0, 1], [2, -1]],
    "5_1": [[0, 1], [2, 3], [4, 1]],
    "5_2": [[0, 1], [2, 2]],
    "6_1": [[0, 1], [2, -2]],
    "6_2": [[0, 1], [2, -1], [4, -1]],
    "6_3": [[0, 1], [2, 1], [4, 1]],
    "7_1": [[0, 1], [2, 6], [4, 5], [6, 1]],
    "7_2": [[0, 1], [2, 3]],
    "7_3": [[0, 1], [2, 5], [4, 2]],
    "7_4": [[0, 1], [2, 4]],
    "7_5": [[0, 1], [2, 4], [4, 2]],
    "7_6": [[0, 1], [2, 1], [4, -1]],
    "7_7": [[0, 1], [2, -1], [4, 1]],
    "dt8a": [[0, 1], [2, -3]],
    "dt8b": [[0, 1], [4, -3], [6, -1]],
    "dt8c": [[0, 1], [2, -1], [4, -2]],
    "dt8d": [[0, 1], [4, -2]],
    "dt8e": [[0, 1], [2, 2], [4, 2]],
    "dt8f": [[0, 1], [2, 5], [4, 2]],
    "granny": [[0, 1], [2, 2], [4, 1]],
    "square": [[0, 1], [2, 2], [4, 1]],
    "3_1+4_1": [[0, 1], [4, -1]],
    "4_1+4_1": [[0, 1], [2, -2], [4, 1]],
    "3_1+5_1": [[0, 1], [2, 4], [4, 4], [6, 1]],
    "3_1+5_2": [[0, 1], [2, 3], [4, 2]],
    "3_1+6_1": [[0, 1], [2, -1], [4, -2]],
    "4_1+5_2": [[0, 1], [2, 1], [4, -2]],
    "7_1#7_1": [[0, 1], [2, 12], [4, 46], [6, 62], [8, 37], [10, 10], [12, 1]],
    "5_2#6_2*": [[0, 1], [2, 1], [4, -3], [6, -2]],
}


def test_conway_golden_corpus_and_sums(knots):
    sums = {"7_1#7_1": knots["7_1"].connected_sum(knots["7_1"]),
            "5_2#6_2*": knots["5_2"].connected_sum(knots["6_2"].mirror())}
    diagrams = {**knots, **sums}
    assert sorted(diagrams) == sorted(GOLDEN_CONWAY)
    for name, d in diagrams.items():
        assert conway(d).to_pairs() == GOLDEN_CONWAY[name], name


def test_conway_golden_perturbed(knots):
    sizes = []
    for i, name in enumerate(sorted(knots)):
        for seed in (i, 100 + i):
            p = random_perturb(knots[name], 40, seed=seed, max_extra=10)
            if p.n_crossings > 17:
                continue
            sizes.append(p.n_crossings)
            assert conway(p).to_pairs() == GOLDEN_CONWAY[name], (name, seed)
    assert len(sizes) == 35 and sizes.count(17) == 12


# The n-point route that Kronecker substitution replaced, kept as the
# reference: the minor at t = 0..n-1, Newton interpolation with exact
# divisions, and the same normalization to Conway form.
def _interpolate(values: list[int]) -> list[int]:
    """Integer coefficients, low to high, of the polynomial p with p(t) = values[t]."""
    newton = []
    diffs = list(values)
    while diffs:
        newton.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    coeffs: list[int] = []
    for k in range(len(newton) - 1, -1, -1):
        c, rem = divmod(newton[k], math.factorial(k))
        assert not rem, "Alexander minor is not an integer polynomial"
        nxt = [0] + coeffs  # coeffs * (t - k) + c
        for i, a in enumerate(coeffs):
            nxt[i] -= k * a
        nxt[0] += c
        coeffs = nxt
    return coeffs


def _conway_by_interpolation(d: Diagram) -> L:
    if not d.crossings:
        return L({0: 1})
    values = [_det([row[:-1] for row in _alexander_rows(d, t)[:-1]])
              for t in range(d.n_crossings)]
    coeffs = _interpolate(values)
    nonzero = [i for i, c in enumerate(coeffs) if c]
    coeffs = coeffs[nonzero[0]:nonzero[-1] + 1]
    sign = sum(coeffs)
    assert sign in (1, -1) and len(coeffs) % 2 and coeffs == coeffs[::-1]
    coeffs = [sign * c for c in coeffs]
    mid = len(coeffs) // 2
    z2_plus_2 = L({0: 2, 2: 1})
    prev, cur = L({0: 2}), z2_plus_2
    nabla = L({0: coeffs[mid]})
    for k in range(1, mid + 1):
        nabla = padd(nabla, pmul(coeffs[mid + k], cur))
        prev, cur = cur, padd(pmul(z2_plus_2, cur), pmul(-1, prev))
    return nabla


def test_conway_matches_interpolation_reference(knots, large_family_members):
    diagrams = []
    for i, name in enumerate(sorted(knots)):
        d = knots[name]
        diagrams += [d, random_perturb(d, 12, seed=i), random_perturb(d, 12, seed=200 + i)]
    diagrams += [m for _, _, m in large_family_members]
    # Six 5_2 summands: Alexander coefficients up to 24,689, where the others
    # stay small, so a digit width far too narrow shows here.
    sum6 = knots["5_2"]
    for _ in range(5):
        sum6 = sum6.connected_sum(knots["5_2"])
    diagrams.append(sum6)
    for d in diagrams:
        assert conway(d) == _conway_by_interpolation(d), d.crossings
    assert len(diagrams) == 3 * len(knots) + 59


def test_alexander_rows_obey_the_digit_bound(knots, large_family_members):
    """Each row is a + b t entrywise with sum(|a| + |b|) <= 4: the bound that
    keeps every coefficient of the minor inside one base-2^(2n) digit."""
    diagrams = [d for d in knots.values() if d.crossings]
    diagrams += [m for _, _, m in large_family_members]
    widest = 0
    for d in diagrams:
        for row0, row1 in zip(_alexander_rows(d, 0), _alexander_rows(d, 1)):
            width = sum(abs(a) + abs(b - a) for a, b in zip(row0, row1))
            assert width <= 4, d.crossings
            widest = max(widest, width)
    assert widest == 4


def test_digits_round_trip():
    rng = random.Random(19)
    for bits in (2, 3, 8, 64, 190):
        top = (1 << (bits - 1)) - 1
        cases = [[1], [-1], [top], [-top], [0, 0, top, -top], [-top, 0, -1]]
        for _ in range(200):
            middle = [rng.choice((top, -top, 0, rng.randint(-top, top)))
                      for _ in range(rng.randrange(8))]
            last = rng.choice((top, -top, -1, rng.randint(-top, -1), rng.randint(1, top)))
            cases.append([0] * rng.randrange(3) + middle + [last])
        for coeffs in cases:
            value = sum(c << (bits * i) for i, c in enumerate(coeffs))
            assert _digits(value, bits) == coeffs, (bits, coeffs)
        assert _digits(0, bits) == []


@pytest.mark.parametrize("chiralities", [(1,), (-1,), (1, 1), (1, -1), (-1, -1)])
def test_conway_on_minors_of_size_zero_and_one(unknot, chiralities):
    d = unknot
    for chirality in chiralities:
        d = r1_add(d, max(d.edges(), default=0), chirality)
    # n crossings give an (n - 1) x (n - 1) Alexander minor: 0 x 0 or 1 x 1 here.
    assert d.n_crossings == len(chiralities)
    assert conway(d) == L({0: 1})


def _smooth_unoriented(frag: Fragment, ci: int, mode: str) -> Fragment:
    c = frag.crossings[ci]
    joiner = _IdJoiner()
    if mode == "A":
        joiner.join(c.ends[0], c.ends[1])
        joiner.join(c.ends[2], c.ends[3])
    else:
        joiner.join(c.ends[1], c.ends[2])
        joiner.join(c.ends[3], c.ends[0])
    rest = [x for i, x in enumerate(frag.crossings) if i != ci]
    return Fragment(joiner.apply(rest), (), frag.free_loops + joiner.loops)


def test_bracket_state_key_golden(knots):
    # Keys of closed multi-loop fragments: every corpus knot, three perturbed
    # copies, and each of their one-crossing A and B smoothings (the states
    # the earlier bracket recursion keyed its memo by).
    import hashlib

    keys = []
    for name, d in sorted(knots.items()):
        for p in [d] + [random_perturb(d, 6, seed=s) for s in range(3)]:
            f = Fragment(p.crossings)
            keys.append(tangle_key(f))
            for ci in range(p.n_crossings):
                for mode in "AB":
                    keys.append(tangle_key(_smooth_unoriented(f, ci, mode)))
    assert len(keys) == 2748
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == \
        "8a44f3cc21c7b9ac7160117f03ab159108398e5582a21e6730983b5fa3f554b4"


def test_conway_multiplicative_on_sums(right_trefoil):
    fig8 = parse_dt("4 6 8 2")
    s = right_trefoil.connected_sum(fig8)
    assert conway(s) == pmul(conway(right_trefoil), conway(fig8))


def test_conway_even_powers_only(knots):
    for name, d in knots.items():
        nabla = conway(d)
        assert all(e % 2 == 0 and e >= 0 for e, _ in nabla.items()), name


def test_v2_routes_agree(knots):
    for name, d in knots.items():
        assert v2_conway(d) == v2_jones(d), name


def test_v2_v3_jones_equal_gauss_on_large_family_members(knots):
    # Above the default bracket limit, on the smallest and largest member of
    # 30-60 crossings of seeded (3, 3, 2) families of the corpus.
    rng = random.Random(3)
    sizes = []
    for name, d in sorted(knots.items()):
        fam = random_family(d, (3, 3, 2), rng)
        if fam is None:
            continue
        members = sorted((m for m in family(fam).values() if 30 <= m.n_crossings <= 60),
                         key=lambda m: m.n_crossings)
        for m in members[:1] + members[1:][-1:]:
            v = jones(m, limit=m.n_crossings)
            assert (_v2_from_jones(v), _v3_from_jones(v)) == (gauss.v2(m), gauss.v3(m)), name
            sizes.append(m.n_crossings)
    assert len(sizes) == 50 and min(sizes) == 30 and max(sizes) == 59


def test_v2_v3_jones_equal_gauss_on_pinned_large_codes():
    # The 66-, 105- and 91-crossing codes of configs/invariants-large.tsv,
    # with the bracket limit lifted.
    path = Path(__file__).resolve().parent.parent / "configs" / "invariants-large.tsv"
    sizes = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        name, code = line.split("\t")
        d = parse_pd(code)
        v = jones(d, limit=d.n_crossings)
        assert (_v2_from_jones(v), _v3_from_jones(v)) == (gauss.v2(d), gauss.v3(d)), name
        sizes.append(d.n_crossings)
    assert sizes == [66, 105, 91]


def test_v3_jones_calibration(right_trefoil, left_trefoil):
    assert v3_jones(right_trefoil) == 1
    assert v3_jones(left_trefoil) == -1
    assert v3_jones(parse_dt("4 6 8 2")) == 0


def test_crossing_change_linking_number(knots):
    """Switching crossing c changes the z^2 coefficient by sign(c) lk(L0).

    L0 is the two-component link from smoothing c; its linking number is
    half the signed count of the crossings that the traversal visits once
    between the two passages of c.
    """
    rng = random.Random(6)
    names = sorted(knots)
    checked = 0
    while checked < 100:
        d = knots[names[rng.randrange(len(names))]]
        if not d.crossings:
            continue
        ci = rng.randrange(d.n_crossings)
        visits = [c for c, _ in d.passages]
        first = visits.index(ci)
        between = visits[first + 1:visits.index(ci, first + 1)]
        twice = sum(d.signs[c] for c in set(between) if between.count(c) == 1)
        assert twice % 2 == 0
        switched = replay(d, [("switch", ci)])
        assert switched.signs[ci] == -d.signs[ci]
        assert conway(d).coeff(2) - conway(switched).coeff(2) == d.signs[ci] * twice // 2
        checked += 1


def test_vassiliev_report(right_trefoil, unknot):
    rep = vassiliev_report(right_trefoil)
    assert rep["v2"] == 1 and rep["v3"] == 1
    assert all(rep["crosschecks"].values())
    rep = vassiliev_report(unknot)
    assert rep["v2"] == 0 and rep["v3"] == 0
    granny = right_trefoil.connected_sum(right_trefoil)
    rep = vassiliev_report(granny)
    assert rep["v2"] == 2 and rep["v3"] == 2


def test_parallel_evaluation_deterministic(knots):
    """Pure operations over immutable diagrams evaluate safely in parallel."""
    from concurrent.futures import ThreadPoolExecutor

    names = sorted(knots)
    expected = {n: (v2_conway(knots[n]), conway(knots[n]).to_pairs())
                for n in names}

    def work(n):
        return n, (v2_conway(knots[n]), conway(knots[n]).to_pairs())

    with ThreadPoolExecutor(max_workers=8) as pool:
        got = dict(pool.map(work, names * 3))
    assert got == expected


def test_conway_28_crossing_sum(knots):
    """Four 7_1 summands: a diagram far past what a skein recursion handles quickly."""
    d = knots["7_1"]
    for _ in range(3):
        d = d.connected_sum(knots["7_1"])
    assert d.n_crossings == 28
    assert conway(d) == pmul(*[conway(knots["7_1"])] * 4)
