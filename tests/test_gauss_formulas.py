"""The Gauss-diagram counts v2 and v3 against independent routes.

The position counts of `knotmoves.gauss` are checked against the Conway and
Jones routes, against a golden digest recorded with the earlier
pattern-string census, and against that census itself (kept below as the
reference) on random arrow configurations, realizable or not.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

from knotmoves.diagram import Diagram
from knotmoves.gauss import Arrow, GaussDiagram, _v2_count, _v3_count, to_gauss, v2, v3
from knotmoves.invariants import v2_conway, v2_jones, v3_jones
from knotmoves.moves import random_perturb
from knotmoves.templates import apply_chord, random_insert_chord


# The pattern-string census that first defined v2 and v3: every arrow pair
# and triple is coded by its based configuration and looked up in tables.
def _based_code(arrows: tuple[Arrow, ...]) -> str:
    """Based configuration code of a small arrow set.

    Endpoints are listed in increasing order from the basepoint; each is
    tagged with its chord (relabeled by first appearance) and whether it is
    the tail (over passage) or head (under passage).
    """
    points = []
    for idx, a in enumerate(arrows):
        points.append((a.over, idx, "t"))
        points.append((a.under, idx, "h"))
    points.sort()
    label: dict[int, int] = {}
    parts = []
    for _, idx, kind in points:
        lab = label.setdefault(idx, len(label))
        parts.append(f"{lab}{kind}")
    return "".join(parts)


def pair_counts(g: GaussDiagram) -> dict[str, int]:
    counts: dict[str, int] = {}
    for a, b in combinations(g.arrows, 2):
        code = _based_code((a, b))
        counts[code] = counts.get(code, 0) + a.sign * b.sign
    return counts


def triple_counts(g: GaussDiagram) -> dict[str, int]:
    counts: dict[str, int] = {}
    for a, b, c in combinations(g.arrows, 3):
        code = _based_code((a, b, c))
        counts[code] = counts.get(code, 0) + a.sign * b.sign * c.sign
    return counts


V2_TERMS: dict[str, Fraction] = {
    # interleaved pair: under of chord 0, over of 1, over of 0, under of 1
    "0h1t0t1h": Fraction(1),
}

V3_TERMS_PAIR: dict[str, Fraction] = {}
V3_TERMS_TRIPLE: dict[str, Fraction] = {
    "0t1h2t0h1t2h": Fraction(1),
    "0h1t2h0t1h2t": Fraction(1),
    "0h1h2t0t2h1t": Fraction(1),
    "0h1t2t1h0t2h": Fraction(1),
    "0t1h0h2t1t2h": Fraction(1),
}


def _evaluate(counts: dict[str, int], table: dict[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for code, coeff in table.items():
        if coeff and code in counts:
            total += coeff * counts[code]
    return total


def _census(g: GaussDiagram) -> tuple[Fraction, Fraction]:
    return (_evaluate(pair_counts(g), V2_TERMS),
            _evaluate(triple_counts(g), V3_TERMS_TRIPLE)
            + _evaluate(pair_counts(g), V3_TERMS_PAIR))


def _position_counts(g: GaussDiagram) -> tuple[int, int]:
    chords = sorted((min(a.over, a.under), max(a.over, a.under), a.over < a.under, a.sign)
                    for a in g.arrows)
    return _v2_count(chords), _v3_count(chords)


def test_position_counts_match_census_on_random_arrows():
    rng = random.Random(20)
    for trial in range(400):
        n = rng.randrange(13)
        slots = rng.sample(range(2 * n), 2 * n)
        g = GaussDiagram(2 * n, tuple(Arrow(slots[2 * i], slots[2 * i + 1], rng.choice((-1, 1)))
                                      for i in range(n)))
        g.validate()
        assert _position_counts(g) == _census(g), (trial, g)


def test_position_counts_match_census_on_diagrams(knots):
    for name, d in sorted(knots.items()):
        for p in (d, d.mirror(), random_perturb(d, 8, seed=len(name))):
            if p.n_crossings <= 12:
                g = to_gauss(p)
                assert _position_counts(g) == _census(g), name
                assert (_v2_count(p.gauss_chords), _v3_count(p.gauss_chords)) == _census(g), name


def test_v2_calibration_anchors(unknot, right_trefoil, left_trefoil, knots):
    assert v2(unknot) == 0
    assert v2(right_trefoil) == 1
    assert v2(left_trefoil) == 1
    assert v2(knots["4_1"]) == -1


def test_v3_calibration_anchors(unknot, right_trefoil, left_trefoil, knots):
    assert v3(unknot) == 0
    assert v3(right_trefoil) == 1
    assert v3(left_trefoil) == -1
    assert v3(knots["4_1"]) == 0  # amphichiral forces v3 = -v3


def test_v2_equals_conway_coefficient_corpus_wide(knots):
    for name, d in knots.items():
        assert v2(d) == v2_conway(d), name


def test_v3_matches_jones_derivative_corpus_wide(knots):
    for name, d in knots.items():
        assert v3(d) == v3_jones(d), name


def test_mirror_symmetries(knots):
    for name, d in knots.items():
        m = d.mirror()
        assert v2(m) == v2(d), name
        assert v3(m) == -v3(d), name


def test_additivity_under_connected_sum(knots):
    rng = random.Random(12)
    names = sorted(knots)
    for _ in range(20):
        a, b = rng.choice(names), rng.choice(names)
        s = knots[a].connected_sum(knots[b])
        assert v2(s) == v2(knots[a]) + v2(knots[b])
        assert v3(s) == v3(knots[a]) + v3(knots[b])


def test_basepoint_independence(knots):
    for name in ["3_1", "5_2", "6_2", "granny"]:
        d = knots[name]
        vals = set()
        for e in d.edges():
            dd = Diagram(d.crossings, d.free_loops, basepoint=e, check=False)
            vals.add((v2(dd), v3(dd)))
        assert len(vals) == 1, name


def test_invariance_under_perturbation(knots):
    rng = random.Random(5)
    names = sorted(knots)
    for i in range(25):
        name = names[rng.randrange(len(names))]
        d = knots[name]
        p = random_perturb(d, 12, seed=1000 + i)
        assert v2(p) == v2(d), name
        assert v3(p) == v3(d), name


def test_kinked_unknots_vanish(unknot):
    for seed in range(8):
        p = random_perturb(unknot, 10, seed=seed)
        assert v2(p) == 0 and v3(p) == 0


def test_values_on_crosschecked_routes(knots):
    for name in ["5_1", "7_1", "dt8e"]:
        d = knots[name]
        assert v2(d) == v2_jones(d), name


def test_gauss_diagram_shape(knots):
    g = to_gauss(knots["6_2"])
    assert g.length == 12
    assert sorted(s for a in g.arrows for s in (a.over, a.under)) == list(range(12))


def _golden_diagrams(knots):
    """Corpus knots, mirrors, perturbed copies and insertion-chain members."""
    out = []
    rng = random.Random(6)
    for name, d in sorted(knots.items()):
        out.append((name, d))
        out.append((name + "*", d.mirror()))
        for seed in range(2):
            out.append((f"{name}~{seed}", random_perturb(d, 12, seed=seed)))
        chain = d
        for step in range(8):
            chord = random_insert_chord(chain, rng.choice((2, 3)), rng)
            if chord is None:
                break
            chain = apply_chord(chain, chord)
            if chain.n_crossings > 150:
                break
            out.append((f"{name}+{step}", chain))
    return out


def test_v2_v3_golden(knots):
    # Recorded with the census above; v3 only up to 60 crossings.
    lines = []
    for label, d in _golden_diagrams(knots):
        third = v3(d) if d.n_crossings <= 60 else "-"
        lines.append(f"{label} {d.n_crossings} {v2(d)} {third}")
    assert len(lines) == 341
    assert max(int(line.split()[1]) for line in lines) == 146
    assert sum(not line.endswith("-") for line in lines) == 247
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "62e1d652ad2ceb5d46688a3a744dc2d28542ce238bdb6260a43d9815d2e53542"


def test_v2_equals_conway_on_large_family_members(large_family_members):
    # The Gauss and Conway routes are independent; compare them well above
    # corpus size, on members of seeded (3, 2, 2) families.
    sizes = []
    for name, subset, member in large_family_members:
        sizes.append(member.n_crossings)
        assert v2(member) == v2_conway(member), (name, sorted(subset))
    assert len(sizes) == 58 and min(sizes) == 30 and max(sizes) == 37
