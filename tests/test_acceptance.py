"""Acceptance suite: every criterion is exact (tolerance zero) at desk scale.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import random
import time

import pytest

from knotmoves.corpus import corpus
from knotmoves.diagram import Diagram
from knotmoves.finitetype import (alternating_sum, delta_v2_witness,
                                  move_invariance_report, verify_type)
from knotmoves.gauss import v2, v3
from knotmoves.invariants import conway, jones, v2_conway
from knotmoves.moves import random_perturb
from knotmoves.search import bfs_path, delta_unknot, replay_path
from knotmoves.templates import (Chord, SingularFamily, builtin_templates,
                                 realize_by_lower, replay_tangle_script)
from polyops import pmul

KNOTS = corpus(include_unknot=True)
SMALL = corpus(max_crossings=7, include_unknot=True)


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_cross_validation():
    """v2 (Gauss count) equals the Conway z^2 coefficient corpus-wide."""
    t0 = time.time()
    assert len([d for d in KNOTS.values() if d.n_crossings <= 9]) >= 20
    for name, d in KNOTS.items():
        assert d.n_crossings <= 9
        assert v2(d) == v2_conway(d), name
    elapsed = time.time() - t0
    assert elapsed < 30
    _report(1, f"v2 == [z^2]conway on {len(KNOTS)} knots in {elapsed:.1f}s")


def test_criterion_2_finite_type_condition():
    """Type B(2,2,2) kills v2 and type B(2,2,2,2) kills v3, exactly."""
    t0 = time.time()
    recs2 = verify_type("v2", (2, 2, 2), 200, seed=42, bases=SMALL)
    assert len(recs2) == 200
    assert all(r.sum == 0 for r in recs2)
    recs3 = verify_type("v3", (2, 2, 2, 2), 100, seed=4242, bases=SMALL)
    assert len(recs3) == 100
    assert all(r.sum == 0 for r in recs3)
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(2, f"200 B(2,2,2)/v2 and 100 B(2,2,2,2)/v3 sums all zero in {elapsed:.1f}s")


def test_criterion_3_mixed_orders():
    """Type B(3,2) kills v2: the projection-composed invariant is finite type."""
    recs = verify_type("v2", (3, 2), 100, seed=77, bases=SMALL)
    assert len(recs) == 100
    assert all(r.sum == 0 for r in recs)
    _report(3, "100 B(3,2)/v2 alternating sums all zero")


def test_criterion_4_necessity_and_sharpness():
    """Order-4 moves never move v2; an order-3 move with |dv2| = 1 exists."""
    names = sorted(n for n, d in SMALL.items() if d.crossings)
    applied = 0
    idx = 0
    while applied < 100:
        name = names[idx % len(names)]
        rep = move_invariance_report(SMALL[name], l=3, n_moves=5, seed=1000 + idx)
        assert rep["pass"], (name, rep["v2_deltas_seen"])
        n_steps = len([s for s in rep["steps"] if "delta" in s])
        assert n_steps > 0
        applied += n_steps
        idx += 1
    witness = delta_v2_witness(SMALL, seed=7)
    assert witness is not None and abs(witness["delta_v2"]) == 1
    _report(4, f"{applied} order-4 insertions kept v2 fixed; "
               f"order-3 witness dv2={witness['delta_v2']}")


def test_criterion_5_type_bound_sharpness():
    """A concrete type-B(2,2) family with nonzero v2 alternating sum."""
    trefoil = KNOTS["3_1"]
    fam = SingularFamily(trefoil, (Chord(2, "switch", (0,)),
                                   Chord(2, "switch", (1,))))
    s = alternating_sum(fam, "v2")
    assert s == 1
    _report(5, f"B(2,2) family on 3_1 (two crossing switches) has sum {s}")


def test_criterion_6_invariance_and_structure():
    """R-move invariance, additivity/multiplicativity, mirror symmetry."""
    rng = random.Random(2024)
    names = sorted(KNOTS)
    moves_done = 0
    while moves_done < 500:
        name = names[rng.randrange(len(names))]
        d = KNOTS[name]
        steps = rng.randrange(4, 10)
        p = random_perturb(d, steps, seed=rng.randrange(10 ** 6), max_extra=4)
        moves_done += steps
        assert v2(p) == v2(d), name
        assert v3(p) == v3(d), name
        assert conway(p) == conway(d), name
        assert jones(p) == jones(d), name

    for _ in range(50):
        a, b = rng.choice(names), rng.choice(names)
        s = KNOTS[a].connected_sum(KNOTS[b])
        assert v2(s) == v2(KNOTS[a]) + v2(KNOTS[b])
        assert v3(s) == v3(KNOTS[a]) + v3(KNOTS[b])
        assert jones(s) == pmul(jones(KNOTS[a]), jones(KNOTS[b]))

    for name, d in KNOTS.items():
        m = d.mirror()
        assert v2(m) == v2(d), name
        assert v3(m) == -v3(d), name
    _report(6, f"{moves_done} R-moves invariant; 50 sums additive/multiplicative; "
               "mirror parity corpus-wide")


def test_criterion_7_constructive_searches():
    """One-switch unknotting of the trefoil; delta route for >= 80% of corpus."""
    trefoil = KNOTS["3_1"]
    res = bfs_path(trefoil, Diagram.unknot(), {"B2"})
    assert res.found and res.moves_used == 1
    assert replay_path(trefoil, res.script, "unknot")

    total, hits = 0, 0
    failures = []
    for name, d in SMALL.items():
        if d.n_crossings > 7:
            continue
        total += 1
        r = delta_unknot(d, budget=3000)
        if r.found:
            hits += 1
            if d.crossings:
                assert replay_path(d, r.script, "unknot"), name
        else:
            assert r.note == "budget exhausted"
            failures.append(name)
    rate = hits / total
    assert rate >= 0.8, failures
    _report(7, f"trefoil unknotted by one order-2 move; delta route found for "
               f"{hits}/{total} knots (failures are budget artifacts: {failures})")


def test_criterion_8_certificates():
    """Brunnian certificates and the order-2 realization of the flip replay."""
    templates = builtin_templates()
    for k, tpl in sorted(templates.items()):
        certs = tpl.brunnian_certificates()
        assert tpl.verify_certificates(certs), tpl.name
        assert set(certs["pair"]) == set(range(k))
    script = realize_by_lower(templates[3], 2, budget=50_000)
    assert script is not None
    assert replay_tangle_script(templates[3], script)
    _report(8, "all Brunnian certificates replay; triangle flip realized by "
               f"{sum(1 for e in script if e[0] == 'switch')} crossing switches")
