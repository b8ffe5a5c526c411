import random

from knotmoves.finitetype import (alternating_sum, delta_v2_witness, group_checks,
                                  random_family, move_invariance_report, verify_type)
from knotmoves.gauss import v2, v3
from knotmoves.templates import Chord, SingularFamily, builtin_templates, family


def test_family_expansion_shape(left_trefoil):
    rng = random.Random(2)
    fam = random_family(left_trefoil, (2, 2, 2), rng)
    assert fam is not None
    out = family(fam)
    assert len(out) == 8
    assert out[frozenset()].canonical_key == left_trefoil.canonical_key


def test_family_condition_four_structurally(left_trefoil):
    """K_P matches K_full on chord i's inserted crossings iff i is in P."""
    rng = random.Random(8)
    fam = None
    while fam is None or any(c.kind != "insert" for c in fam.chords):
        fam = random_family(left_trefoil, (2, 2), rng, allow_switch=False)
    out = family(fam)
    # K_P holds chord i's inserted crossings iff i is in P; edge labels are
    # not shared between members, so count them
    sizes = [builtin_templates()[c.k].insertion(c.variant).n_crossings
             for c in fam.chords]
    for subset, diagram in out.items():
        assert diagram.n_crossings == \
            left_trefoil.n_crossings + sum(sizes[i] for i in subset)
    # diagrams agree outside all chords: base crossings not on cut edges persist
    cut = {s[0] for c in fam.chords for s in c.sites}
    outside = [c for c in left_trefoil.crossings if not set(c.ends) & cut]
    for diagram in out.values():
        assert all(c in diagram.crossings for c in outside)


def test_alternating_sum_constant_invariant_vanishes(left_trefoil):
    rng = random.Random(3)
    fam = random_family(left_trefoil, (2, 2), rng)
    total = sum((-1) ** len(p) for p in family(fam))
    assert total == 0  # phi = 1 is type B(2,2)


def test_alternating_sum_single_switch(left_trefoil):
    # one order-2 chord at an unknotting crossing: sum = v2(3_1) - v2(unknot)
    fam = SingularFamily(left_trefoil, (Chord(2, "switch", (0,)),))
    assert alternating_sum(fam, "v2") == 1


def test_b22_sharpness_witness(left_trefoil):
    fam = SingularFamily(left_trefoil,
                         (Chord(2, "switch", (0,)), Chord(2, "switch", (1,))))
    assert alternating_sum(fam, "v2") == 1


def test_verify_type_small_runs(small_knots):
    recs = verify_type("v2", (2, 2, 2), 25, seed=11, bases=small_knots)
    assert len(recs) == 25
    assert all(r.sum == 0 for r in recs)
    recs = verify_type("v3", (2, 2, 2, 2), 10, seed=12, bases=small_knots)
    assert all(r.sum == 0 for r in recs)
    recs = verify_type("v2", (3, 2), 15, seed=13, bases=small_knots)
    assert all(r.sum == 0 for r in recs)


def test_verify_type_deeper_orders(small_knots):
    for phi, orders, trials in [("v2", (4, 2), 8), ("v3", (3, 2, 2), 8),
                                ("v3", (3, 3), 6), ("v3", (4, 2), 6)]:
        recs = verify_type(phi, orders, trials, seed=29, bases=small_knots)
        assert all(r.sum == 0 for r in recs), (phi, orders)


def test_move_invariance_report_order4(small_knots):
    rep = move_invariance_report(small_knots["5_2"], l=3, n_moves=8, seed=21)
    assert rep["pass"]
    assert rep["v2_deltas_seen"] in ([], [0])


def test_order3_witness(small_knots):
    w = delta_v2_witness(small_knots, seed=7)
    assert w is not None and abs(w["delta_v2"]) == 1


def test_zero_moves_trivially_pass(small_knots):
    rep = move_invariance_report(small_knots["3_1"], l=3, n_moves=0, seed=1)
    assert rep["pass"] and rep["steps"] == []


def test_group_checks(small_knots):
    rep = group_checks(small_knots, pairs=15, seed=3)
    assert rep["pass"]
    # trefoil + figure-eight kills v2 (order-4-level inverse)
    assert v2(small_knots["3_1"]) + v2(small_knots["4_1"]) == 0
    assert ["3_1", "4_1"] in rep["inverses"]["v2_level"] \
        or ["4_1", "3_1"] in rep["inverses"]["v2_level"]


def test_reports_deterministic(small_knots):
    a = verify_type("v2", (2, 2), 10, seed=5, bases=small_knots)
    b = verify_type("v2", (2, 2), 10, seed=5, bases=small_knots)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]
    # B(2,2) sums need not vanish (sharpness); both runs agree on values
    assert [r.sum for r in a] == [r.sum for r in b]


def test_family_json_round_trip(left_trefoil):
    import json

    rng = random.Random(14)
    fam = None
    while fam is None:
        fam = random_family(left_trefoil, (3, 2), rng)
    blob = json.dumps(fam.to_json())
    again = SingularFamily.from_json(json.loads(blob))
    assert again.orders == fam.orders
    assert alternating_sum(again, "v2") == alternating_sum(fam, "v2") == 0


def test_families_on_larger_bases():
    from knotmoves.corpus import corpus

    big = {k: v for k, v in corpus(include_unknot=False).items()
           if v.n_crossings >= 8}
    recs = verify_type("v2", (2, 2, 2), 12, seed=31, bases=big)
    assert all(r.sum == 0 for r in recs)
    recs = verify_type("v3", (2, 2, 2, 2), 8, seed=32, bases=big)
    assert all(r.sum == 0 for r in recs)


def _ranked(d):
    """Crossings, free loops and basepoint with each edge id replaced by its rank."""
    rank = {e: r for r, e in enumerate(d.edges())}
    return ([[rank[e] for e in c.ends] for c in d.crossings], d.free_loops,
            rank.get(d.basepoint, d.basepoint))


def test_glue_labelling_up_to_rank_is_golden(small_knots):
    """Family members and chained chord steps, edge ids replaced by rank.

    Only the relative order of edge ids reaches an output: the slot order,
    the face walks, the min-edge basepoint and every seeded site draw that
    reads them.  The digest was recorded under a numbering that shared id
    blocks across a family's members; any numbering that keeps host edges
    < cut pieces < blobs, in chord order, gives the same ranks.
    """
    import hashlib
    import json

    from knotmoves.templates import apply_chord, random_insert_chord

    lines = []
    for orders in ((2, 2, 2), (3, 2), (4, 4, 3)):
        rng = random.Random(sum(orders))
        for name in sorted(small_knots):
            fam = random_family(small_knots[name], orders, rng)
            if fam is None:
                lines.append(json.dumps([name, orders, None]))
                continue
            for subset, d in sorted(family(fam).items(), key=lambda kv: sorted(kv[0])):
                lines.append(json.dumps([name, orders, sorted(subset), _ranked(d)]))
    for name in sorted(small_knots):
        rng = random.Random(5)
        current = small_knots[name]
        for step in range(4):
            chord = random_insert_chord(current, rng.choice((2, 3, 4)), rng)
            if chord is None:
                lines.append(json.dumps([name, step, None]))
                break
            current = apply_chord(current, chord)
            lines.append(json.dumps([name, step, chord.k, chord.variant,
                                     _ranked(current)]))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "14acf87ed5eda215d4c0a9bd5393bc372e6ae4dc9ae1fa854e03f1bc8fe42042"
