import json
import random

import pytest

from knotmoves.diagram import Diagram, MalformedDiagram
from knotmoves.finitetype import (alternating_sum, delta_v2_witness, group_checks,
                                  random_family, move_invariance_report, verify_type)
from knotmoves.gauss import v2, v3
from knotmoves.templates import (Chord, InvalidSite, SingularFamily, band_sum,
                                 builtin_templates, family)


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
        fam = random_family(left_trefoil, (2, 2), rng)
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
    assert set(rep) == {"l", "steps", "v2_deltas_seen", "pass"}
    assert rep["v2_deltas_seen"] in ([], [0])


def test_move_invariance_report_glues_once_per_move(monkeypatch, small_knots):
    """Each move glues its drawn chord once: the sampler glues nothing."""
    from knotmoves import templates

    glue = templates._glue_many
    glues = []

    def counting_glue(d, inserts):
        glues.append(len(inserts))
        return glue(d, inserts)

    monkeypatch.setattr(templates, "_glue_many", counting_glue)
    for name, seed in (("5_2", 21), ("3_1", 4), ("4_1", 9)):
        for l in (2, 3):
            glues.clear()
            rep = move_invariance_report(small_knots[name], l=l, n_moves=6, seed=seed)
            moves = sum("delta" in step for step in rep["steps"])
            assert moves == 6 and glues == [1] * moves, (name, l)


def test_order3_witness(small_knots):
    w = delta_v2_witness(small_knots, seed=7)
    assert w is not None and abs(w["delta_v2"]) == 1


def test_zero_moves_trivially_pass(small_knots):
    rep = move_invariance_report(small_knots["3_1"], l=3, n_moves=0, seed=1)
    assert rep["pass"] and rep["steps"] == []


def test_order3_report_passes_only_when_a_move_changes_v2(monkeypatch, small_knots, unknot):
    """For l = 2 the report exhibits sharpness: with no move, or with moves
    that leave v2 alone, there is nothing to exhibit."""
    from knotmoves import gauss

    for d in (small_knots["3_1"], unknot):
        rep = move_invariance_report(d, l=2, n_moves=3, seed=1)
        assert rep["pass"] and len(rep["steps"]) == 3
        assert any(rep["v2_deltas_seen"]), rep
        rep = move_invariance_report(d, l=2, n_moves=0, seed=1)
        assert not rep["pass"] and rep["steps"] == []
    monkeypatch.setattr(gauss, "v2", lambda d: 0)
    rep = move_invariance_report(small_knots["3_1"], l=2, n_moves=3, seed=1)
    assert len(rep["steps"]) == 3 and rep["v2_deltas_seen"] == [0] and not rep["pass"]


def test_group_checks(small_knots):
    rep = group_checks(small_knots, pairs=15, seed=3)
    assert rep["pass"]
    # trefoil + figure-eight kills v2 (order-4-level inverse)
    assert v2(small_knots["3_1"]) + v2(small_knots["4_1"]) == 0
    assert ["3_1", "4_1"] in rep["inverses"]["v2_level"] \
        or ["4_1", "3_1"] in rep["inverses"]["v2_level"]


def test_group_checks_report_only_the_verdict_and_inverses(small_knots):
    assert set(group_checks(small_knots, pairs=3, seed=1)) == {"pass", "inverses"}


def test_group_checks_fail_on_a_non_additive_v2(monkeypatch, small_knots):
    from knotmoves import gauss

    # Crossing counts add under connected sum, so their squares do not; sums
    # still commute and associate, and the unknot is still an identity.
    monkeypatch.setattr(gauss, "v2", lambda d: d.n_crossings ** 2)
    assert not group_checks(small_knots, pairs=15, seed=3)["pass"]
    assert group_checks(small_knots, pairs=0, seed=3)["pass"]


def test_group_checks_fail_on_an_order_dependent_v2(monkeypatch, small_knots):
    from knotmoves import gauss

    # The sign of the first chord from the basepoint comes from the first
    # summand of a connected sum, so it tells a#b from b#a but keeps
    # associativity and the unknot as identity.  With no additive pairs
    # drawn, only the commutativity checks can see it.
    def first_sign(d):
        return d.gauss_chords[0][3] if d.crossings else 0

    monkeypatch.setattr(gauss, "v2", first_sign)
    assert not group_checks(small_knots, pairs=0, seed=3)["pass"]
    names = sorted(small_knots)
    for a, b, c in zip(names, names[3:] + names[:3], names[7:] + names[:7]):
        x, y, z = small_knots[a], small_knots[b], small_knots[c]
        assert first_sign(x.connected_sum(y).connected_sum(z)) \
            == first_sign(x.connected_sum(y.connected_sum(z)))
        assert first_sign(Diagram.unknot().connected_sum(x)) == first_sign(x)


def test_reports_deterministic(small_knots):
    a = verify_type("v2", (2, 2), 10, seed=5, bases=small_knots)
    b = verify_type("v2", (2, 2), 10, seed=5, bases=small_knots)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]
    # B(2,2) sums need not vanish (sharpness); both runs agree on values
    assert [r.sum for r in a] == [r.sum for r in b]


def test_family_json_round_trip(left_trefoil):
    rng = random.Random(14)
    fam = None
    while fam is None:
        fam = random_family(left_trefoil, (3, 2), rng)
    blob = json.dumps(fam.to_json())
    again = SingularFamily.from_json(json.loads(blob))
    assert again.orders == fam.orders
    assert alternating_sum(again, "v2") == alternating_sum(fam, "v2") == 0
    # fields that used to raise KeyError or TypeError, or pass as variant 1
    for edit in ({"template_k": 5}, {"variant": "1"}, {"variant": True}):
        obj = json.loads(blob)
        obj["chords"][0].update(edit)
        with pytest.raises(InvalidSite, match="malformed chord"):
            SingularFamily.from_json(obj)
    # well-formed rewrite chords naming a crossing the base lacks (it has 3)
    for chord in ({"template_k": 2, "kind": "switch", "sites": [7]},
                  {"template_k": 3, "kind": "delta", "sites": [0, 1, 9, 1, 2, 3]}):
        obj = json.loads(blob)
        obj["chords"][0] = chord
        bad = SingularFamily.from_json(obj)
        with pytest.raises(InvalidSite, match="no crossing [79]"):
            alternating_sum(bad, "v2")


@pytest.mark.parametrize("edit", [
    {"template_k": 5}, {"variant": "1"}, {"variant": True}, {"template_k": True},
    {"kind": "flip"}, {"kind": "switch"}, {"sites": [[1, 2]]}, {"sites": [[1, 2, 2]]},
    {"sites": [[1, 2, 0], [1, True, 0]]}, {"sites": [[1, 2, 0], [-1, 3, 0]]},
    {"sites": "0"}, {"variant": 2}, {"variant": -1}])
def test_chord_json_rejects_malformed_fields(edit):
    good = {"template_k": 2, "kind": "insert", "variant": 1, "sites": [[1, 2, 0], [1, 3, 0]]}
    assert Chord.from_json(good) == Chord(2, "insert", ((1, 2, 0), (1, 3, 0)), 1)
    with pytest.raises(InvalidSite, match="malformed chord"):
        Chord.from_json({**good, **edit})


def test_rewrite_chord_json_round_trip():
    for chord in (Chord(2, "switch", (1,)), Chord(3, "delta", (0, 1, 2, 3, 4, 5))):
        assert Chord.from_json(json.loads(json.dumps(chord.to_json()))) == chord
    for bad in ({"template_k": 2, "kind": "switch", "sites": [-1]},
                {"template_k": 3, "kind": "switch", "sites": [1]},
                {"template_k": 3, "kind": "delta", "sites": [0, 1, 2]}):
        with pytest.raises(InvalidSite, match="malformed chord"):
            Chord.from_json(bad)


def _two_branch_random_family(base, orders, rng):
    """random_family as it was with one branch per rewrite kind (the reference)."""
    from knotmoves.moves import InapplicableMove, triangle_slide_sites
    from knotmoves.templates import random_insert_chord

    chords = []
    used_crossings, rewrite_edges, insert_edges = set(), set(), set()
    for idx, k in enumerate(orders):
        chord = None
        if k == 2 and base.n_crossings and rng.random() < 0.5:
            free = [ci for ci in range(base.n_crossings)
                    if ci not in used_crossings
                    and not (set(base.crossings[ci].ends) & insert_edges)]
            if free:
                chord = Chord(2, "switch", (free[rng.randrange(len(free))],))
        if chord is None and k == 3 and base.n_crossings and rng.random() < 0.25:
            deltas = []
            for s in triangle_slide_sites(base, "delta"):
                delta = Chord(3, "delta", s[1:])
                edges, cis = delta.touched(base)
                if not (cis & used_crossings or edges & insert_edges):
                    deltas.append(delta)
            if deltas:
                chord = deltas[rng.randrange(len(deltas))]
        if chord is None:
            chord = random_insert_chord(base, k, rng, rewrite_edges, offset_base=4 * idx)
        if chord is None:
            return None
        e, x = chord.touched(base)
        if chord.kind == "insert":
            insert_edges |= e
        else:
            used_crossings |= x
            rewrite_edges |= e
        chords.append(chord)
    fam = SingularFamily(base, tuple(chords))
    try:
        fam._plan
    except (InvalidSite, InapplicableMove, MalformedDiagram):
        return None
    return fam


def test_random_family_matches_the_two_branch_reference(small_knots):
    """One rewrite branch draws the same chords, and leaves the rng in the
    same state, as one branch for switches and one for flips."""
    from collections import Counter

    seen: Counter = Counter()
    for orders in ((2, 2, 2), (3, 2), (3, 2, 2), (2, 2, 2, 2), (4, 4, 3)):
        for seed in range(5):
            want_rng, got_rng = random.Random(seed), random.Random(seed)
            for name, base in sorted(small_knots.items()):
                want = _two_branch_random_family(base, orders, want_rng)
                got = random_family(base, orders, got_rng)
                assert (got and got.chords) == (want and want.chords), (orders, seed, name)
                assert got_rng.getstate() == want_rng.getstate()
                seen.update([c.kind for c in got.chords] if got else ["none"])
    assert seen["insert"] and seen["switch"] and seen["delta"] and seen["none"], seen


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


def test_every_enumerated_chord_applies_as_golden(small_knots):
    """apply_chord on every chord enumerate_sites lists for k = 2, 3, 4 on
    the small corpus (the unknot included), edge ids replaced by rank and a
    refusal recorded as None.  The digest was recorded when insertions and
    rewrites still had their own branches in apply_chord."""
    import hashlib

    from knotmoves.templates import apply_chord, enumerate_sites

    lines = []
    for name in sorted(small_knots):
        d = small_knots[name]
        for k in (2, 3, 4):
            for chord in enumerate_sites(d, k):
                try:
                    got = _ranked(apply_chord(d, chord))
                except (InvalidSite, MalformedDiagram):
                    got = None
                lines.append(json.dumps([name, k, chord.to_json(), got]))
    assert len(lines) == 22874
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "ca10f123d715806cf40d692d658103dece9e1b26f8c55fdc99d8e0e9fba4c87f"


def _finger_order(d, chord):
    """The chord's site indices in the face-walk order its fingers attach by."""
    where = {dart: pos for walk in d.face_walks() for pos, dart in enumerate(walk)}
    return sorted(range(len(chord.sites)),
                  key=lambda i: (where[chord.sites[i][0], chord.sites[i][2]],
                                 chord.sites[i][1] * (1 - 2 * chord.sites[i][2])))


def test_plan_members_match_per_subset_band_sum(small_knots):
    """Every member spliced from a family's one glue plan is the band sum of
    its own chords, in canonical key and in records up to edge-id rank.

    The plan cuts a host that carries every rewrite, while the band sum of a
    subset cuts a host that carries only the subset's rewrites, so rewrites
    must never rotate the walk order that an insertion's fingers attach by.
    """
    from itertools import combinations

    from knotmoves.templates import apply_chord

    names = sorted(small_knots)
    seen = {"members": 0, "unknot": 0, "mixed": 0, "shared_edge": 0, "rank_checks": 0}
    for orders in ((2, 2, 2), (2, 2, 2, 2), (3, 2), (4, 4, 3), (3, 3, 2), (2, 2)):
        for seed in range(40):
            rng = random.Random(seed)
            name = names[rng.randrange(len(names))]
            fam = random_family(small_knots[name], orders, rng)
            if fam is None:
                continue
            for subset, d in family(fam).items():
                want = band_sum(fam.base, [fam.chords[i] for i in sorted(subset)])
                assert d.canonical_key == want.canonical_key, (name, orders, seed, subset)
                assert _ranked(d) == _ranked(want), (name, orders, seed, subset)
                seen["members"] += 1
            inserts = [c for c in fam.chords if c.kind == "insert"]
            rewrites = [c for c in fam.chords if c.kind != "insert"]
            seen["unknot"] += name == "unknot"
            seen["mixed"] += {c.kind for c in fam.chords} == {"switch", "delta", "insert"}
            seen["shared_edge"] += any({s[0] for s in a.sites} & {s[0] for s in b.sites}
                                       for a, b in combinations(inserts, 2))
            for r in range(1, len(rewrites) + 1):
                for chosen in combinations(rewrites, r):
                    host = fam.base
                    for c in chosen:
                        host = apply_chord(host, c)
                    for c in inserts:
                        assert _finger_order(host, c) == _finger_order(fam.base, c)
                        seen["rank_checks"] += 1
    assert seen["members"] > 1500
    assert min(seen.values()) > 0, seen


def test_member_tables_match_spliced_members(small_knots):
    """The chord table that the glue plan reads off the full member for each
    member is the table of the member that family() splices, up to rotation
    and reversal: the same Gauss pattern, v2 and v3.  Left-out insertions,
    switches and flips are all met, and so is a left-out flip whose swap
    crosses the full member's walk start, which the trefoil's own flips do."""
    from collections import Counter

    from knotmoves.diagram import _chord_pattern
    from knotmoves.gauss import _v2_count, _v3_count
    from knotmoves.templates import rewrite_chords

    def starts_on_a_side(full, chord):
        """Whether the walk of ``full`` starts on a side edge of a flip."""
        return full._slots[1][full.knot_walk[0]][0] in chord.sites[3:]

    def check(fam, seen):
        full, _, table = fam._plan
        for subset, d in family(fam).items():
            got = table(subset)
            assert [row[0] for row in got] == sorted(row[0] for row in got)
            assert all(f < g for f, g, _, _ in got)
            assert (_chord_pattern(got), _v2_count(got), _v3_count(got)) == \
                (d.gauss_pattern, v2(d), v3(d)), (fam.to_json(), sorted(subset))
            seen["members"] += 1
            for i, c in enumerate(fam.chords):
                if i not in subset:
                    seen[c.kind] += 1
                    seen["wrapped"] += c.kind == "delta" and starts_on_a_side(full, c)

    trefoil = small_knots["3_1"]
    own = Counter()
    for chord in rewrite_chords(trefoil, 3):
        check(SingularFamily(trefoil, (chord,)), own)
    assert own["delta"] > 0 and own["wrapped"] > 0, own
    names = sorted(small_knots)
    seen: Counter = Counter()
    for orders in ((2, 2, 2), (2, 2, 2, 2), (3, 2), (3,), (3, 3), (4, 2), (3, 3, 2), (4, 4, 3)):
        for seed in range(60):
            rng = random.Random(seed)
            fam = random_family(small_knots[names[rng.randrange(len(names))]], orders, rng)
            if fam is not None:
                check(fam, seen)
    # seeds 0-59 give 3,076 members, with 2,987 insertions, 1,510 switches
    # and 103 flips left out, 36 of those flips across the walk's start
    assert seen["members"] > 2500 and seen["wrapped"] > 20, seen
    assert seen["insert"] > 2000 and seen["switch"] > 1000 and seen["delta"] > 80, seen


def test_each_draw_glues_its_full_set_once(monkeypatch):
    """verify_type builds one glue plan per drawn family, rejected draws
    included; each plan glues the full chord set once, and the alternating
    sum reads every member's chord table off it, splicing no member and
    calling no band_sum.  Nothing else glues: the chord sampler returns its
    draws unglued."""
    from collections import Counter
    from functools import cached_property

    from knotmoves import finitetype, templates
    from knotmoves.corpus import corpus

    counts: Counter = Counter()
    glue, plan = templates._glue_many, templates.SingularFamily._plan.func

    def counting_glue(d, chords):
        counts["glues"] += 1
        if not counts["planning"]:
            return glue(d, chords)
        counts["plan_glues"] += 1
        full, member, table = glue(d, chords)
        counts["full"] += 1

        def counting_member(subset):
            counts["full" if all(i in subset for i in range(len(chords))) else "part"] += 1
            return member(subset)
        return full, counting_member, table

    def counting_plan(self):
        counts["plans"] += 1
        counts["planning"] += 1
        try:
            return plan(self)
        finally:
            counts["planning"] -= 1

    def counting_family(*args):
        counts["drawn"] += 1
        return SingularFamily(*args)

    def no_band_sum(*args):
        counts["band_sum"] += 1

    prop = cached_property(counting_plan)
    prop.__set_name__(SingularFamily, "_plan")
    monkeypatch.setattr(SingularFamily, "_plan", prop)
    monkeypatch.setattr(templates, "_glue_many", counting_glue)
    monkeypatch.setattr(templates, "band_sum", no_band_sum)
    monkeypatch.setattr(finitetype, "SingularFamily", counting_family)
    recs = verify_type("v2", (2, 2, 2), 50, seed=11,
                       bases=corpus(max_crossings=7, include_unknot=True))
    assert len(recs) == 50 and all(r.sum == 0 for r in recs)
    assert counts["band_sum"] == 0
    assert counts["glues"] == counts["plan_glues"] == counts["plans"] == counts["drawn"] >= 50
    assert 50 <= counts["full"] <= counts["plan_glues"]
    assert counts["part"] == 0
