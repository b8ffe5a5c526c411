import random

import pytest

from knotmoves.diagram import Crossing, Diagram, MalformedDiagram
from knotmoves.gauss import v2
from knotmoves.invariants import v2_conway
from knotmoves.moves import simplify
from knotmoves.tangles import Builder, Tangle, clasp_word, tangle_key
from knotmoves.templates import (Chord, InvalidSite, _face_slots, apply_chord, band_sum,
                                 builtin_templates, enumerate_sites, random_insert_chord,
                                 realize_by_lower, replay_tangle_script)


def test_builder_through_form():
    t = Builder(2).cross(0, True).through()
    assert t.strand_legs() == [(0, 2), (1, 3)]
    assert t.n_crossings == 1


def test_builder_finger_form():
    t = Builder(4).word(clasp_word(4, 0, 2, True)).fingers()
    assert t.is_finger_form()
    assert t.n_crossings == 4


def test_component_count_on_tangles():
    # A full twist: both strands run leg to leg through both crossings.
    t = Builder(2).word([(0, True), (0, True)]).through()
    assert t.component_count() == 2
    assert t.closed_components() == []


def test_tangle_key_sees_closed_components():
    bare = Tangle([Crossing((1, 3, 2, 4))], [1, 2, 3, 4])
    kinked = Tangle([Crossing((1, 3, 2, 4)), Crossing((5, 5, 6, 6))], [1, 2, 3, 4])
    assert kinked.component_count() == 3
    assert tangle_key(bare) != tangle_key(kinked)


def test_delete_strand_smooths():
    t = Builder(4).word(clasp_word(4, 0, 2, True)).fingers()
    for s in range(2):
        d = t.delete_strand(s)
        assert d.n_crossings == 0


def test_builtin_templates_brunnian():
    templates = builtin_templates()
    assert set(templates) == {2, 3, 4}
    for k, tpl in templates.items():
        certs = tpl.brunnian_certificates()
        assert tpl.verify_certificates(certs)
        assert len(certs["pair"]) == k
        for per in certs["insertion"].values():
            assert len(per) == k


def test_insertion_blobs_resist_simplification():
    # the blob is genuine knotting content: R-moves alone must not erase it
    for k, tpl in builtin_templates().items():
        reduced, _ = simplify(tpl.insertion(0), r3_budget=200)
        assert reduced.n_crossings > 0, k


def test_hook_into_unknot(unknot):
    d = apply_chord(unknot, Chord(2, "insert", ((0, 1, 0), (0, 2, 0))))
    d.validate()
    assert d.is_planar()
    assert simplify(d)[0].canonical_key == "unknot"


def test_enumerate_sites_unknot_nonempty(unknot):
    chords = enumerate_sites(unknot, 2)
    assert chords
    assert all(c.kind == "insert" for c in chords)


def test_enumerate_sites_trefoil_switches(left_trefoil):
    chords = enumerate_sites(left_trefoil, 2)
    switches = [c for c in chords if c.kind == "switch"]
    assert len(switches) == 3


def test_enumerate_sites_monotone(unknot, left_trefoil, knots):
    # site counts grow with diagram size
    a = len(enumerate_sites(unknot, 2, cap=100000))
    b = len(enumerate_sites(left_trefoil, 2, cap=100000))
    c = len(enumerate_sites(knots["5_2"], 2, cap=100000))
    assert a < b < c


def test_apply_chord_is_local(left_trefoil):
    chord = enumerate_sites(left_trefoil, 2, cap=60)[10]
    if chord.kind != "insert":
        chord = next(c for c in enumerate_sites(left_trefoil, 2, cap=60)
                     if c.kind == "insert")
    d = apply_chord(left_trefoil, chord)
    cut = {s[0] for s in chord.sites}
    # crossings not incident to a cut edge are bit-identical
    before = [c for c in left_trefoil.crossings if not set(c.ends) & cut]
    assert all(c in d.crossings for c in before)
    assert d.n_crossings == left_trefoil.n_crossings + 2


def test_apply_chord_rejects_bad_sites(left_trefoil):
    with pytest.raises(InvalidSite, match="^insertion would leave the plane$"):
        # sides chosen on different faces
        apply_chord(left_trefoil, Chord(2, "insert", ((1, 1, 0), (1, 2, 1))))
    with pytest.raises((InvalidSite, MalformedDiagram)):
        apply_chord(left_trefoil, Chord(2, "switch", (99,)))


def test_unknown_chord_kind_is_an_invalid_site(left_trefoil):
    flip = Chord(2, "flip", (0,))
    with pytest.raises(InvalidSite, match="^unknown move 'flip'$"):
        apply_chord(left_trefoil, flip)
    # the pair rule reads the chords' kinds before any rewrite applies
    with pytest.raises(InvalidSite, match="^unknown chord kind 'flip'$"):
        band_sum(left_trefoil, [flip, Chord(2, "switch", (1,))])


def test_band_sum_empty_and_single(left_trefoil):
    assert band_sum(left_trefoil, []) is left_trefoil
    chord = next(c for c in enumerate_sites(left_trefoil, 2) if c.kind == "insert")
    assert band_sum(left_trefoil, [chord]).crossings == \
        apply_chord(left_trefoil, chord).crossings


def test_band_sum_order_independent(left_trefoil):
    rng = random.Random(4)
    c1 = random_insert_chord(left_trefoil, 2, rng)
    used = {s[0] for s in c1.sites}
    c2 = random_insert_chord(left_trefoil, 2, rng, used_edges=used)
    d_ab = band_sum(left_trefoil, [c1, c2])
    d_ba = band_sum(left_trefoil, [c2, c1])
    assert d_ab.crossings == d_ba.crossings


def test_band_sum_detects_overlap(left_trefoil):
    chord = next(c for c in enumerate_sites(left_trefoil, 2) if c.kind == "insert")
    with pytest.raises(InvalidSite):
        band_sum(left_trefoil, [chord, chord])


def test_switch_chord_at_trefoil_crossing(left_trefoil):
    d = apply_chord(left_trefoil, Chord(2, "switch", (0,)))
    assert simplify(d)[0].canonical_key == "unknot"


def test_insert_preserves_planarity_and_v2_consistency(knots):
    rng = random.Random(9)
    for k in (2, 3, 4):
        base = knots["5_2"]
        chord = random_insert_chord(base, k, rng)
        assert chord is not None
        d = apply_chord(base, chord)
        d.validate()
        assert d.is_planar()
        if k == 2:
            assert v2(d) == v2_conway(d)


def _trial_glue_sampler(d, k, rng, used_edges=None, variant=None, offset_base=0):
    """The sampler as it was when it glued each draw on trial (the reference)."""
    used_edges = used_edges or set()
    walks = [w for w in d.face_walks()
             if sum(1 for e, _ in w if e not in used_edges) >= 1]
    for _ in range(40):
        if not walks:
            return None
        walk = walks[rng.randrange(len(walks))]
        slots = _face_slots(walk, used_edges, offset_base)
        if len(slots) < k:
            continue
        picks = sorted(rng.sample(range(len(slots)), k))
        group = tuple(slots[i] for i in picks)
        v = rng.randrange(2) if variant is None else variant
        chord = Chord(k, "insert", group, v)
        try:
            apply_chord(d, chord)
        except (InvalidSite, MalformedDiagram):
            continue
        return chord
    return None


def test_sampler_draws_match_the_trial_glue_reference(knots):
    """Dropping the trial glue changes no draw and no rng state, and every
    draw glues: corpus knots, three R-perturbed copies of each, chained
    insertion hosts and the unknot, with random used edges and offsets."""
    from knotmoves.moves import random_perturb

    hosts = []
    for i, name in enumerate(sorted(knots)):
        d = knots[name]
        hosts.append(d)
        hosts.extend(random_perturb(d, 8, seed=100 * i + j) for j in range(3))
        chain_rng = random.Random(i)
        for _ in range(2):
            chord = random_insert_chord(d, chain_rng.choice((2, 3)), chain_rng)
            d = apply_chord(d, chord)
            hosts.append(d)
    pick = random.Random(17)
    seen = {"chords": 0, "none": 0, "used_edges": 0}
    for h, host in enumerate(hosts):
        edges = sorted({e for c in host.crossings for e in c.ends}) or [0]
        for k in (2, 3, 4):
            for _ in range(4):
                used = set(pick.sample(edges, pick.randrange(len(edges) + 1)))
                offset_base = pick.randrange(13)
                want_rng, got_rng = random.Random(h * 31 + k), random.Random(h * 31 + k)
                want = _trial_glue_sampler(host, k, want_rng, used, offset_base=offset_base)
                got = random_insert_chord(host, k, got_rng, used, offset_base)
                assert got == want and got_rng.getstate() == want_rng.getstate()
                seen["used_edges"] += bool(used)
                if got is None:
                    seen["none"] += 1
                    continue
                seen["chords"] += 1
                glued = apply_chord(host, got)
                assert glued.n_crossings == host.n_crossings + \
                    builtin_templates()[k].insertion(got.variant).n_crossings
    assert seen["chords"] + seen["none"] == len(hosts) * 12 > 1800
    assert min(seen.values()) > 100, seen


def test_site_samplers_reject_orders_without_a_template(left_trefoil):
    for k in (0, 1, 5, -2):
        with pytest.raises(ValueError, match="builtin templates"):
            random_insert_chord(left_trefoil, k, random.Random(1))
        with pytest.raises(ValueError, match="builtin templates"):
            enumerate_sites(left_trefoil, k)


def test_insert_chord_of_an_order_without_a_template_is_an_invalid_site(knots):
    # Five sites of one face walk, as an order-4 draw plus one more cut: the
    # glue refuses the order itself, as Chord.from_json refuses its record.
    d = knots["3_1"]
    draw = random_insert_chord(d, 4, random.Random(1))
    edge, _, side = draw.sites[-1]
    chord = Chord(5, "insert", draw.sites + ((edge, 9, side),))
    with pytest.raises(InvalidSite, match=r"^no template of order 5: builtin templates "
                                          r"exist for k in \[2, 3, 4\]$"):
        band_sum(d, [chord])
    with pytest.raises(InvalidSite):
        Chord.from_json(chord.to_json())


def test_template_inverse_returns(left_trefoil):
    # applying a switch twice restores the diagram (inverse template);
    # the record comes back gauge-rotated by two slots
    d = apply_chord(apply_chord(left_trefoil, Chord(2, "switch", (1,))),
                    Chord(2, "switch", (1,)))
    assert d.canonical_key == left_trefoil.canonical_key
    assert [c.rotated(2) if i == 1 else c for i, c in enumerate(d.crossings)] \
        == list(left_trefoil.crossings)


def test_realize_by_lower_delta():
    templates = builtin_templates()
    script = realize_by_lower(templates[3], 2, budget=50_000)
    assert script is not None
    assert sum(1 for e in script if e[0] == "switch") == 2
    assert replay_tangle_script(templates[3], script)


def test_realize_by_lower_rejects_bad_order():
    templates = builtin_templates()
    with pytest.raises(ValueError):
        realize_by_lower(templates[3], 1)
    # A template is not its own realization by order-k moves: l stays below k.
    for tpl in templates.values():
        with pytest.raises(ValueError):
            realize_by_lower(tpl, tpl.k)
    with pytest.raises(ValueError):
        realize_by_lower(templates[3], 4)


def test_chord_json_round_trip(left_trefoil):
    chord = next(c for c in enumerate_sites(left_trefoil, 3, cap=40)
                 if c.kind == "insert")
    again = Chord.from_json(chord.to_json())
    assert again == chord


def test_out_of_range_variant_is_refused(left_trefoil):
    # Each template has two insertion variants; another number names no blob.
    chord = next(c for c in enumerate_sites(left_trefoil, 2, cap=40) if c.kind == "insert")
    for variant in (0, 1):
        apply_chord(left_trefoil, Chord(2, "insert", chord.sites, variant)).validate()
    for variant in (2, 3, 7, -1):
        bad = Chord(2, "insert", chord.sites, variant)
        with pytest.raises(InvalidSite):
            apply_chord(left_trefoil, bad)
        with pytest.raises(InvalidSite):
            band_sum(left_trefoil, [bad])
        with pytest.raises(InvalidSite):  # its record is refused as well
            Chord.from_json(bad.to_json())
        with pytest.raises(InvalidSite):
            builtin_templates()[2].insertion(variant)


def test_inverse_template_is_brunnian():
    for tpl in builtin_templates().values():
        inv = tpl.inverse()
        assert inv.verify_certificates(inv.brunnian_certificates())


def test_delta_chord_requires_cyclic_pattern(left_trefoil):
    from knotmoves.moves import triangle_slide_sites, random_perturb

    # a legal R3 triangle must be rejected as an order-3 chord site
    for seed in range(20):
        p = random_perturb(left_trefoil, 12, seed=300 + seed)
        r3s = triangle_slide_sites(p, "r3")
        if r3s:
            with pytest.raises(InvalidSite):
                apply_chord(p, Chord(3, "delta", tuple(r3s[0][1:])))
            break
    else:
        pytest.skip("no legal R3 surfaced")
    # and a genuine site works
    deltas = triangle_slide_sites(left_trefoil, "delta")
    out = apply_chord(left_trefoil, Chord(3, "delta", tuple(deltas[0][1:])))
    out.validate()


def test_enumerate_sites_deterministic(left_trefoil):
    a = enumerate_sites(left_trefoil, 3, cap=130)
    b = enumerate_sites(left_trefoil, 3, cap=130)
    assert a == b
    assert len(a) <= 130 + len([c for c in a if c.kind != "insert"])


def test_realize_by_lower_golden():
    templates = builtin_templates()
    assert realize_by_lower(templates[3], 2, budget=50_000) == [
        ("switch", 0), ("r3", 1, 0, 2, 4, 3, 5), ("switch", 0)]
    # Budget limits, not disproofs: order 4 is not reached within 3000.
    assert realize_by_lower(templates[4], 2, budget=3000) is None
    assert realize_by_lower(templates[4], 3, budget=3000) is None


def test_brunnian_certificates_golden():
    import hashlib
    import json

    templates = builtin_templates()
    certs = {templates[k].name: templates[k].brunnian_certificates()
             for k in sorted(templates)}
    blob = json.dumps(certs, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        "1ced6a75ce6086fe1577b2f3041f55692af9a158795732cf1d4d8faa54f71107"


def test_tangle_key_golden():
    # Keys of every template tangle, each strand deletion of it, and the
    # simplify results of both (400 R3 expansions); the Brunnian checks compare these.
    import hashlib

    keys = []
    for k, tpl in sorted(builtin_templates().items()):
        for t in (tpl.before, tpl.after) + tpl.insertions:
            for u in [t] + [t.delete_strand(s) for s in range(k)]:
                keys.append(tangle_key(u))
                keys.append(tangle_key(simplify(u, 400)[0]))
    assert len(keys) == 96
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == \
        "9c1096ef3d423615327e8ba756149c341dd4628ccd2d3e94058576664ccc26bc"
