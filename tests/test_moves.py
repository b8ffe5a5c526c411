import pytest

from knotmoves.diagram import Diagram, parse_dt
from knotmoves.moves import (InapplicableMove, apply_move, r1_add, r1_remove,
                             r1_removal_sites, r2_add, r2_add_sites, r2_remove,
                             r2_removal_sites, random_perturb, replay, simplify,
                             simplify_with_script, triangle_slide,
                             triangle_slide_sites)


def test_r1_add_remove_round_trip(unknot, left_trefoil):
    kink = r1_add(unknot, 0, 1)
    assert kink.n_crossings == 1 and kink.signs == (1,)
    assert r1_add(unknot, 0, -1).signs == (-1,)
    assert r1_remove(kink, 0).canonical_key == "unknot"

    t1 = r1_add(left_trefoil, 1, 1)
    assert t1.n_crossings == 4 and t1.is_planar()
    site = r1_removal_sites(t1)[0]
    assert r1_remove(t1, site[1]).canonical_key == left_trefoil.canonical_key


def test_r1_remove_requires_kink(left_trefoil):
    with pytest.raises(InapplicableMove):
        r1_remove(left_trefoil, 0)


def test_r2_add_remove_round_trip(left_trefoil):
    for site in r2_add_sites(left_trefoil):
        d = r2_add(left_trefoil, *site[1:])
        d.validate()
        assert d.is_planar()
        assert d.n_crossings == 5
        removal = next(s for s in r2_removal_sites(d) if set(s[1:3]) == {3, 4})
        back = r2_remove(d, *removal[1:])
        assert back.canonical_key == left_trefoil.canonical_key


def test_r_moves_preserve_invariants(left_trefoil):
    from knotmoves.invariants import conway, jones

    j0, c0 = jones(left_trefoil), conway(left_trefoil)
    for seed in range(6):
        d = random_perturb(left_trefoil, 10, seed=seed)
        d.validate()
        assert jones(d) == j0
        assert conway(d) == c0


def test_trefoil_triangles_are_cyclic(left_trefoil):
    assert triangle_slide_sites(left_trefoil, "r3") == []
    deltas = triangle_slide_sites(left_trefoil, "delta")
    assert len(deltas) == 6  # two triangle faces, three moving strands each


def test_r3_is_isotopy(left_trefoil):
    # manufacture legal R3 sites via perturbation, check Jones is unchanged
    from knotmoves.invariants import jones

    j0 = jones(left_trefoil)
    found = 0
    for seed in range(12):
        p = random_perturb(left_trefoil, 12, seed=100 + seed)
        for site in triangle_slide_sites(p, "r3"):
            q = triangle_slide(p, *site[1:])
            q.validate()
            assert q.is_planar()
            assert jones(q) == j0
            found += 1
    assert found > 5


def test_delta_slide_changes_the_knot(left_trefoil):
    site = triangle_slide_sites(left_trefoil, "delta")[0]
    d = triangle_slide(left_trefoil, *site[1:])
    assert simplify(d).canonical_key == "unknot"


def test_simplify_never_increases(left_trefoil, unknot):
    kinked = r1_add(r1_add(unknot, 0, 1), 1, -1)
    assert simplify(kinked).canonical_key == "unknot"
    assert simplify(left_trefoil).n_crossings == 3
    for seed in range(10):
        p = random_perturb(left_trefoil, 20, seed=seed)
        s = simplify(p, r3_budget=2000)
        assert s.n_crossings <= p.n_crossings
        assert s.n_crossings == 3
        assert s.canonical_key == left_trefoil.canonical_key


def test_simplify_scripts_replay(left_trefoil):
    p = random_perturb(left_trefoil, 15, seed=3)
    s, script = simplify_with_script(p, r3_budget=1500)
    r = replay(p, script)
    assert Diagram(r.crossings, r.free_loops, check=False).canonical_key \
        == s.canonical_key


def test_switched_trefoil_unknots(left_trefoil):
    d = apply_move(left_trefoil, ("switch", 0))
    assert simplify(d).canonical_key == "unknot"


def test_perturb_stays_planar(knots):
    fig8 = parse_dt("4 6 8 2")
    for seed in range(8):
        p = random_perturb(fig8, 25, seed=seed)
        p.validate()
        assert p.is_planar()


def test_reidemeister_dispatcher(unknot, left_trefoil):
    from knotmoves.moves import reidemeister

    kink = reidemeister(unknot, 1, (0, 1), "add")
    assert kink.n_crossings == 1
    assert reidemeister(kink, 1, (0,), "remove").canonical_key == "unknot"
    site = r2_add_sites(left_trefoil)[0]
    d = reidemeister(left_trefoil, 2, site[1:], "add")
    assert d.n_crossings == 5
    removal = next(s for s in r2_removal_sites(d) if set(s[1:3]) == {3, 4})
    assert reidemeister(d, 2, removal[1:], "remove").canonical_key \
        == left_trefoil.canonical_key
    with pytest.raises(InapplicableMove):
        reidemeister(unknot, 4, (), "add")


def test_delta_slide_self_inverse(left_trefoil):
    # sliding the same strand back across the same corner undoes the move
    site = triangle_slide_sites(left_trefoil, "delta")[0]
    once = triangle_slide(left_trefoil, *site[1:])
    twice = triangle_slide(once, *site[1:])
    assert twice.canonical_key == left_trefoil.canonical_key


from hypothesis import given, settings, strategies as st


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 20))
def test_perturbation_round_trip_property(seed, steps):
    from knotmoves.diagram import parse_pd

    t = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    p = random_perturb(t, steps, seed=seed)
    p.validate()
    assert p.is_planar()
    s = simplify(p, r3_budget=2000)
    assert s.canonical_key == t.canonical_key


def test_face_walks_cache_matches_fresh(left_trefoil):
    from knotmoves.diagram import Fragment
    from knotmoves.moves import greedy_reduce

    def fresh(frag):
        return Fragment(frag.crossings, frag.legs, frag.free_loops).face_walks()

    derived = []
    for site in r2_add_sites(left_trefoil)[:6]:
        d = r2_add(left_trefoil, *site[1:])
        derived.append(d)
        for slide in triangle_slide_sites(d, "r3") + triangle_slide_sites(d, "delta"):
            derived.append(triangle_slide(d, *slide[1:]))
    derived += [greedy_reduce(d)[0] for d in derived]
    assert len(derived) > 12
    for d in derived:
        walks = d.face_walks()
        assert d.face_walks() is walks
        assert walks == fresh(d)
