import pytest

from knotmoves.diagram import Diagram, parse_dt
from knotmoves.moves import (InapplicableMove, apply_move, r1_add, r1_remove,
                             r1_removal_sites, r2_add, r2_add_sites, r2_remove,
                             r2_removal_sites, random_perturb, replay, simplify,
                             triangle_slide, triangle_slide_sites)


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
    with pytest.raises(InapplicableMove, match="no r1- site"):
        apply_move(left_trefoil, ("r1-", 0))


@pytest.mark.parametrize("entry", [
    ("r1+", 99, 1),  # no edge 99
    ("r1+", 1, 0),
    ("r1+", 1, 2),
    ("r1+", 1, True),
    ("r2+", 1, 0, 1, 0, True),  # e == f: a dart lies on its own face walk
])
def test_apply_move_refuses_unlisted_r1_and_r2_sites(left_trefoil, entry):
    # The move functions check nothing: apply_move is the one check.
    with pytest.raises(InapplicableMove):
        apply_move(left_trefoil, entry)


def test_random_perturb_keeps_the_crossing_cap_on_the_unknot(unknot):
    # max_extra=0 allows no new crossing, on the bare circle too.
    assert random_perturb(unknot, 1, seed=1, max_extra=0).n_crossings == 0
    assert random_perturb(unknot, 1, seed=1, max_extra=1).n_crossings == 1


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
    assert simplify(d)[0].canonical_key == "unknot"


def test_simplify_never_increases(left_trefoil, unknot):
    kinked = r1_add(r1_add(unknot, 0, 1), 1, -1)
    assert simplify(kinked)[0].canonical_key == "unknot"
    assert simplify(left_trefoil)[0].n_crossings == 3
    for seed in range(10):
        p = random_perturb(left_trefoil, 20, seed=seed)
        s, _ = simplify(p, r3_budget=2000)
        assert s.n_crossings <= p.n_crossings
        assert s.n_crossings == 3
        assert s.canonical_key == left_trefoil.canonical_key


def test_simplify_scripts_replay(left_trefoil):
    p = random_perturb(left_trefoil, 15, seed=3)
    s, script = simplify(p, r3_budget=1500)
    r = replay(p, script)
    assert Diagram(r.crossings, r.free_loops, check=False).canonical_key \
        == s.canonical_key


def test_switched_trefoil_unknots(left_trefoil):
    d = apply_move(left_trefoil, ("switch", 0))
    assert simplify(d)[0].canonical_key == "unknot"


def test_perturb_stays_planar(knots):
    fig8 = parse_dt("4 6 8 2")
    for seed in range(8):
        p = random_perturb(fig8, 25, seed=seed)
        p.validate()
        assert p.is_planar()


def test_reidemeister_dispatcher(unknot, left_trefoil):
    kink = apply_move(unknot, ("r1+", 0, 1))
    kink.validate()
    assert kink.n_crossings == 1
    assert apply_move(kink, ("r1-", 0)).canonical_key == "unknot"
    site = r2_add_sites(left_trefoil)[0]
    d = apply_move(left_trefoil, site)
    d.validate()
    assert d.n_crossings == 5
    removal = next(s for s in r2_removal_sites(d) if set(s[1:3]) == {3, 4})
    assert apply_move(d, removal).canonical_key == left_trefoil.canonical_key
    with pytest.raises(InapplicableMove):
        apply_move(unknot, ("r4", 0))


def test_delta_slide_self_inverse(left_trefoil):
    # sliding the same strand back across the same corner undoes the move
    site = triangle_slide_sites(left_trefoil, "delta")[0]
    once = triangle_slide(left_trefoil, *site[1:])
    twice = triangle_slide(once, *site[1:])
    assert twice.canonical_key == left_trefoil.canonical_key


def _applied(d, entry):
    """The result of ``apply_move``, or None where it refuses the entry."""
    try:
        return apply_move(d, entry)
    except InapplicableMove:
        return None


def test_apply_move_takes_exactly_the_sites_its_finders_list(small_knots):
    """On the corpus up to 6 crossings and R-perturbed copies: an r3 or delta
    entry on three pairwise-adjacent crossings, for every choice of shared
    edges, applies iff ``triangle_slide_sites`` lists it; an R2 push on any
    two darts applies iff they lie on one face walk (of distinct edges); and
    every result that applies is planar."""
    from itertools import permutations

    hosts = [d for d in small_knots.values() if 0 < d.n_crossings <= 6]
    hosts += [random_perturb(d, 6, seed=seed) for d in hosts for seed in (1, 2)]
    counts = {"slides": 0, "listed": 0, "pushes": 0, "cofacial": 0}
    for d in hosts:
        at: dict[int, list[int]] = {}
        for ci, c in enumerate(d.crossings):
            for e in c.ends:
                at.setdefault(e, []).append(ci)
        shared: dict[tuple[int, int], list[int]] = {}
        for e, (ci, cj) in at.items():
            if ci != cj:
                shared.setdefault((ci, cj), []).append(e)
                shared.setdefault((cj, ci), []).append(e)
        for c1, c2, c3 in permutations(range(d.n_crossings), 3):
            for x12 in shared.get((c1, c2), ()):
                for x23 in shared.get((c2, c3), ()):
                    for x31 in shared.get((c3, c1), ()):
                        for op in ("r3", "delta"):
                            entry = (op, c1, c2, c3, x12, x23, x31)
                            listed = entry in triangle_slide_sites(d, op)
                            out = _applied(d, entry)
                            assert (out is not None) == listed, entry
                            assert out is None or out.is_planar(), entry
                            counts["slides"] += 1
                            counts["listed"] += listed
        face = {dart: i for i, walk in enumerate(d.face_walks()) for dart in walk}
        for (e, de), (f, df) in permutations(face, 2):
            cofacial = e != f and face[(e, de)] == face[(f, df)]
            for over in (True, False):
                out = _applied(d, ("r2+", e, de, f, df, over))
                assert (out is not None) == cofacial, (e, de, f, df, over)
                assert out is None or out.is_planar(), (e, de, f, df, over)
                counts["pushes"] += 1
                counts["cofacial"] += cofacial
    assert min(counts["listed"], counts["slides"] - counts["listed"]) > 100, counts
    assert min(counts["cofacial"], counts["pushes"] - counts["cofacial"]) > 1000, counts


from hypothesis import given, settings, strategies as st


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 20))
def test_perturbation_round_trip_property(seed, steps):
    from knotmoves.diagram import parse_pd

    t = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    p = random_perturb(t, steps, seed=seed)
    p.validate()
    assert p.is_planar()
    s, _ = simplify(p, r3_budget=2000)
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


# Digest of (script, canonical key) of simplify on every corpus
# knot after 12 random R-moves.  Scripts name crossing indices and edge ids,
# so any change to the order of the R3 exploration shows up here.
GOLDEN_SIMPLIFY = {
    "3_1/0": "0c54ec82b1eb72f5", "3_1/1": "a94414911893cbde", "3_1/2": "99ff6d2cf79ece99",
    "3_1+4_1/0": "85956bc5caae25ee", "3_1+4_1/1": "12d9537ccef5cd06", "3_1+4_1/2": "b340f08239fea48b",
    "3_1+5_1/0": "7118327264eee63f", "3_1+5_1/1": "f803c47600cb4fd7", "3_1+5_1/2": "3c9522d5fdb6151a",
    "3_1+5_2/0": "7e92e40b8cf11386", "3_1+5_2/1": "d96d25dc1b9cc8c1", "3_1+5_2/2": "2f71183e3b5554dc",
    "3_1+6_1/0": "532fceafbff042d3", "3_1+6_1/1": "608e185c0e5ec24e", "3_1+6_1/2": "d26f2c32f7a40406",
    "4_1/0": "564bbf8256027deb", "4_1/1": "f711b827fd956b01", "4_1/2": "a250dd50a0c5119e",
    "4_1+4_1/0": "65d0fd7e5f752b7b", "4_1+4_1/1": "cbf06c51b43bad5a", "4_1+4_1/2": "2a0c481231708428",
    "4_1+5_2/0": "9f20437d8cdfac0c", "4_1+5_2/1": "23f9ca9b93a83349", "4_1+5_2/2": "743241dcc47a2c0f",
    "5_1/0": "20c9c7c76fd54019", "5_1/1": "6a4845f47a90ef8c", "5_1/2": "cc801004331593f8",
    "5_2/0": "f199ee0028d8a520", "5_2/1": "3da7cead2e736e04", "5_2/2": "39edcf3433ca0756",
    "6_1/0": "2162449273c1ea87", "6_1/1": "5fa0ffde9305eac7", "6_1/2": "e4bb8aa5dfb98d7f",
    "6_2/0": "b7c7274058524224", "6_2/1": "0c0f128900f6d8e8", "6_2/2": "22201a58ba536300",
    "6_3/0": "ec2cf892fb1ed009", "6_3/1": "659af67953cb5340", "6_3/2": "c65d0722d0cb2900",
    "7_1/0": "730f82f910f7c83a", "7_1/1": "a1e2cdd05162e356", "7_1/2": "2efc457bf7c3cd3d",
    "7_2/0": "6e447446aca62ada", "7_2/1": "a3c4da38785d745f", "7_2/2": "867a5c9564a10fb1",
    "7_3/0": "d509248a50d643c0", "7_3/1": "192b2a3235818adb", "7_3/2": "960959e785bd32d5",
    "7_4/0": "bb81a730767ce566", "7_4/1": "38e91c103ad3eb6c", "7_4/2": "7e0b392316f9a9da",
    "7_5/0": "5d309bf628be701d", "7_5/1": "10b3e07ca3c14d18", "7_5/2": "8f36e144eb00b8ca",
    "7_6/0": "da7cd8a13142f9ef", "7_6/1": "35e164aa6c9bffb1", "7_6/2": "ed248a3fde2ec382",
    "7_7/0": "9321447c3c2926b1", "7_7/1": "430dc5171a7d4e0c", "7_7/2": "0110c68bc6186785",
    "dt8a/0": "74d857ae464b3b1d", "dt8a/1": "65c52108dde2adc1", "dt8a/2": "714e348a8d55914c",
    "dt8b/0": "5abdcc79fc515e39", "dt8b/1": "6a890d3e97287b15", "dt8b/2": "853e1ea2b448b3bc",
    "dt8c/0": "906b3f6d09458e23", "dt8c/1": "c51545f1ae59b2c3", "dt8c/2": "cae2e2afd7d6d547",
    "dt8d/0": "81cc08f2b3854d56", "dt8d/1": "7f507163893e740c", "dt8d/2": "66c62e49b936b3fb",
    "dt8e/0": "8d6d6621526c32b3", "dt8e/1": "215a1ec42f484997", "dt8e/2": "8b9f9ca381068d13",
    "dt8f/0": "7e574f166f37f0be", "dt8f/1": "21891fc9bdcdcf8a", "dt8f/2": "1d8c418cbb5f1435",
    "granny/0": "cec75d1aefaf8f83", "granny/1": "8fa780db8bcbdfd7", "granny/2": "af93b6f905337587",
    "square/0": "72049e18846a226a", "square/1": "c3e054923f88d32f", "square/2": "717385084ef3c6bb",
}


def test_simplify_with_script_golden(knots):
    import hashlib
    import json

    got = {}
    r3_scripts = 0
    for name, d in knots.items():
        if not d.crossings:
            continue
        for seed in range(3):
            out, script = simplify(random_perturb(d, 12, seed=seed))
            r3_scripts += any(e[0] == "r3" for e in script)
            blob = json.dumps([[list(e) for e in script], out.canonical_key])
            got[f"{name}/{seed}"] = hashlib.sha256(blob.encode()).hexdigest()[:16]
    assert got == GOLDEN_SIMPLIFY
    assert r3_scripts >= 15  # the R3 exploration, not only greedy R1/R2, is pinned
