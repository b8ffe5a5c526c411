import pytest

from knotmoves.diagram import Diagram
from knotmoves.gauss import v2
from knotmoves.moves import replay
from knotmoves.search import bfs_path, delta_unknot, replay_path


def test_identical_diagrams_empty_path(left_trefoil):
    res = bfs_path(left_trefoil, left_trefoil, {"B2"})
    assert res.found and res.script == []


def test_trefoil_unknot_single_switch(left_trefoil, unknot):
    res = bfs_path(left_trefoil, unknot, {"B2"})
    assert res.found
    assert res.moves_used == 1
    assert replay_path(left_trefoil, res.script, "unknot")


def test_bfs_rejects_unknown_movekinds(left_trefoil, unknot):
    with pytest.raises(ValueError):
        bfs_path(left_trefoil, unknot, {"B9"})


def test_path_intermediates_preserve_low_order(left_trefoil, unknot, small_knots):
    # along a B3 path every order-<=1 invariant is constant (trivially) and
    # each step moves v2 by exactly one
    res = delta_unknot(small_knots["5_2"], budget=2000)
    assert res.found
    d = small_knots["5_2"]
    values = [v2(d)]
    cur = d
    for entry in res.script:
        cur = replay(cur, [entry])
        if entry[0] == "delta":
            values.append(v2(Diagram(cur.crossings, cur.free_loops, check=False)))
    assert values[-1] == 0
    assert all(abs(a - b) == 1 for a, b in zip(values, values[1:]))


def test_delta_unknot_trefoil(left_trefoil):
    res = delta_unknot(left_trefoil, budget=500)
    assert res.found and res.moves_used == 1
    assert replay_path(left_trefoil, res.script, "unknot")


def test_delta_unknot_unknot(unknot):
    res = delta_unknot(unknot, budget=10)
    assert res.found and res.moves_used == 0


def test_delta_unknot_batch(small_knots):
    results = {}
    for name, d in small_knots.items():
        if d.n_crossings > 7:
            continue
        res = delta_unknot(d, budget=3000)
        results[name] = res
        if res.found and d.crossings:
            assert replay_path(d, res.script, "unknot"), name
        if not res.found:
            assert res.note == "budget exhausted", name
    rate = sum(r.found for r in results.values()) / len(results)
    assert rate >= 0.8


def test_search_deterministic(left_trefoil, unknot):
    a = bfs_path(left_trefoil, unknot, {"B2"}, budget=100)
    b = bfs_path(left_trefoil, unknot, {"B2"}, budget=100)
    assert a.to_json() == b.to_json()


def test_b4_paths_are_best_effort(small_knots):
    # order-4 rewriting is not enumerated cheaply; exhaustion is the
    # expected (and honest) outcome, never an inequivalence claim
    res = bfs_path(small_knots["granny"], small_knots["square"], {"B4"},
                   budget=50)
    assert not res.found
    assert res.note == "budget exhausted"


# Scripts and expansion counts recorded before the exact-state skip and the
# pruned key landed; both optimizations must leave them byte-identical.
GOLDEN_DELTA = {
    "3_1": {"found": True, "moves_used": 1, "expansions": 1, "note": "",
            "script": [["delta", 0, 1, 2, 3, 5, 1], ["r1-", 0], ["r1-", 0],
                       ["r1-", 0]]},
    "5_1": {"found": True, "moves_used": 3, "expansions": 235, "note": "",
            "script": [["r2+", 1, 1, 9, 0, True], ["delta", 2, 6, 0, 9, 11, 5],
                       ["r1-", 6], ["r3", 3, 2, 5, 6, 14, 1],
                       ["r3", 5, 0, 3, 9, 5, 1], ["r1-", 5],
                       ["delta", 1, 4, 3, 8, 4, 2], ["r1-", 3],
                       ["r3", 1, 2, 0, 12, 6, 1], ["r1-", 1],
                       ["delta", 0, 2, 1, 7, 5, 1], ["r1-", 0], ["r1-", 0],
                       ["r1-", 0]]},
    "5_2": {"found": True, "moves_used": 2, "expansions": 195, "note": "",
            "script": [["delta", 0, 1, 3, 3, 7, 1], ["r1-", 0],
                       ["r3", 2, 3, 0, 8, 6, 1], ["r1-", 3],
                       ["delta", 0, 1, 2, 5, 9, 1], ["r1-", 0], ["r1-", 0],
                       ["r1-", 0]]},
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DELTA))
def test_delta_unknot_golden(small_knots, name):
    assert delta_unknot(small_knots[name], budget=3000).to_json() == GOLDEN_DELTA[name]


def test_bfs_path_golden(left_trefoil, unknot, small_knots):
    res = bfs_path(left_trefoil, unknot, {"B2"})
    assert res.to_json() == {"found": True, "moves_used": 1, "expansions": 1,
                             "note": "", "script": [["switch", 0],
                                                    ["r2-", 0, 1, 1, 4],
                                                    ["r1-", 0]]}
    # Breadth-first B3 search finds the same route as the guided search.
    res = bfs_path(small_knots["5_2"], unknot, {"B3"}, budget=400)
    assert res.to_json() == GOLDEN_DELTA["5_2"]
    res = bfs_path(small_knots["granny"], small_knots["square"], {"B3"},
                   budget=150)
    assert res.to_json() == {"found": False, "moves_used": 0, "expansions": 151,
                             "note": "budget exhausted", "script": []}


def test_bfs_path_mixed_b2_b3_golden(small_knots, unknot):
    res = bfs_path(small_knots["3_1"], unknot, {"B2", "B3"})
    assert res.to_json() == {"found": True, "moves_used": 1, "expansions": 1,
                             "note": "", "script": [["switch", 0],
                                                    ["r2-", 0, 2, 1, 4],
                                                    ["r1-", 0]]}
    res = bfs_path(small_knots["5_2"], unknot, {"B2", "B3"}, budget=400)
    assert res.to_json() == {"found": True, "moves_used": 1, "expansions": 2,
                             "note": "", "script": [["switch", 1],
                                                    ["r2-", 1, 3, 2, 7],
                                                    ["r1-", 0], ["r1-", 0],
                                                    ["r1-", 0]]}
    # The frontier empties before the budget does: 208 < 300 expansions.
    res = bfs_path(small_knots["4_1"], small_knots["3_1"], {"B2", "B3"}, budget=300)
    assert res.to_json() == {"found": False, "moves_used": 0, "expansions": 208,
                             "note": "budget exhausted", "script": []}
    res = bfs_path(small_knots["granny"], small_knots["square"], {"B2", "B3"},
                   budget=150)
    assert res.to_json() == {"found": False, "moves_used": 0, "expansions": 151,
                             "note": "budget exhausted", "script": []}
