import heapq
import itertools
import random
from collections import deque

import pytest

from knotmoves import moves, search, templates
from knotmoves.diagram import Diagram, MalformedDiagram
from knotmoves.gauss import v2
from knotmoves.moves import (InapplicableMove, _Explorer, _explore_r3, _r3_steps, _rebuild,
                             _rewrite_steps, apply_move, greedy_reduce, r1_removal_sites,
                             r2_removal_sites, random_perturb, replay, simplify)
from knotmoves.search import bfs_path, delta_unknot, replay_path
from knotmoves.templates import builtin_templates, realize_by_lower


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


def test_start_at_the_goal(unknot):
    # A perturbed unknot that simplifies to the unknot: the goal is the start.
    d = random_perturb(unknot, 8, seed=2)
    script = simplify(d, search.R3_BUDGET)[1]
    assert d.n_crossings == 7 and script
    assert delta_unknot(d).to_json() == {"found": True, "moves_used": 0, "expansions": 0,
                                         "note": "", "script": [list(e) for e in script]}
    assert replay_path(d, script, "unknot")
    assert bfs_path(d, unknot, {"B2"}).to_json() == {
        "found": True, "moves_used": 0, "expansions": 0, "note": "already equivalent",
        "script": []}


def test_a_step_adds_at_most_two_crossings(small_knots):
    # So a state capped at n crossings yields neighbours of at most n + 2,
    # and the search needs no test before it simplifies them.
    tight = 0
    for name, d in small_knots.items():
        p = random_perturb(d, 4, seed=5)
        for k in (2, 3):
            for entries, _, _ in _rewrite_steps(p, k):
                try:
                    out = replay(p, entries)
                except (InapplicableMove, MalformedDiagram):
                    continue
                assert out.n_crossings <= p.n_crossings + 2, (name, entries)
                tight += out.n_crossings == p.n_crossings + 2
    assert tight > 0  # an R2 push followed by a flip reaches the bound


def state(frag):
    return frag.crossings, frag.legs, frag.free_loops


def test_each_step_carries_what_its_entries_build(small_knots):
    # A step's (base, records) builds the same fragment as replaying its
    # entries through the checked ``apply_move``.
    cases = []
    for name, d in small_knots.items():
        p = random_perturb(d, 4, seed=5)
        cases += [(name, p, lambda f: _rewrite_steps(f, 2)), (name, p, _r3_steps),
                  (name, p, lambda f: _rewrite_steps(f, 3))]
    for k in (3, 4):  # order-3 rewrites on the templates' tangles
        cases.append((k, builtin_templates()[k].before, lambda f: _rewrite_steps(f, 3)))
    counts = {"switch": 0, "r3": 0, "delta": 0, "r2+": 0, "renamed leg": 0}
    for name, frag, steps in cases:
        for entries, base, records in steps(frag):
            assert state(_rebuild(base, records)) == state(replay(frag, entries)), (name, entries)
            counts[entries[0][0]] += 1
            counts["renamed leg"] += base.legs != frag.legs
    assert all(counts.values()), counts  # every kind of step is covered


def test_search_deterministic(left_trefoil, unknot):
    a = bfs_path(left_trefoil, unknot, {"B2"}, budget=100)
    b = bfs_path(left_trefoil, unknot, {"B2"}, budget=100)
    assert a.to_json() == b.to_json()


def test_b4_is_refused(small_knots):
    # Order 4 has no rewrite repertoire, so a B4 search would have no step
    # at all; granny and square have equal v2, so clasp-pass moves do relate
    # them.  The kind is refused rather than reported as an exhausted graph.
    for kinds in ({"B4"}, {"B2", "B4"}):
        with pytest.raises(ValueError, match="B4"):
            bfs_path(small_knots["granny"], small_knots["square"], kinds, budget=50)


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
    assert res.to_json() == {"found": False, "moves_used": 0, "expansions": 150,
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
    # The frontier empties before the budget does: 208 < 300 expansions,
    # and the crossing cap dropped no neighbour on the way.
    res = bfs_path(small_knots["4_1"], small_knots["3_1"], {"B2", "B3"}, budget=300)
    assert res.to_json() == {"found": False, "moves_used": 0, "expansions": 208,
                             "note": "move graph exhausted", "script": []}
    # The budget is tested before a step is counted: the untried step that
    # the budget stops is not an expansion.
    res = bfs_path(small_knots["granny"], small_knots["square"], {"B2", "B3"},
                   budget=150)
    assert res.to_json() == {"found": False, "moves_used": 0, "expansions": 150,
                             "note": "budget exhausted", "script": []}


@pytest.mark.parametrize("budget, expansions, note", [
    (207, 207, "budget exhausted"), (208, 208, "budget exhausted"),
    (209, 208, "move graph exhausted")])
def test_search_note_at_the_budget_edge(small_knots, budget, expansions, note):
    # The 208th expansion is the last step there is, but the states still on
    # the frontier then (the unknot) are only found to have none once the
    # budget lets the search look at them.
    res = bfs_path(small_knots["4_1"], small_knots["3_1"], {"B2", "B3"}, budget=budget)
    assert (res.found, res.expansions, res.note) == (False, expansions, note)


@pytest.mark.parametrize("name, run, expansions", [
    pytest.param("4_1", lambda d, knots: bfs_path(d, knots["3_1"], {"B2", "B3"}, 300), 208,
                 id="bfs_path-4_1-3_1"),
    pytest.param("7_1", lambda d, knots: delta_unknot(d), 56, id="delta_unknot-7_1")])
def test_cap_is_named_only_when_it_dropped_a_neighbour(monkeypatch, small_knots, name, run,
                                                      expansions):
    # A cap one crossing below the start drops neighbours, and the note says
    # so; the usual cap drops none in these searches, and the note is silent.
    d = small_knots[name]
    with monkeypatch.context() as m:
        m.setattr(search, "CAP_EXTRA", -1)
        res = run(d, small_knots)
        assert res.to_json() == reference_run(monkeypatch, run, d, small_knots)
    assert (res.found, res.expansions, res.note) == (
        False, expansions, "move graph exhausted under the crossing cap")
    assert "crossing cap" not in run(d, small_knots).note


# -- reference: every reduced start explored, every slide state built ----------

class ReferenceExplorer(_Explorer):
    """The explorer loop before the pre-build test: each step is replayed in
    full, and its exact state tested against ``reached`` only then.  It
    counts steps and cap drops and sets ``exhausted`` as the explorer does:
    it is the oracle for the skip, not for the budget."""

    def __iter__(self):
        budget, cap, score = self.budget, self.cap, self.score
        frontier: deque | list = deque() if score is None else []
        arrival = itertools.count()

        def push(frag, script):
            if score is None:
                frontier.append((frag, script))
            else:
                rank = (score(frag), frag.n_crossings, next(arrival))
                heapq.heappush(frontier, (rank, frag, script))

        def pop():
            return frontier.popleft() if score is None else heapq.heappop(frontier)[1:]

        key = self.start.key
        seen = {key}
        reached: set[tuple] = set()
        yield self.start, key, self.script
        push(self.start, self.script)
        while frontier and self.expansions < budget:
            cur, script = pop()
            for step, _, _ in self.steps(cur):  # the records are ignored
                if self.expansions == budget:
                    return
                self.expansions += 1
                try:
                    nxt = replay(cur, step)
                except (InapplicableMove, MalformedDiagram):
                    continue
                state = (nxt.crossings, nxt.legs, nxt.free_loops)
                if state in reached:
                    continue
                reached.add(state)
                nxt, extra = self.reduce(nxt)
                if nxt.n_crossings > cap:
                    self.capped += 1
                    continue
                key = nxt.key
                if key in seen:
                    continue
                seen.add(key)
                nscript = script + list(step) + extra
                yield nxt, key, nscript
                push(nxt, nscript)
        self.exhausted = not frontier


def reference_run(monkeypatch, search_fn, *args, **kwargs):
    """Run a search with the reference explorer, whose reduce runs
    ``simplify`` on every neighbour."""
    with monkeypatch.context() as m:
        m.setattr(moves, "_Explorer", ReferenceExplorer)
        m.setattr(search, "_Explorer", ReferenceExplorer)
        m.setattr(search, "_simplifier",
                  lambda r3_budget: lambda d: simplify(d, r3_budget))
        return search_fn(*args, **kwargs).to_json()


def test_delta_unknot_matches_reference(monkeypatch, small_knots):
    starts = [(name, d) for name, d in small_knots.items() if d.n_crossings <= 6]
    # R-perturbed starts that greedy reduction leaves above the knot's
    # crossing number, under a cap above the knot's own.
    starts += [(f"{name} perturbed {seed}",
                random_perturb(small_knots[name], 10, seed=seed, max_extra=3))
               for name, seed in (("3_1", 0), ("5_1", 0), ("5_2", 2), ("6_1", 2))]
    for name, d in starts:
        assert delta_unknot(d).to_json() == reference_run(
            monkeypatch, delta_unknot, d), name


@pytest.mark.parametrize("r3_budget", [2, 5, 12])
def test_searches_match_reference_when_r3_explorations_stop(monkeypatch, small_knots, r3_budget):
    # Under a small R3 budget explorations stop unfinished; the memo records
    # none of them, so every search still matches the reference.
    monkeypatch.setattr(search, "R3_BUDGET", r3_budget)
    explored, _ = record_search(monkeypatch)
    for d in (small_knots["5_1"], small_knots["6_1"],
              random_perturb(small_knots["5_2"], 10, seed=2, max_extra=3)):
        assert delta_unknot(d).to_json() == reference_run(monkeypatch, delta_unknot, d)
    # A start whose exploration stopped is explored again when it recurs.
    stopped = [key for key, done in explored if not done]
    assert len(stopped) > len(set(stopped))


BFS_CASES = [("3_1", "unknot", {"B2"}, 4000), ("5_2", "unknot", {"B3"}, 400),
             ("granny", "square", {"B3"}, 150), ("3_1", "unknot", {"B2", "B3"}, 4000),
             ("5_2", "unknot", {"B2", "B3"}, 400), ("4_1", "3_1", {"B2", "B3"}, 300),
             ("granny", "square", {"B2", "B3"}, 150)]


@pytest.mark.parametrize("a, b, kinds, budget", BFS_CASES)
def test_bfs_path_matches_reference(monkeypatch, small_knots, a, b, kinds, budget):
    d1, d2 = small_knots[a], small_knots[b]
    assert bfs_path(d1, d2, kinds, budget).to_json() == reference_run(
        monkeypatch, bfs_path, d1, d2, kinds, budget)


def record_search(monkeypatch):
    """Record the R3 explorations a search runs, as (start key, finished),
    and its simplifier's calls, as (input, result, explorations run)."""
    explored, calls = [], []

    def explore(start, script, r3_budget):
        out = _explore_r3(start, script, r3_budget)
        explored.append((start.key, out[2]))
        return out

    def simplifier(r3_budget, make=search._simplifier):
        inner = make(r3_budget)

        def simplify_once(d):
            before = len(explored)
            out = inner(d)
            calls.append((d, out, len(explored) - before))
            return out

        return simplify_once

    monkeypatch.setattr(search, "_explore_r3", explore)
    monkeypatch.setattr(search, "_simplifier", simplifier)
    return explored, calls


MEMO_CASES = [
    ("5_1", lambda d, knots: delta_unknot(d)),
    ("granny", lambda d, knots: delta_unknot(d)),
    ("5_2", lambda d, knots: bfs_path(d, knots["unknot"], {"B3"}, 400)),
    ("4_1", lambda d, knots: bfs_path(d, knots["3_1"], {"B2", "B3"}, 300)),
]


@pytest.mark.parametrize("name, run", MEMO_CASES)
def test_each_reduced_start_explored_once(monkeypatch, small_knots, name, run):
    # No start key is explored again once an exploration from it finished.
    explored, calls = record_search(monkeypatch)
    run(small_knots[name], small_knots)
    for i, (key, _) in enumerate(explored):
        assert key not in {k for k, done in explored[:i] if done}
    assert all(done for _, done in explored)
    assert len(calls) > len(explored) > 1  # starts do repeat


@pytest.mark.parametrize("name, run", MEMO_CASES)
def test_dropped_neighbours_are_never_explored(monkeypatch, small_knots, name, run):
    # A neighbour the memo drops runs no exploration, and simplify gives it a
    # result the explorer would drop too: above the cap, or a key it kept.
    explored, calls = record_search(monkeypatch)
    d = small_knots[name]
    run(d, small_knots)
    cap = d.n_crossings + search.CAP_EXTRA
    kept, drops = set(), 0
    for raw, out, n_explored in calls:
        if out is None:
            assert n_explored == 0
            best = simplify(raw, search.R3_BUDGET)[0]
            assert best.n_crossings > cap or best.key in kept, name
            drops += 1
        else:
            assert n_explored == 1
            if out[0].n_crossings <= cap:
                kept.add(out[0].key)
    assert drops > 0


def test_back_to_back_searches_keep_nothing(monkeypatch, small_knots):
    explored, _ = record_search(monkeypatch)
    first = delta_unknot(small_knots["6_1"]).to_json()
    n = len(explored)
    assert n > 1
    assert delta_unknot(small_knots["6_1"]).to_json() == first
    # The second search explores the same start keys again: no memo outlives
    # a call.
    assert explored[n:] == explored[:n]


def _relabelled_copy(d: Diagram, rng: random.Random) -> Diagram:
    """d under random edge labels and crossing order, each record maybe
    rotated by two slots (the PD gauge)."""
    edges = d.edges()
    mapping = dict(zip(edges, rng.sample(range(1, 10 * len(edges) + 2), len(edges))))
    records = [c.relabeled(mapping).rotated(rng.choice((0, 2))) for c in d.crossings]
    rng.shuffle(records)
    return Diagram(tuple(records), d.free_loops)


def _removal_ends(d: Diagram, memo: dict) -> set[str]:
    """The keys of the diagrams every maximal order of R1/R2 removals ends in."""
    state = (d.crossings, d.free_loops)
    if state not in memo:
        sites = r1_removal_sites(d) + r2_removal_sites(d)
        ends = [_removal_ends(apply_move(d, site), memo) for site in sites]
        memo[state] = set().union(*ends) if sites else {d.key}
    return memo[state]


def _r3_walk(start: Diagram) -> tuple:
    """The keys an R3 exploration from start visits, its expansion count,
    and its result's (n_crossings, key) and finished flag."""
    walk = _Explorer(start, [], _r3_steps, greedy_reduce, search.R3_BUDGET, start.n_crossings)
    keys = {key for _, key, _ in walk}
    best, _, finished = _explore_r3(start, [], search.R3_BUDGET)
    return keys, walk.expansions, (best.n_crossings, best.key), finished


def test_an_r3_exploration_finishes_only_under_its_budget(knots):
    # An exploration that needs all of its budget may leave states with no
    # slides on the frontier, depending on the order of its steps, so it
    # does not count as finished.
    diagrams = [p for d in knots.values()
                for p in [d] + [random_perturb(d, 14, seed=seed, max_extra=8) for seed in range(3)]]
    spent = 0
    for d in diagrams:
        start = greedy_reduce(d)[0]
        walk = _Explorer(start, [], _r3_steps, greedy_reduce, 10**6, start.n_crossings)
        best = min((f.n_crossings, key) for f, key, _ in walk)
        n = walk.expansions
        got = _explore_r3(start, [], n + 1)
        assert (got[0].n_crossings, got[0].key, got[2]) == (*best, True)
        if n:
            assert not _explore_r3(start, [], n)[2]
            spent += 1
    assert spent > 15  # most reduced starts have no R3 slide


def test_simplify_result_depends_only_on_the_key(knots):
    # What the search memo rests on: every order of R1/R2 removals ends in
    # one key, and relabelled copies reduce to that key and explore by R3 the
    # same key set, with the same expansion count and result.
    rng = random.Random(5)
    diagrams = [random_perturb(d, 14, seed=seed, max_extra=8)
                for d in knots.values() for seed in range(5)]
    removals = finished = 0
    for d in diagrams:
        start = greedy_reduce(d)[0]
        assert _removal_ends(d, {}) == {start.key}, d.crossings
        removals += start.n_crossings < d.n_crossings
        want = _r3_walk(start)
        finished += want[3]
        for _ in range(3):
            copy = greedy_reduce(_relabelled_copy(d, rng))[0]
            assert copy.key == start.key, d.crossings
            if want[3]:
                assert _r3_walk(copy) == want, d.crossings
    assert removals > len(diagrams) // 2 and finished > len(diagrams) // 2


@pytest.mark.parametrize("steps, reduce", [(_r3_steps, lambda f: (f, [])),
                                           (lambda f: _rewrite_steps(f, 3), greedy_reduce)])
def test_no_slide_state_built_twice(monkeypatch, knots, steps, reduce):
    built, slides = [], []
    build, slide_records = moves._rebuild, moves._slide_records

    def count_built(frag, crossings, *rest):
        # The explorer builds from tuple records; the moves it reduces with
        # rebuild from lists.
        if isinstance(crossings, tuple):
            built.append((crossings, frag.legs, frag.free_loops))
        return build(frag, crossings, *rest)

    def count_records(frag, *site):
        slides.append(site)
        return slide_records(frag, *site)

    for name in ("5_2", "6_3", "3_1+4_1"):
        start = random_perturb(knots[name], 10, seed=4)
        # A step adds at most two crossings (an R2 push), so within 300
        # expansions this cap drops nothing.
        cap = start.n_crossings + 2 * 300
        ref = list(ReferenceExplorer(start, [], steps, reduce, 300, cap))
        with monkeypatch.context() as m:
            m.setattr(moves, "_rebuild", count_built)
            m.setattr(moves, "_slide_records", count_records)
            walk = _Explorer(start, [], steps, reduce, 300, cap)
            got = list(walk)
        assert [(k, s) for _, k, s in got] == [(k, s) for _, k, s in ref], name
        assert len(built) == len(set(built)), name
        assert len(slides) > len(built), name  # repeats were skipped unbuilt
        built.clear()
        slides.clear()


def test_explorer_applies_the_callers_crossing_cap(monkeypatch, small_knots):
    # Every explorer the searches, their simplifications and realize_by_lower
    # make records the states it yields and the ones its reduce returns.
    runs = []

    class RecordingExplorer(_Explorer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.yielded, self.reduced, inner = [], [], self.reduce
            runs.append(self)

            def reduce(frag):
                out = inner(frag)
                # A neighbour the search memo drops counts with the crossings
                # simplify gives it.
                best = simplify(frag, search.R3_BUDGET)[0] if out is None else out[0]
                self.reduced.append(best.n_crossings)
                return out

            self.reduce = reduce

        def __iter__(self):
            for state in super().__iter__():
                self.yielded.append(state[0].n_crossings)
                yield state

    for module in (moves, search, templates):
        monkeypatch.setattr(module, "_Explorer", RecordingExplorer)
    callers = []  # (the caller's own explorer, the caller's cap)

    def capped(run, cap):
        before = len(runs)
        run()
        # simplify makes one explorer per call, with steps _r3_steps.
        [mine] = [w for w in runs[before:] if w.steps is not _r3_steps]
        callers.append((mine, cap))

    tpl = builtin_templates()[4]
    # With CAP_EXTRA = 4 these runs drop nothing; a cap at the start's
    # count (CAP_EXTRA = 0) drops some neighbours of 7_1, 7_3 and tpl.
    for extra in (search.CAP_EXTRA, 0):
        monkeypatch.setattr(search, "CAP_EXTRA", extra)
        monkeypatch.setattr(templates, "CAP_EXTRA", extra)
        for a, b, kinds, budget in BFS_CASES:
            d1, d2 = small_knots[a], small_knots[b]
            capped(lambda: bfs_path(d1, d2, kinds, budget), d1.n_crossings + extra)
        for d in small_knots.values():
            capped(lambda: delta_unknot(d), d.n_crossings + extra)
        capped(lambda: realize_by_lower(tpl, 3, 3000), tpl.before.n_crossings + extra)
    for walk in runs:
        if walk.steps is _r3_steps:  # simplify: R3 slides keep the start's count
            assert walk.cap == walk.start.n_crossings
            assert max(walk.yielded, default=0) <= walk.cap
    for walk, cap in callers:
        assert max(walk.yielded) <= cap
    # Not vacuous: the cap dropped neighbours the explorers reduced or the
    # memo dropped unexplored.
    assert sum(n > cap for walk, cap in callers for n in walk.reduced) > 0
