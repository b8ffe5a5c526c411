"""Bounded search for move sequences connecting diagrams.

Searches return replayable scripts (the move-script vocabulary of
knotmoves.moves plus "switch" and "delta" rewrites).  A result with
found=False means the budget ran out; it is never evidence that no path
exists.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from . import gauss
from .diagram import Diagram, MalformedDiagram
from .moves import (InapplicableMove, Script, r2_add, r2_add_sites, replay,
                    simplify, simplify_with_script, triangle_slide_sites)

DEFAULT_BUDGET = 4000


@dataclass
class SearchResult:
    found: bool
    script: Script = field(default_factory=list)
    moves_used: int = 0
    expansions: int = 0
    note: str = ""

    def to_json(self) -> dict:
        return {"found": self.found, "moves_used": self.moves_used,
                "expansions": self.expansions, "note": self.note,
                "script": [list(e) for e in self.script]}


def replay_path(d: Diagram, script: Script, target_key: str,
                r3_budget: int = 1000) -> bool:
    """Replay a script on d; True iff the simplified result hits target_key."""
    cur = replay(d, script)
    final = simplify(Diagram(cur.crossings, cur.free_loops, check=False),
                     r3_budget)
    return final.canonical_key == target_key


def _move_count(script: Script) -> int:
    return sum(1 for e in script if e[0] in ("switch", "delta"))


def _switch_neighbors(d: Diagram):
    for ci in range(d.n_crossings):
        yield [("switch", ci)]


def _delta_neighbors(d: Diagram, with_preps: bool = True):
    for site in triangle_slide_sites(d, "delta"):
        yield [("delta",) + tuple(site[1:])]
    if not with_preps:
        return
    for prep in r2_add_sites(d):
        try:
            d1 = r2_add(d, *prep[1:])
        except (InapplicableMove, MalformedDiagram):
            continue
        for site in triangle_slide_sites(d1, "delta"):
            yield [prep, ("delta",) + tuple(site[1:])]


def bfs_path(d1: Diagram, d2: Diagram, movekinds: set[str],
             budget: int = DEFAULT_BUDGET, cap_extra: int = 4,
             r3_budget: int = 200) -> SearchResult:
    """Breadth-first search for a move path from d1 to d2.

    movekinds is a subset of {"B2", "B3", "B4"}: order-2 moves are crossing
    switches, order-3 moves are triangle flips with one optional R2 prep,
    and order 4 has no rewrite repertoire cheap enough for the crossing cap
    (so B4-only searches report exhaustion).  Intermediate diagrams are
    capped at n(d1) + cap_extra crossings.

    A neighbour whose exact state (crossing records and free loops, before
    simplification) was already reached in this search is skipped before
    simplify and the key.  Simplification is deterministic in that state,
    so the first visit already either rejected it on the cap or put its
    key into ``seen``; scripts and expansion counts are unchanged.
    """
    bad = movekinds - {"B2", "B3", "B4"}
    if bad:
        raise ValueError(f"unsupported move kinds: {sorted(bad)}")
    start, start_script = simplify_with_script(d1, r3_budget)
    goal = simplify(d2, r3_budget).canonical_key
    if start.canonical_key == goal:
        return SearchResult(True, [], 0, 0, "already equivalent")
    cap = max(start.n_crossings, d1.n_crossings) + cap_extra
    frontier: deque[tuple[Diagram, Script]] = deque([(start, list(start_script))])
    seen = {start.canonical_key}
    reached: set[tuple] = set()
    expansions = 0
    while frontier and expansions < budget:
        cur, script = frontier.popleft()
        moves: list[Script] = []
        if "B2" in movekinds:
            moves.extend(_switch_neighbors(cur))
        if "B3" in movekinds:
            moves.extend(_delta_neighbors(cur))
        for step in moves:
            expansions += 1
            if expansions > budget:
                break
            try:
                nxt = replay(cur, step)
                nxt = Diagram(nxt.crossings, nxt.free_loops, check=False)
            except (InapplicableMove, MalformedDiagram):
                continue
            state = (nxt.crossings, nxt.free_loops)
            if state in reached:
                continue
            reached.add(state)
            if nxt.n_crossings > cap + 2:
                continue
            nxt, extra = simplify_with_script(nxt, r3_budget)
            if nxt.n_crossings > cap:
                continue
            key = nxt.canonical_key
            if key in seen:
                continue
            seen.add(key)
            nscript = script + step + extra
            if key == goal:
                return SearchResult(True, nscript, _move_count(nscript), expansions)
            frontier.append((nxt, nscript))
    return SearchResult(False, [], 0, expansions, "budget exhausted")


def delta_unknot(d: Diagram, budget: int = DEFAULT_BUDGET, cap_extra: int = 4,
                 r3_budget: int = 200) -> SearchResult:
    """Guided search for a triangle-flip route to the unknot.

    Best-first on crossings + 2|v2|: order-3 flips move v2 by one, so the
    search descends toward v2 = 0 and then chases the crossing count.
    Intermediates are capped at n(d) + cap_extra crossings.  Failures are
    budget artifacts, never counterexamples.

    As in bfs_path, neighbours whose exact pre-simplification state was
    already reached are skipped: their first visit decided their fate, so
    results are unchanged.
    """
    start, start_script = simplify_with_script(d, r3_budget)
    if start.n_crossings == 0:
        return SearchResult(True, list(start_script), 0, 0)
    cap = max(start.n_crossings, d.n_crossings) + cap_extra
    counter = 0
    heap: list[tuple[tuple[int, int, int], Diagram, Script]] = []

    def push(diagram: Diagram, script: Script):
        nonlocal counter
        counter += 1
        # Additive score lets the search climb out of v2 = 0 plateaus
        # (needed for composites whose summands have cancelling v2).
        score = diagram.n_crossings + 2 * abs(gauss.v2(diagram))
        heapq.heappush(heap, ((score, diagram.n_crossings, counter),
                              diagram, script))

    push(start, list(start_script))
    seen = {start.canonical_key}
    reached: set[tuple] = set()
    expansions = 0
    while heap and expansions < budget:
        _, cur, script = heapq.heappop(heap)
        for step in _delta_neighbors(cur):
            expansions += 1
            if expansions > budget:
                break
            try:
                nxt = replay(cur, step)
                nxt = Diagram(nxt.crossings, nxt.free_loops, check=False)
            except (InapplicableMove, MalformedDiagram):
                continue
            state = (nxt.crossings, nxt.free_loops)
            if state in reached:
                continue
            reached.add(state)
            nxt, extra = simplify_with_script(nxt, r3_budget)
            if nxt.n_crossings > cap:
                continue
            key = nxt.canonical_key
            if key in seen:
                continue
            seen.add(key)
            nscript = script + step + extra
            if nxt.n_crossings == 0:
                return SearchResult(True, nscript, _move_count(nscript), expansions)
            push(nxt, nscript)
    return SearchResult(False, [], 0, expansions, "budget exhausted")
