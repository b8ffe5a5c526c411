"""Bounded search for move sequences connecting diagrams.

Searches return replayable scripts (the move-script vocabulary of
knotmoves.moves plus "switch" and "delta" rewrites).  A result with
found=False means the budget ran out; it is never evidence that no path
exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import gauss
from .diagram import Diagram
from .moves import (Script, _canonical_key, _delta_steps, _Explorer, _switch_steps,
                    greedy_reduce, replay, simplify, simplify_with_script)

DEFAULT_BUDGET = 4000
MOVE_KINDS = frozenset({"B2", "B3", "B4"})


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


def _simplifier(r3_budget: int):
    """``simplify_with_script`` for one search, exploring each reduced start once.

    The R3 exploration and its script depend only on the exact greedy-reduced
    state, so a start reached again reuses its result.  A fresh dict per
    search keeps nothing between calls.
    """
    explored: dict[tuple, tuple[Diagram, Script]] = {}

    def simplify_once(d: Diagram) -> tuple[Diagram, Script]:
        start, prefix = greedy_reduce(d)
        state = (start.crossings, start.free_loops)
        if state not in explored:
            explored[state] = simplify_with_script(start, r3_budget)
        best, suffix = explored[state]
        return best, prefix + suffix

    return simplify_once


def bfs_path(d1: Diagram, d2: Diagram, movekinds: set[str],
             budget: int = DEFAULT_BUDGET, cap_extra: int = 4,
             r3_budget: int = 200) -> SearchResult:
    """Breadth-first search for a move path from d1 to d2.

    movekinds is a subset of {"B2", "B3", "B4"}: order-2 moves are crossing
    switches, order-3 moves are triangle flips with one optional R2 prep,
    and order 4 has no rewrite repertoire cheap enough for the crossing cap
    (so B4-only searches report exhaustion).  Intermediate diagrams are
    capped at n(d1) + cap_extra crossings.
    """
    bad = movekinds - MOVE_KINDS
    if bad:
        raise ValueError(f"unsupported move kinds: {sorted(bad)}")
    simplify_once = _simplifier(r3_budget)
    start, start_script = simplify_once(d1)
    goal = simplify(d2, r3_budget).canonical_key
    if start.canonical_key == goal:
        return SearchResult(True, [], 0, 0, "already equivalent")
    cap = max(start.n_crossings, d1.n_crossings) + cap_extra

    def steps(d: Diagram):
        if "B2" in movekinds:
            yield from _switch_steps(d)
        if "B3" in movekinds:
            yield from _delta_steps(d)

    def reduce(d: Diagram):
        if d.n_crossings > cap + 2:
            return None
        d, extra = simplify_once(d)
        return None if d.n_crossings > cap else (d, extra)

    walk = _Explorer(start, list(start_script), _canonical_key, steps, reduce, budget)
    for _, key, script in walk:
        if key == goal:
            return SearchResult(True, script, _move_count(script), walk.expansions)
    return SearchResult(False, [], 0, walk.expansions, "budget exhausted")


def delta_unknot(d: Diagram, budget: int = DEFAULT_BUDGET, cap_extra: int = 4,
                 r3_budget: int = 200) -> SearchResult:
    """Guided search for a triangle-flip route to the unknot.

    Best-first on crossings + 2|v2|: order-3 flips move v2 by one, so the
    search descends toward v2 = 0 and then chases the crossing count.
    The additive score lets the search climb out of v2 = 0 plateaus
    (needed for composites whose summands have cancelling v2).
    Intermediates are capped at n(d) + cap_extra crossings.  Failures are
    budget artifacts, never counterexamples.
    """
    simplify_once = _simplifier(r3_budget)
    start, start_script = simplify_once(d)
    cap = max(start.n_crossings, d.n_crossings) + cap_extra

    def reduce(nxt: Diagram):
        nxt, extra = simplify_once(nxt)
        return None if nxt.n_crossings > cap else (nxt, extra)

    def score(x: Diagram) -> int:
        return x.n_crossings + 2 * abs(gauss.v2(x))

    walk = _Explorer(start, list(start_script), _canonical_key, _delta_steps, reduce,
                     budget, score)
    for cur, _, script in walk:
        if cur.n_crossings == 0:
            return SearchResult(True, script, _move_count(script), walk.expansions)
    return SearchResult(False, [], 0, walk.expansions, "budget exhausted")
