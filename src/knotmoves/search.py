"""Bounded search for move sequences connecting diagrams.

Searches return replayable scripts (the move-script vocabulary of
knotmoves.moves plus "switch" and "delta" rewrites).  A result with
found=False says what stopped the search: the budget ran out ("budget
exhausted"), or every state reachable under the crossing cap was explored
("move graph exhausted under the crossing cap").  Neither is evidence that
no path exists: a path may need more expansions, or larger intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import gauss
from .diagram import Diagram
from .moves import Script, _Explorer, _rewrite_steps, greedy_reduce, replay, simplify

DEFAULT_BUDGET = 4000
MOVE_KINDS = frozenset({"B2", "B3", "B4"})
CAP_EXTRA = 4  # crossings an intermediate may have above the start
R3_BUDGET = 200  # R3 expansions per reduced start


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


def replay_path(d: Diagram, script: Script, target_key: str) -> bool:
    """Replay a script on d; True iff the simplified result hits target_key."""
    final, _ = simplify(replay(d, script))  # type: ignore[arg-type]
    return final.canonical_key == target_key


def _move_count(script: Script) -> int:
    return sum(1 for e in script if e[0] in ("switch", "delta"))


def _simplifier(r3_budget: int):
    """``simplify`` for one search, exploring each reduced start once.

    The R3 exploration and its script depend only on the exact greedy-reduced
    state, so a start reached again reuses its result.  A fresh dict per
    search keeps nothing between calls.
    """
    explored: dict[tuple, tuple[Diagram, Script]] = {}

    def simplify_once(d: Diagram) -> tuple[Diagram, Script]:
        start, prefix = greedy_reduce(d)
        state = (start.crossings, start.free_loops)
        if state not in explored:
            explored[state] = simplify(start, r3_budget)
        best, suffix = explored[state]
        return best, prefix + suffix

    return simplify_once


def _search(d: Diagram, steps, at_goal, budget: int, score=None) -> SearchResult:
    """Explore from the simplified d until ``at_goal(diagram, key)``.

    The explorer drops neighbours above the crossing cap; the start comes first.
    """
    simplify_once = _simplifier(R3_BUDGET)
    start, start_script = simplify_once(d)
    # Simplifying never adds crossings, so the start is under the cap.
    walk = _Explorer(start, list(start_script), steps, simplify_once, budget,
                     d.n_crossings + CAP_EXTRA, score)
    for cur, key, script in walk:
        if at_goal(cur, key):
            return SearchResult(True, script, _move_count(script), walk.expansions)
    note = "move graph exhausted under the crossing cap" if walk.exhausted else "budget exhausted"
    return SearchResult(False, [], 0, walk.expansions, note)


def bfs_path(d1: Diagram, d2: Diagram, movekinds: set[str],
             budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Breadth-first search for a move path from d1 to d2.

    movekinds is a subset of {"B2", "B3", "B4"}: order-2 moves are crossing
    switches, order-3 moves are triangle flips with one optional R2 prep,
    and order 4 has no rewrite repertoire cheap enough for the crossing cap
    (so B4-only searches report the move graph exhausted).  Intermediate
    diagrams are capped at n(d1) + CAP_EXTRA crossings.
    """
    bad = movekinds - MOVE_KINDS
    if bad:
        raise ValueError(f"unsupported move kinds: {sorted(bad)}")
    goal = simplify(d2, R3_BUDGET)[0].canonical_key
    orders = sorted(int(kind[1:]) for kind in movekinds)

    def steps(d: Diagram):
        for k in orders:
            yield from _rewrite_steps(d, k)

    res = _search(d1, steps, lambda _, key: key == goal, budget)
    if res.found and not res.expansions:
        return SearchResult(True, [], 0, 0, "already equivalent")
    return res


def delta_unknot(d: Diagram, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Guided search for a triangle-flip route to the unknot.

    Best-first on crossings + 2|v2|: order-3 flips move v2 by one, so the
    search descends toward v2 = 0 and then chases the crossing count.
    The additive score lets the search climb out of v2 = 0 plateaus
    (needed for composites whose summands have cancelling v2).
    Intermediates are capped at n(d) + CAP_EXTRA crossings.  Failures are
    artifacts of the budget or the cap, never counterexamples.
    """
    def score(x: Diagram) -> int:
        return x.n_crossings + 2 * abs(gauss.v2(x))

    return _search(d, lambda x: _rewrite_steps(x, 3), lambda cur, _: cur.n_crossings == 0,
                   budget, score)
