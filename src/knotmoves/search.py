"""Bounded search for move sequences connecting diagrams.

Searches return replayable scripts (the move-script vocabulary of
knotmoves.moves plus "switch" and "delta" rewrites).  A result with
found=False says what stopped the search: the budget ran out ("budget
exhausted"), or every reachable state was explored ("move graph
exhausted"), with the note "move graph exhausted under the crossing cap"
when the cap dropped a neighbour on the way.  None is evidence that no
path exists: a path may need more expansions, or larger intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import gauss
from .diagram import Diagram
from .moves import (Script, _Explorer, _explore_r3, _rewrite_steps, greedy_reduce, replay,
                    simplify)

DEFAULT_BUDGET = 4000
MOVE_KINDS = frozenset({"B2", "B3"})
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
    """``simplify`` as the ``reduce`` of one search's explorer, memoized by
    key, and the ``dropped`` test of its twin steps (``_rewrite_steps``).

    A neighbour whose greedy-reduced start has a key in ``finished`` is
    dropped (None) unexplored.  ``finished`` holds the R3 class of every
    start whose exploration finished earlier in the search: the keys it
    visited at the start's crossing count.  That exploration's result went
    to the same explorer, which kept its key or dropped it above the
    crossing cap, and the neighbour's result would have the same crossing
    count and key:
    - distinct R1/R2 removal sites that share no crossing commute;
    - two that share one (R1 and R2, or two R2 bigons) end in the same
      diagram up to relabelling;
    - every removal deletes crossings, so removals terminate, and by
      Newman's lemma (Ann. Math. 43, 1942) every order of them ends in one
      diagram up to relabelling: ``greedy_reduce``'s key depends only on
      its input's key;
    - R3 sites correspond under relabelling, so an exploration that
      finishes visits a key set, and spends an expansion count, that depend
      only on the start's key.  A start with the same key also finishes,
      with the same best ``(n_crossings, key)``;
    - a key visited at the start's count was reached by R3 slides alone,
      since greedy reduction only lowers the count, and a slide undone is
      an R3 slide: an exploration from any key of the class visits the
      same keys and so ends as the start's did.
    Every other neighbour is explored, so each kept state and script is the
    one ``simplify`` gives.  An exploration that stops at ``r3_budget``
    records nothing.

    ``starts`` keeps the start key of every raw neighbour's records.  A twin
    step reduces to its twin's start key, so ``dropped(records)`` is True
    when the twin's start key is in ``finished``: the explorer then drops
    the step before building it, as ``simplify_once`` would drop it after.
    A knot diagram with crossings has no free loop, so its records alone
    name its state.  Fresh sets per search keep nothing between calls.
    """
    finished: set[str] = set()
    starts: dict[tuple, str] = {}

    def simplify_once(d: Diagram) -> tuple[Diagram, Script] | None:
        start, prefix = greedy_reduce(d)
        starts[d.crossings] = start.key
        if start.key in finished:
            return None
        best, script, members = _explore_r3(start, prefix, r3_budget)
        finished.update(members)
        return best, script

    def dropped(records: tuple) -> bool:
        return starts.get(records) in finished

    return simplify_once, dropped


def _search(d: Diagram, orders: list[int], at_goal, budget: int, score=None) -> SearchResult:
    """Explore by the order-k rewrites for k in orders from the simplified d
    until ``at_goal(diagram, key)``.

    The explorer drops neighbours above the crossing cap; the start comes first.
    """
    simplify_once, dropped = _simplifier(R3_BUDGET)

    def steps(x: Diagram):
        for k in orders:
            yield from _rewrite_steps(x, k, dropped)

    # The memo is empty, so the start is not dropped; simplifying never adds
    # crossings, so it is under the cap.
    start, start_script = simplify_once(d)  # type: ignore[misc]
    walk = _Explorer(start, list(start_script), steps, simplify_once, budget,
                     d.n_crossings + CAP_EXTRA, score)
    for cur, key, script in walk:
        if at_goal(cur, key):
            return SearchResult(True, script, _move_count(script), walk.expansions)
    note = "budget exhausted"
    if walk.exhausted:
        note = "move graph exhausted" + (" under the crossing cap" if walk.capped else "")
    return SearchResult(False, [], 0, walk.expansions, note)


def bfs_path(d1: Diagram, d2: Diagram, movekinds: set[str],
             budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Breadth-first search for a move path from d1 to d2.

    movekinds is a subset of {"B2", "B3"}: order-2 moves are crossing
    switches, order-3 moves are triangle flips with one optional R2 prep.
    Order 4 has no rewrite repertoire cheap enough for the crossing cap, so
    "B4" raises ValueError like any other unknown kind, and so does an empty
    set, which would give a search with no step.  Intermediate
    diagrams are capped at n(d1) + CAP_EXTRA crossings.
    """
    if not movekinds:
        raise ValueError("no move kind given")
    bad = movekinds - MOVE_KINDS
    if bad:
        raise ValueError(f"unsupported move kinds: {sorted(bad)}")
    goal = simplify(d2, R3_BUDGET)[0].canonical_key
    orders = sorted(int(kind[1:]) for kind in movekinds)
    res = _search(d1, orders, lambda _, key: key == goal, budget)
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

    return _search(d, [3], lambda cur, _: cur.n_crossings == 0, budget, score)
