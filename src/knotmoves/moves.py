"""Reidemeister moves on diagram fragments.

All moves are expressed as small rewirings of crossing records and are
recorded as serializable script entries so that any move sequence can be
replayed and checked.  Crossing indices in script entries refer to the
fragment state at that step.

The triangle slide implemented here serves double duty: with a coherent
over/under pattern it is the R3 move (an isotopy); with the cyclic pattern
it changes the knot and is used by the move engine as the order-3 rewrite.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Iterable, Sequence

from .diagram import Crossing, Diagram, Fragment, _IdJoiner

Script = list[tuple]


class InapplicableMove(ValueError):
    """Raised when a move site does not admit the requested move."""


def _rebuild(frag: Fragment, crossings, legs=None, free_loops=None):
    legs = frag.legs if legs is None else legs
    loops = frag.free_loops if free_loops is None else free_loops
    if isinstance(frag, Diagram):
        return Diagram(crossings, loops, basepoint=None, check=False)
    return type(frag)(crossings, legs, loops)


def _finish(frag: Fragment, crossings: list[Crossing], joiner: _IdJoiner):
    crossings = joiner.apply(crossings)
    legs = tuple(joiner.find(e) for e in frag.legs)
    return _rebuild(frag, crossings, legs, frag.free_loops + joiner.loops)


# -- R1 ---------------------------------------------------------------------

def _kink_slot(c: Crossing) -> int | None:
    """First slot s whose end is also the end at slot s + 1 (an R1 kink)."""
    a, b, x, y = c.ends
    return 0 if a == b else 1 if b == x else 2 if x == y else 3 if y == a else None


def r1_removal_sites(frag: Fragment) -> list[tuple]:
    return [("r1-", ci) for ci, c in enumerate(frag.crossings) if _kink_slot(c) is not None]


def r1_remove(frag: Fragment, ci: int) -> Fragment:
    """Remove the kink of the ``r1_removal_sites`` entry ("r1-", ci)."""
    c = frag.crossings[ci]
    loop_slot = _kink_slot(c)
    p = c.ends[(loop_slot + 2) % 4]
    q = c.ends[(loop_slot + 3) % 4]
    joiner = _IdJoiner()
    joiner.join(p, q)
    rest = [x for i, x in enumerate(frag.crossings) if i != ci]
    return _finish(frag, rest, joiner)


def r1_add_sites(frag: Fragment) -> list[tuple]:
    """A kink of each chirality on every edge, or on edge 0 of the bare circle."""
    edges = frag.edges() or ([0] if frag.free_loops == 1 else [])
    return [("r1+", e, chirality) for e in edges for chirality in (1, -1)]


def r1_add(frag: Fragment, edge: int, chirality: int) -> Fragment:
    """Add the kink of the ``r1_add_sites`` entry ("r1+", edge, chirality)."""
    if not frag.crossings and not frag.legs:
        # Kink on the bare circle: one big arc plus the curl loop.
        return _rebuild(frag, [Crossing((1, 1, 2, 2) if chirality > 0 else (1, 2, 2, 1))], (), 0)
    fresh = frag.max_edge_id() + 1
    b, g = fresh, fresh + 1
    crossings, legs = frag._with_ends({frag._code((edge, 1)): b})
    crossings.append(Crossing((edge, b, g, g) if chirality > 0 else (edge, g, g, b)))
    return _rebuild(frag, crossings, tuple(legs), frag.free_loops)


# -- R2 ---------------------------------------------------------------------

def _bigon_faces(frag: Fragment) -> list[list[int]]:
    """Face walks (as codes) of two distinct edges between two crossings.

    A walk that meets a leg turns back along the leg's edge and so repeats
    an edge: bigons never touch a leg.
    """
    mate = frag._slots[0]
    return [w for w in frag._face_walks
            if len(w) == 2 and w[1] != mate[w[0]] and w[0] >> 2 != mate[w[0]] >> 2]


def r2_removal_sites(frag: Fragment) -> list[tuple]:
    mate, dart, _ = frag._slots
    sites = []
    for p, q in _bigon_faces(frag):
        # p leaves corner p >> 2 for corner q >> 2 and q leaves it back, in
        # adjacent slots: the two edges lie on two strands.  The bigon is
        # removable when p's edge takes the same strand (under or over) at
        # both corners.  Two edges bound at most one bigon: none repeats.
        if p & 1 == mate[p] & 1:
            ci, cj = sorted((p >> 2, q >> 2))
            sites.append(("r2-", ci, cj, dart[p][0], dart[q][0]))
    return sites


def r2_remove(frag: Fragment, ci: int, cj: int, x: int, y: int) -> Fragment:
    """Remove the bigon of the ``r2_removal_sites`` entry ("r2-", ci, cj, x, y)."""
    cx, cy = frag.crossings[ci], frag.crossings[cj]
    joiner = _IdJoiner()
    for e in (x, y):
        joiner.join(cx.ends[(cx.ends.index(e) + 2) % 4], cy.ends[(cy.ends.index(e) + 2) % 4])
    rest = [c for i, c in enumerate(frag.crossings) if i not in (ci, cj)]
    return _finish(frag, rest, joiner)


def r2_add_sites(frag: Fragment) -> list[tuple]:
    sites = []
    for walk in frag.face_walks():
        m = len(walk)
        for i in range(m):
            for j in range(i + 1, m):
                (e, de), (f, df) = walk[i], walk[j]
                if e == f:
                    continue
                sites.append(("r2+", e, de, f, df, True))
                sites.append(("r2+", e, de, f, df, False))
    return sites


def r2_add(frag: Fragment, e: int, de: int, f: int, df: int, over: bool) -> Fragment:
    """Push e across f at the ``r2_add_sites`` entry ("r2+", e, de, f, df, over)."""
    # The ends where the darts (e, de) and (f, df) arrive get the new flanks.
    fresh = frag.max_edge_id() + 1
    a2, b2, m, w = fresh, fresh + 1, fresh + 2, fresh + 3
    crossings, legs = frag._with_ends({frag._code((e, 1 - de)): a2, frag._code((f, 1 - df)): b2})
    # Face walks keep the face on the right, so the two strands run
    # antiparallel along the face: e dips across f with flanks wired as
    # (e=a1) -cW- m -cE- a2 and (f=b1) -cE- w -cW- b2.
    if over:
        cw = Crossing((w, e, b2, m))
        ce = Crossing((f, a2, w, m))
    else:
        cw = Crossing((e, b2, m, w))
        ce = Crossing((a2, w, m, f))
    crossings.extend([cw, ce])
    return _rebuild(frag, crossings, tuple(legs), frag.free_loops)


# -- R3 / triangle slides ----------------------------------------------------

def triangle_faces(frag: Fragment) -> list[list[int]]:
    """Face walks (as codes) of three distinct edges between three crossings.

    Like bigons, they never touch a leg: a walk that meets one repeats an edge.
    """
    mate, dart, _ = frag._slots
    return [w for w in frag._face_walks if len(w) == 3
            and len({dart[p][0] for p in w}) == 3 and len({mate[p] >> 2 for p in w}) == 3]


def triangle_slide_sites(frag: Fragment, kind: str = "r3") -> list[tuple]:
    """Slide sites on triangle faces; kind is 'r3' (isotopy) or 'delta'."""
    sites = []
    for walk in triangle_faces(frag):
        for moving in range(3):
            site = _classify_slide(frag, walk, moving)
            if site[0] == kind:
                sites.append(site)
    return sites


def _classify_slide(frag: Fragment, walk: list[int], moving: int) -> tuple:
    # The walk leaves corner c3 along x31 for c1, along x12 for c2 and along
    # x23 back to c3.  The slide is an R3 move when x12 takes the same
    # strand (under or over) at c1 and c2.
    mate, dart, _ = frag._slots
    p31, p12, p23 = walk[moving:] + walk[:moving]
    coherent = p12 & 1 == mate[p12] & 1
    return ("r3" if coherent else "delta", mate[p31] >> 2, mate[p12] >> 2,
            mate[p23] >> 2, dart[p12][0], dart[p23][0], dart[p31][0])


def triangle_slide(frag: Fragment, c1: int, c2: int, c3: int,
                   x12: int, x23: int, x31: int) -> Fragment:
    """Slide the strand carrying x12 across the opposite corner c3.

    Preserves every pairwise over/under relation; whether this is an R3
    isotopy or an order-3 move depends only on the pattern at the corners.
    The site is an entry of ``triangle_slide_sites`` without its tag.
    """
    return _rebuild(frag, _slide_records(frag, c1, c2, c3, x12, x23, x31))


def _slide_records(frag: Fragment, c1: int, c2: int, c3: int,
                   x12: int, x23: int, x31: int) -> tuple[Crossing, ...]:
    """The crossing records after ``triangle_slide``, with nothing built:
    across each side of the triangle, its two corners swap the ends beyond
    that side.  Each strand keeps its slot pair at each record, so
    over/under data is untouched."""
    old = frag.crossings
    new = {c: list(old[c].ends) for c in (c1, c2, c3)}
    for x, ci, cj in ((x12, c1, c2), (x23, c2, c3), (x31, c3, c1)):
        si, sj = old[ci].ends.index(x) ^ 2, old[cj].ends.index(x) ^ 2
        new[ci][si], new[cj][sj] = old[cj].ends[sj], old[ci].ends[si]
    crossings = list(old)
    for c, ends in new.items():
        crossings[c] = Crossing(tuple(ends))
    return tuple(crossings)


def _switched(frag: Fragment, ci: int) -> tuple[Crossing, ...]:
    """The crossing records after switching crossing ci."""
    return frag.crossings[:ci] + (frag.crossings[ci].mirrored(),) + frag.crossings[ci + 1:]


# -- scripts ------------------------------------------------------------------

# Each script entry's field types after the tag, and where it applies.  Only
# the R2 over flag is a bool: JSON true and 1.0 equal 1 but are no index or
# edge id.  The site finders are the one definition of where a move applies,
# checked here once: an entry applies only where its finder lists it (which
# also checks an r3/delta label against the corner pattern), an R2 push also
# with its two darts in reversed order, and a switch on any crossing.
_MOVES = {
    "r1-": ((int,), lambda frag, ci: ("r1-", ci) in r1_removal_sites(frag)),
    "r1+": ((int, int), lambda frag, *site: ("r1+", *site) in r1_add_sites(frag)),
    "r2-": ((int,) * 4, lambda frag, *site: ("r2-", *site) in r2_removal_sites(frag)),
    "r2+": ((int,) * 4 + (bool,), lambda frag, e, de, f, df, over: e != f and any(
        (e, de) in walk and (f, df) in walk for walk in frag.face_walks())),
    "r3": ((int,) * 6, lambda frag, *site: ("r3", *site) in triangle_slide_sites(frag, "r3")),
    "delta": ((int,) * 6,
              lambda frag, *site: ("delta", *site) in triangle_slide_sites(frag, "delta")),
    "switch": ((int,), lambda frag, ci: 0 <= ci < frag.n_crossings),
}


def apply_move(frag: Fragment, entry: Sequence) -> Fragment:
    """Apply one script entry ``(op, *fields)`` where ``_MOVES`` says it
    applies: the check for every entry of a replayed script."""
    op, fields = entry[0], entry[1:]
    if op not in _MOVES:
        raise InapplicableMove(f"unknown move {op!r}")
    types, applies = _MOVES[op]
    if tuple(map(type, fields)) != types:
        raise InapplicableMove(f"bad fields for {op}: {list(fields)!r}")
    if not applies(frag, *fields):
        raise InapplicableMove(f"no {op} site at {list(fields)!r}")
    return _apply(frag, op, fields)


def _apply(frag: Fragment, op: str, fields: Sequence) -> Fragment:
    """Apply a move at a site known to be one, with no check."""
    if op == "switch":
        return _rebuild(frag, _switched(frag, *fields))
    move = {"r1-": r1_remove, "r1+": r1_add, "r2-": r2_remove, "r2+": r2_add}.get(op, triangle_slide)
    return move(frag, *fields)


def replay(frag: Fragment, script: Sequence[Sequence]) -> Fragment:
    for entry in script:
        frag = apply_move(frag, entry)
    return frag


# -- bounded exploration -------------------------------------------------------

class _Explorer:
    """Bounded breadth-first (or best-first) exploration of move sequences.

    Iterating yields ``(fragment, key, script)`` for every state whose
    ``key`` is new, the start first: each kind of fragment names what the
    explorer compares (``Diagram.key``, ``Tangle.key``).  ``expansions`` is
    the running count of steps tried.  ``steps(fragment)`` yields
    ``(entries, base, records)``: a step's script entries, the fragment its
    last entry (a rewrite or slide, which keeps legs and free loops) applies
    to, and the crossing records after it, which only permute ends and so
    are built with no check.  Each step is one expansion, counted only once
    the budget allows it; the walk stops once ``budget`` expansions are
    spent, or once the frontier is empty, which sets ``exhausted``.
    ``reduce(raw)`` returns ``(fragment, extra_script)``, or None to drop
    the neighbour, and a step with records None is one whose neighbour the
    caller knows ``reduce`` would drop: it is counted and dropped with
    nothing built, reduced or keyed.  A reduced neighbour with more than
    ``cap`` crossings is dropped and counted in ``capped``.  The frontier is
    one heap, ranked by arrival (FIFO), or by ``(score(fragment),
    n_crossings, arrival)`` when ``score`` is given.  A state is pushed
    after it is yielded, so a caller that stops at its goal never pays for
    scoring it.

    A neighbour whose exact state (records, legs and free loops) was already
    reached is skipped before it is built, reduced and keyed.  Reducing that
    state again gives the same result or a drop, so the first visit already
    either dropped it or put its key into ``seen``: a repeat could only be
    discarded, and since its expansion is counted first, scripts, keys and
    expansion counts are the same as without the skip.
    """

    def __init__(self, start: Fragment, script: Script,
                 steps: Callable[[Fragment], Iterable[tuple]],
                 reduce: Callable[[Fragment], tuple[Fragment, Script] | None],
                 budget: int, cap: int, score: Callable[[Fragment], int] | None = None):
        self.start, self.script = start, script
        self.steps, self.reduce = steps, reduce
        self.budget, self.cap, self.score = budget, cap, score
        self.expansions = self.capped = 0
        self.exhausted = False

    def __iter__(self):
        budget, cap, score = self.budget, self.cap, self.score
        frontier: list = []
        arrival = itertools.count()

        def push(frag, script):
            # Arrival is unique, so a tie never compares two fragments.
            rank = (score(frag), frag.n_crossings, next(arrival)) if score else next(arrival)
            heapq.heappush(frontier, (rank, frag, script))

        key = self.start.key
        seen = {key}
        reached: set[tuple] = set()
        yield self.start, key, self.script
        push(self.start, self.script)
        while frontier and self.expansions < budget:
            _, cur, script = heapq.heappop(frontier)
            for entries, base, records in self.steps(cur):
                if self.expansions == budget:
                    return
                self.expansions += 1
                if records is None:
                    continue
                state = (records, base.legs, base.free_loops)
                if state in reached:
                    continue
                reached.add(state)
                reduced = self.reduce(_rebuild(base, records))
                if reduced is None:
                    continue
                nxt, extra = reduced
                if nxt.n_crossings > cap:
                    self.capped += 1
                    continue
                key = nxt.key
                if key in seen:
                    continue
                seen.add(key)
                nscript = script + list(entries) + extra
                yield nxt, key, nscript
                push(nxt, nscript)
        self.exhausted = not frontier


def _rewrites(frag: Fragment, k: int) -> list[tuple]:
    """The order-k rewrite entries on frag's own crossings: a switch of each
    crossing for k = 2, in crossing order, and each triangle flip for k = 3,
    in ``triangle_slide_sites`` order; none for other orders."""
    if k == 2:
        return [("switch", ci) for ci in range(frag.n_crossings)]
    return triangle_slide_sites(frag, "delta") if k == 3 else []


def _step(base: Fragment, *entries: tuple) -> tuple:
    """The explorer step of entries whose last, a rewrite or slide, applies to base."""
    op, *fields = entries[-1]
    return entries, base, (_switched if op == "switch" else _slide_records)(base, *fields)


def _rewrite_steps(frag: Fragment, k: int, dropped: Callable[[tuple], bool] | None = None):
    """Order-k rewrites, then for k = 3 each R2 push followed by every flip
    of the pushed diagram.

    Most of those flips lie away from the push.  A flip of the pushed
    diagram whose entry is also one of frag's own flips, its twin, has three
    old corners and three old edges, so it slides the same triangle; the
    push's bigon survives it, and removing the bigon gives the twin's
    neighbour up to relabelling.  Removals are confluent, so both neighbours
    greedily reduce to one key.  Expansion counts pin this order, so these
    steps stay.  ``dropped(records)``, when given, is asked about the
    records of each twin, which this generator yielded first, and a step
    whose twin it answers True for comes with records None.
    """
    own = {}  # the records of each of frag's own rewrites
    for entry in _rewrites(frag, k):
        step = _step(frag, entry)
        own[entry] = step[2]
        yield step
    for prep in r2_add_sites(frag) if k == 3 else ():
        # A listed push needs no check: apply it directly.
        pushed = r2_add(frag, *prep[1:])
        for entry in _rewrites(pushed, 3):
            if dropped and entry in own and dropped(own[entry]):
                yield (prep, entry), pushed, None
            else:
                yield _step(pushed, prep, entry)


def _r3_steps(frag: Fragment):
    return (_step(frag, site) for site in triangle_slide_sites(frag, "r3"))


# -- simplification -----------------------------------------------------------

def greedy_reduce(frag: Fragment) -> tuple[Fragment, Script]:
    """Apply R1/R2 removals until none remain; returns the result and script."""
    script: Script = []
    while True:
        sites = r1_removal_sites(frag) or r2_removal_sites(frag)
        if not sites:
            return frag, script
        # A listed site needs no check: apply it directly.
        frag = _apply(frag, sites[0][0], sites[0][1:])
        script.append(sites[0])


def simplify(frag: Fragment, r3_budget: int = 1000) -> tuple[Fragment, Script]:
    """Greedy R1/R2 reduction plus a budgeted R3 exploration of a diagram or
    a tangle; returns the result, of the input's kind, and its script.

    Never returns a fragment with more crossings than the input; ties are
    broken by the fragment's ``key`` for determinism.  R3 slides keep the
    crossing count and greedy reduction only removes crossings, so the cap
    at the reduced start's count drops no neighbour.
    """
    best, best_script, _ = _explore_r3(*greedy_reduce(frag), r3_budget)
    return best, best_script


def _explore_r3(start: Fragment, script: Script,
                r3_budget: int) -> tuple[Fragment, Script, set[str]]:
    """``simplify`` from a greedy-reduced start reached by script: the result,
    its script, and the start's R3 class if the exploration finished (its
    frontier emptied with fewer than ``r3_budget`` expansions spent), else
    an empty set.  The class is every key it visited at the start's
    crossing count."""
    n = start.n_crossings
    walk = _Explorer(start, script, _r3_steps, greedy_reduce, r3_budget, n)
    visited = list(walk)
    best, _, best_script = min(visited, key=lambda s: (s[0].n_crossings, s[1]))
    if not walk.exhausted or walk.expansions >= r3_budget:
        return best, best_script, set()
    return best, best_script, {key for frag, key, _ in visited if frag.n_crossings == n}


# -- random perturbation -------------------------------------------------------

def random_perturb(d: Diagram, steps: int, seed: int, max_extra: int = 6) -> Diagram:
    """Apply `steps` random R-moves; crossing growth capped at `max_extra`."""
    rng = random.Random(seed)
    base = d.n_crossings
    for _ in range(steps):
        candidates = r1_removal_sites(d) + r2_removal_sites(d) + triangle_slide_sites(d, "r3")
        if d.n_crossings < base + max_extra:
            candidates += r1_add_sites(d) + r2_add_sites(d)
        if not candidates:
            break
        # A listed site needs no check: apply it directly.
        entry = candidates[rng.randrange(len(candidates))]
        d = _apply(d, entry[0], entry[1:])  # type: ignore[assignment]
    return d
