"""Polynomial knot invariants, computed exactly.

Two independent computation routes back every Vassiliev value reported by
this package: the Gauss-diagram counts live in :mod:`knotmoves.gauss`, and
this module supplies the polynomial side (Kauffman bracket / Jones and the
Conway polynomial via skein recursion on oriented link states).
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from . import moves
from .diagram import Diagram, Fragment, _IdJoiner
from .poly import LaurentPolynomial

_A = LaurentPolynomial.monomial(1)
_Ainv = LaurentPolynomial.monomial(-1)
_DELTA = LaurentPolynomial({2: -1, -2: -1})
_Z = LaurentPolynomial.monomial(1)

BRACKET_CROSSING_LIMIT = 20


class CrossingLimitExceeded(ValueError):
    pass


class SkeinBudgetExceeded(ValueError):
    pass


CONWAY_STATE_BUDGET = 500_000


class _Memo:
    """Thread-safe insert-if-absent cache (results are deterministic)."""

    def __init__(self) -> None:
        self._data: dict = {}
        self._lock = threading.Lock()

    def get(self, key):
        return self._data.get(key)

    def put(self, key, value):
        with self._lock:
            return self._data.setdefault(key, value)

    def __len__(self) -> int:
        return len(self._data)


# -- unoriented state keys ---------------------------------------------------

def _state_key(frag: Fragment) -> str:
    """Deterministic structural key for closed multiloop fragments.

    Canonical under relabeling along the chosen walk starts; used for
    memoization of smoothing states.
    """
    occ = frag.occurrences
    edges = sorted(occ)
    visited: set[int] = set()
    parts = []
    label: dict[int, int] = {}
    first_slot: dict[int, int] = {}
    for e0 in edges:
        if e0 in visited:
            continue
        walk_parts = []
        cur = (e0, 0)
        while True:
            edge, d = cur
            if edge in visited:
                break
            visited.add(edge)
            kind, ci, slot = frag.occurrences[edge][1 - d]
            if ci not in label:
                label[ci] = len(label)
                first_slot[ci] = slot
                walk_parts.append(f"{label[ci]}{'u' if slot % 2 == 0 else 'o'}")
            else:
                rel = (slot - first_slot[ci]) % 4
                walk_parts.append(f"{label[ci]}.{rel}")
            out = (slot + 2) % 4
            f = frag.crossings[ci].ends[out]
            cur = (f, 0 if frag.occurrences[f][0] == ("x", ci, out) else 1)
        parts.append(",".join(walk_parts))
    return f"L{frag.free_loops}|" + "|".join(parts)


# -- Kauffman bracket ---------------------------------------------------------

_CURL_FACTORS = {
    0: LaurentPolynomial({3: -1}),   # loop at slots (0,1) or (2,3): -A^3
    1: LaurentPolynomial({-3: -1}),  # loop at slots (1,2) or (3,0): -A^-3
}


def _smooth_unoriented(frag: Fragment, ci: int, mode: str) -> Fragment:
    c = frag.crossings[ci]
    joiner = _IdJoiner()
    if mode == "A":
        joiner.join(c.ends[0], c.ends[1])
        joiner.join(c.ends[2], c.ends[3])
    else:
        joiner.join(c.ends[1], c.ends[2])
        joiner.join(c.ends[3], c.ends[0])
    rest = [x for i, x in enumerate(frag.crossings) if i != ci]
    return Fragment(joiner.apply(rest), (), frag.free_loops + joiner.loops)


def _split_groups(frag: Fragment) -> list[Fragment]:
    """Split a closed fragment into crossing-connected groups."""
    comps = frag.closed_components()
    if not comps:
        return []
    comp_crossings = []
    for walk in comps:
        cset = set()
        for dart in walk:
            cset.add(frag._arrival(dart)[1])
        comp_crossings.append((walk, cset))
    groups: list[list[int]] = []
    assigned = [-1] * len(comps)
    for i in range(len(comps)):
        if assigned[i] >= 0:
            continue
        group = [i]
        assigned[i] = len(groups)
        stack = [i]
        while stack:
            j = stack.pop()
            for k in range(len(comps)):
                if assigned[k] < 0 and comp_crossings[j][1] & comp_crossings[k][1]:
                    assigned[k] = len(groups)
                    group.append(k)
                    stack.append(k)
        groups.append(group)
    out = []
    for group in groups:
        cis = sorted(set().union(*(comp_crossings[i][1] for i in group)))
        out.append(Fragment([frag.crossings[ci] for ci in cis], (), 0))
    return out


_bracket_memo = _Memo()


def _bracket_raw(frag: Fragment) -> LaurentPolynomial:
    """Standard-normalized bracket: <single circle> = 1, <X + circle> = delta <X>."""
    factor = LaurentPolynomial.one()
    loops = frag.free_loops
    frag = Fragment(frag.crossings, (), 0)
    while True:
        curls = moves.r1_removal_sites(frag)
        if curls:
            ci = curls[0][1]
            factor = factor * _CURL_FACTORS[moves._kink_slot(frag.crossings[ci]) % 2]
            frag = moves.r1_remove(frag, ci)
        else:
            bigons = moves.r2_removal_sites(frag)
            if not bigons:
                break
            frag = moves.r2_remove(frag, *bigons[0][1:])
        loops += frag.free_loops
        frag = Fragment(frag.crossings, (), 0)
    if not frag.crossings:
        return factor * _DELTA ** (loops - 1)
    factor = factor * _DELTA ** loops
    groups = _split_groups(frag)
    if len(groups) > 1:
        value = _DELTA ** (len(groups) - 1)
        for g in groups:
            value = value * _bracket_raw(g)
        return factor * value
    key = _state_key(frag)
    cached = _bracket_memo.get(key)
    if cached is None:
        a_val = _bracket_raw(_smooth_unoriented(frag, 0, "A"))
        b_val = _bracket_raw(_smooth_unoriented(frag, 0, "B"))
        cached = _bracket_memo.put(key, _A * a_val + _Ainv * b_val)
    return factor * cached


def kauffman_bracket(d: Diagram, limit: int = BRACKET_CROSSING_LIMIT) -> LaurentPolynomial:
    """Kauffman bracket in the variable A, normalized so <unknot> = 1."""
    if d.n_crossings > limit:
        raise CrossingLimitExceeded(
            f"{d.n_crossings} crossings exceeds bracket limit {limit}")
    if not d.crossings:
        return LaurentPolynomial.one()
    return _bracket_raw(Fragment(d.crossings, (), 0))


def jones(d: Diagram, limit: int = BRACKET_CROSSING_LIMIT) -> LaurentPolynomial:
    """Jones polynomial; exponents are stored in half-units of t.

    A term c * t^(k/2) is stored with key k.  For knots all keys are even.
    """
    bracket = kauffman_bracket(d, limit)
    w = d.writhe()
    wr = LaurentPolynomial({3 * (-w): (-1) ** (w % 2)})
    f = wr * bracket
    terms = {}
    for a_exp, coeff in f.items():
        if a_exp % 2:
            raise AssertionError("bracket produced an odd A-exponent")
        terms[-a_exp // 2] = coeff
    return LaurentPolynomial(terms)


# -- Conway polynomial via skein recursion -------------------------------------

class _OCrossing(NamedTuple):
    """Directed crossing: slot 0 is the incoming under edge.

    sign +1 means the over strand enters at slot 3 and leaves at slot 1;
    sign -1 the reverse.
    """

    ends: tuple[int, int, int, int]
    sign: int

    def in_slots(self) -> tuple[int, int]:
        return (0, 3 if self.sign > 0 else 1)

    def switched(self) -> "_OCrossing":
        e = self.ends
        if self.sign > 0:
            return _OCrossing((e[3], e[0], e[1], e[2]), -1)
        return _OCrossing((e[1], e[2], e[3], e[0]), 1)


class _OState(NamedTuple):
    crossings: tuple[_OCrossing, ...]
    free_loops: int


def _orient(d: Diagram) -> _OState:
    arrivals: dict[int, list[int]] = {}
    for ci, slot in d.passages:
        arrivals.setdefault(ci, []).append(slot)
    ocs = []
    for ci, c in enumerate(d.crossings):
        u_in = next(s for s in arrivals[ci] if s % 2 == 0)
        o_in = next(s for s in arrivals[ci] if s % 2 == 1)
        rotated = c.rotated(u_in)
        sign = 1 if (o_in - u_in) % 4 == 3 else -1
        ocs.append(_OCrossing(rotated.ends, sign))
    return _OState(tuple(ocs), d.free_loops)


def _oriented_maps(state: _OState):
    head: dict[int, tuple[int, int]] = {}
    tail: dict[int, tuple[int, int]] = {}
    for ci, oc in enumerate(state.crossings):
        ins = oc.in_slots()
        for s in range(4):
            e = oc.ends[s]
            if s in ins:
                head[e] = (ci, s)
            else:
                tail[e] = (ci, s)
    return head, tail


def _ostate_components(state: _OState) -> list[list[int]]:
    head, _ = _oriented_maps(state)
    comps = []
    visited: set[int] = set()
    edges = sorted(head)
    for e0 in edges:
        if e0 in visited:
            continue
        comp = []
        e = e0
        while e not in visited:
            visited.add(e)
            comp.append(e)
            ci, s = head[e]
            oc = state.crossings[ci]
            if s == 0:
                out = 2
            elif s == 3:
                out = 1
            else:
                out = 3
            e = oc.ends[out]
        comps.append(comp)
    return comps


def _ostate_key(state: _OState) -> str:
    head, _ = _oriented_maps(state)
    label: dict[int, int] = {}
    parts = []
    for comp in _ostate_components(state):
        cpart = []
        for e in comp:
            ci, s = head[e]
            lab = label.setdefault(ci, len(label))
            kind = "u" if s == 0 else "o"
            cpart.append(f"{lab}{kind}{'+' if state.crossings[ci].sign > 0 else '-'}")
        parts.append(",".join(cpart))
    return f"L{state.free_loops}|" + "|".join(parts)


def _first_violation(state: _OState):
    """First crossing whose first passage in the component scan is an underpass."""
    head, _ = _oriented_maps(state)
    seen: set[int] = set()
    for comp in _ostate_components(state):
        for e in comp:
            ci, s = head[e]
            if ci in seen:
                continue
            seen.add(ci)
            if s == 0:
                return ci
    return None


def _osmooth(state: _OState, ci: int) -> _OState:
    oc = state.crossings[ci]
    e = oc.ends
    joins = [(e[0], e[1]), (e[3], e[2])] if oc.sign > 0 else [(e[0], e[3]), (e[1], e[2])]
    joiner = _IdJoiner()
    for u, v in joins:
        joiner.join(u, v)
    rest = []
    for i, o in enumerate(state.crossings):
        if i == ci:
            continue
        rest.append(_OCrossing(tuple(joiner.find(x) for x in o.ends), o.sign))
    return _OState(tuple(rest), state.free_loops + joiner.loops)


def _oswitch(state: _OState, ci: int) -> _OState:
    crossings = list(state.crossings)
    crossings[ci] = crossings[ci].switched()
    return _OState(tuple(crossings), state.free_loops)


def _oreduce_curls(state: _OState) -> _OState:
    # Conway is R1-invariant, so curls are stripped without a factor.
    changed = True
    while changed:
        changed = False
        for ci, oc in enumerate(state.crossings):
            for s in range(4):
                if oc.ends[s] == oc.ends[(s + 1) % 4]:
                    joiner = _IdJoiner()
                    joiner.join(oc.ends[(s + 2) % 4], oc.ends[(s + 3) % 4])
                    rest = [
                        _OCrossing(tuple(joiner.find(x) for x in o.ends), o.sign)
                        for i, o in enumerate(state.crossings) if i != ci
                    ]
                    state = _OState(tuple(rest), state.free_loops + joiner.loops)
                    changed = True
                    break
            if changed:
                break
    return state


_conway_memo = _Memo()


def _conway_state(state: _OState, meter: list[int]) -> LaurentPolynomial:
    meter[0] += 1
    if meter[0] > meter[1]:
        raise SkeinBudgetExceeded(
            f"skein recursion exceeded {meter[1]} states")
    state = _oreduce_curls(state)
    n_comps = len(_ostate_components(state)) + state.free_loops
    if state.free_loops and n_comps > 1:
        return LaurentPolynomial.zero()
    if not state.crossings:
        return LaurentPolynomial.one() if n_comps == 1 else LaurentPolynomial.zero()
    key = _ostate_key(state)
    cached = _conway_memo.get(key)
    if cached is not None:
        return cached
    ci = _first_violation(state)
    if ci is None:
        value = LaurentPolynomial.one() if n_comps == 1 else LaurentPolynomial.zero()
    else:
        sign = state.crossings[ci].sign
        value = _conway_state(_oswitch(state, ci), meter) \
            + sign * _Z * _conway_state(_osmooth(state, ci), meter)
    return _conway_memo.put(key, value)


def conway(d: Diagram, budget: int = CONWAY_STATE_BUDGET) -> LaurentPolynomial:
    """Conway polynomial in z, via switch-and-smooth skein recursion.

    `budget` bounds the number of skein states visited; exceeding it raises
    SkeinBudgetExceeded.
    """
    return _conway_state(_orient(d), [0, budget])


# -- derived Vassiliev values ---------------------------------------------------

def _jones_int_exponents(d: Diagram) -> LaurentPolynomial:
    v = jones(d)
    terms = {}
    for half, coeff in v.items():
        if half % 2:
            raise AssertionError("knot Jones polynomial has half-integer exponent")
        terms[half // 2] = coeff
    return LaurentPolynomial(terms)


def v2_conway(d: Diagram) -> int:
    """Order-2 probe: the z^2 coefficient of the Conway polynomial."""
    return conway(d).coeff(2)


def v2_jones(d: Diagram) -> int:
    """Order-2 probe from Jones: -V''(1)/6."""
    j = _jones_int_exponents(d)
    num = j.derivative_at_one(2)
    if num % 6:
        raise AssertionError("V''(1) not divisible by 6")
    return -num // 6


def v3_jones(d: Diagram) -> int:
    """Order-3 probe from Jones: -(V'''(1) + 3 V''(1))/36."""
    j = _jones_int_exponents(d)
    num = j.derivative_at_one(3) + 3 * j.derivative_at_one(2)
    if num % 36:
        raise AssertionError("V'''(1) + 3V''(1) not divisible by 36")
    return -num // 36


def vassiliev_report(d: Diagram, jones_limit: int = BRACKET_CROSSING_LIMIT) -> dict:
    """v2 and v3 from the Gauss-diagram route, with polynomial cross-checks.

    The Jones-derived checks are skipped (reported as None) above the
    bracket crossing limit; the Conway check always runs.
    """
    from . import gauss

    g2, g3 = gauss.v2(d), gauss.v3(d)
    checks = {"v2_conway": g2 == v2_conway(d)}
    if d.n_crossings <= jones_limit:
        checks["v2_jones"] = g2 == v2_jones(d)
        checks["v3_jones"] = g3 == v3_jones(d)
    else:
        checks["v2_jones"] = None
        checks["v3_jones"] = None
    return {"v2": g2, "v3": g3, "crosschecks": checks}
