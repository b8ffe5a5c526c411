"""Polynomial knot invariants, computed exactly.

Two independent computation routes back every Vassiliev value reported by
this package: the Gauss-diagram counts live in :mod:`knotmoves.gauss`, and
this module supplies the polynomial side (Kauffman bracket / Jones and the
Conway polynomial from an Alexander-matrix determinant).
"""

from __future__ import annotations

import math
import threading

from . import moves
from .diagram import Diagram, Fragment, _IdJoiner
from .poly import LaurentPolynomial
from .tangles import tangle_key

_A = LaurentPolynomial.monomial(1)
_Ainv = LaurentPolynomial.monomial(-1)
_DELTA = LaurentPolynomial({2: -1, -2: -1})

BRACKET_CROSSING_LIMIT = 20


class CrossingLimitExceeded(ValueError):
    pass


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
    mate = frag._slots[0]
    comp_crossings = [(walk, {mate[p] // 4 for p in walk}) for walk in comps]
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
    key = tangle_key(frag)
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


# -- Conway polynomial via the Alexander matrix ---------------------------------

def _alexander_rows(d: Diagram, t: int) -> list[list[int]]:
    """Fox-calculus rows of the Wirtinger presentation, evaluated at t.

    Arc k runs from the k-th underpass of the traversal to the next one.
    Crossing c gives (1 - t) on its over arc and t, -1 on its incoming and
    outgoing under arcs (swapped for negative crossings); entries add up
    where arcs coincide, as at kinks.
    """
    n = d.n_crossings
    rows = [[0] * n for _ in range(n)]
    arc = 0
    for ci, slot in d.passages:
        row = rows[ci]
        if slot % 2:
            row[arc % n] += 1 - t
        else:
            in_w, out_w = (t, -1) if d.signs[ci] > 0 else (-1, t)
            row[arc % n] += in_w
            arc += 1
            row[arc % n] += out_w
    return rows


def _det(m: list[list[int]]) -> int:
    """Integer determinant by fraction-free Bareiss elimination (m is consumed)."""
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            r = next((r for r in range(k + 1, n) if m[r][k]), None)
            if r is None:
                return 0
            m[k], m[r] = m[r], m[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for row in m[k + 1:]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - a * row_k[j]) // prev
        prev = pivot
    return sign * m[-1][-1] if n else 1


def _interpolate(values: list[int]) -> list[int]:
    """Integer coefficients, low to high, of the polynomial p with p(t) = values[t].

    Newton form: the k-th forward difference at 0 is k! times an integer
    when p has integer coefficients, so every division is exact.
    """
    newton = []
    diffs = list(values)
    while diffs:
        newton.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    coeffs: list[int] = []
    for k in range(len(newton) - 1, -1, -1):
        c, rem = divmod(newton[k], math.factorial(k))
        if rem:
            raise AssertionError("Alexander minor is not an integer polynomial")
        # coeffs * (t - k) + c
        nxt = [0] + coeffs
        for i, a in enumerate(coeffs):
            nxt[i] -= k * a
        nxt[0] += c
        coeffs = nxt
    return coeffs


def conway(d: Diagram) -> LaurentPolynomial:
    """Conway polynomial in z, from the Alexander polynomial.

    Any (n-1)-minor of the Alexander matrix is Delta(t) up to a unit
    +-t^k.  It is evaluated at t = 0..n-1 and interpolated exactly, then
    normalized so that Delta(t) = Delta(1/t) and Delta(1) = 1, and rewritten
    through t^k + t^-k = s_k(z), where s_0 = 2, s_1 = z^2 + 2 and
    s_{k+1} = (z^2 + 2) s_k - s_{k-1}.
    """
    if not d.crossings:
        return LaurentPolynomial.one()
    values = []
    for t in range(d.n_crossings):
        minor = [row[:-1] for row in _alexander_rows(d, t)[:-1]]
        values.append(_det(minor))
    coeffs = _interpolate(values)
    nonzero = [i for i, c in enumerate(coeffs) if c]
    coeffs = coeffs[nonzero[0]:nonzero[-1] + 1] if nonzero else []
    if sum(coeffs) not in (1, -1) or len(coeffs) % 2 == 0 or coeffs != coeffs[::-1]:
        raise AssertionError(f"not a knot's Alexander polynomial: {coeffs}")
    if sum(coeffs) < 0:
        coeffs = [-c for c in coeffs]
    mid = len(coeffs) // 2
    z2_plus_2 = LaurentPolynomial({0: 2, 2: 1})
    prev, cur = LaurentPolynomial({0: 2}), z2_plus_2
    nabla = LaurentPolynomial({0: coeffs[mid]})
    for k in range(1, mid + 1):
        nabla = nabla + coeffs[mid + k] * cur
        prev, cur = cur, z2_plus_2 * cur - prev
    return nabla


# -- derived Vassiliev values ---------------------------------------------------

def _jones_int_exponents(v: LaurentPolynomial) -> LaurentPolynomial:
    terms = {}
    for half, coeff in v.items():
        if half % 2:
            raise AssertionError("knot Jones polynomial has half-integer exponent")
        terms[half // 2] = coeff
    return LaurentPolynomial(terms)


def _v2_from_jones(v: LaurentPolynomial) -> int:
    num = _jones_int_exponents(v).derivative_at_one(2)
    if num % 6:
        raise AssertionError("V''(1) not divisible by 6")
    return -num // 6


def _v3_from_jones(v: LaurentPolynomial) -> int:
    j = _jones_int_exponents(v)
    num = j.derivative_at_one(3) + 3 * j.derivative_at_one(2)
    if num % 36:
        raise AssertionError("V'''(1) + 3V''(1) not divisible by 36")
    return -num // 36


def v2_conway(d: Diagram) -> int:
    """Order-2 probe: the z^2 coefficient of the Conway polynomial."""
    return conway(d).coeff(2)


def v2_jones(d: Diagram) -> int:
    """Order-2 probe from Jones: -V''(1)/6."""
    return _v2_from_jones(jones(d))


def v3_jones(d: Diagram) -> int:
    """Order-3 probe from Jones: -(V'''(1) + 3 V''(1))/36."""
    return _v3_from_jones(jones(d))


def vassiliev_report(d: Diagram, jones_limit: int = BRACKET_CROSSING_LIMIT) -> dict:
    """v2 and v3 from the Gauss-diagram route, with polynomial cross-checks.

    The Jones-derived checks are skipped (reported as None) above the
    bracket crossing limit; the Conway check always runs.  The report also
    carries the polynomials the checks used: "conway", and "jones" (None
    above the limit).
    """
    from . import gauss

    g2, g3 = gauss.v2(d), gauss.v3(d)
    nabla = conway(d)
    v = jones(d, jones_limit) if d.n_crossings <= jones_limit else None
    checks = {"v2_conway": g2 == nabla.coeff(2),
              "v2_jones": None if v is None else g2 == _v2_from_jones(v),
              "v3_jones": None if v is None else g3 == _v3_from_jones(v)}
    return {"v2": g2, "v3": g3, "crosschecks": checks, "conway": nabla, "jones": v}
