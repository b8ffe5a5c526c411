"""Polynomial knot invariants, computed exactly.

Two independent computation routes back every Vassiliev value reported by
this package: the Gauss-diagram counts live in :mod:`knotmoves.gauss`, and
this module supplies the polynomial side (Kauffman bracket / Jones and the
Conway polynomial from an Alexander-matrix determinant).
"""

from __future__ import annotations

from .diagram import Crossing, Diagram
from .poly import LaurentPolynomial

BRACKET_CROSSING_LIMIT = 20


class CrossingLimitExceeded(ValueError):
    pass


# -- Kauffman bracket ---------------------------------------------------------

def _join(match: dict[int, int], x: int, y: int) -> int:
    """Add the arc x-y to the matching of open ends; return 1 if it closes a loop.

    An end that is already open is extended to its partner; the partners'
    stale entries are overwritten by the new pair.
    """
    if x == y:
        return 1
    x2, y2 = match.pop(x, x), match.pop(y, y)
    if x2 == y:
        return 1
    match[x2], match[y2] = y2, x2
    return 0


def _contract(crossings: tuple[Crossing, ...]) -> LaurentPolynomial:
    """Bracket of a knot by planar contraction, normalized so <unknot> = 1.

    Crossings are added one at a time, the next being the one with the most
    edges already open (lowest index on ties).  The states map each matching
    of the open edges, stored as the partner of each open edge in sorted
    order, to its polynomial.  An A-smoothing joins slots (0,1),(2,3) with
    weight A, a B-smoothing (1,2),(3,0) with weight A^-1, and each closed
    loop multiplies by delta = -A^2 - A^-2.  Slot 0 of crossing 0 gets the
    label -1, which cuts the knot open there: its strand never closes, so no
    division by delta is needed and the one matching left holds <D>.

    Each state's polynomial is one int, A^e packed as 2^(bits (e + low)).
    Every loop closed on the way is a circle of some full state other than
    the cut one, and a state of a connected n-crossing diagram has at most
    n + 1 circles, so every exponent, intermediate ones too, is at least
    -n - 2n: low = 3n keeps all of them nonnegative, and every right shift
    is exact.  Each coefficient of <D> is at most the sum over states of
    2^(closed loops) <= 4^n < 2^(2n+1) in absolute value, so bits = 2n + 2
    makes each one signed base-2^bits digit.  Intermediate coefficients may
    be any size: the packed int is an exact evaluation, and only the final
    read-out needs the digit bound.
    """
    n = len(crossings)
    bits, low = 2 * n + 2, 3 * n
    ends = [list(c.ends) for c in crossings]
    ends[0][0] = -1
    todo = list(range(n))
    open_edges: set[int] = set()
    boundary: list[int] = []
    states = {(): 1 << (bits * low)}
    while todo:
        ci = max(todo, key=lambda i: (sum(e in open_edges for e in ends[i]), -i))
        todo.remove(ci)
        a, b, c, d = ends[ci]
        for e in (a, b, c, d):
            open_edges ^= {e}
        new_boundary = sorted(open_edges)
        out: dict[tuple[int, ...], int] = {}
        for key, value in states.items():
            for term, (x, y, z, w) in ((value << bits, (a, b, c, d)),
                                       (value >> bits, (b, c, d, a))):
                match = dict(zip(boundary, key))
                for _ in range(_join(match, x, y) + _join(match, z, w)):
                    term = -(term << 2 * bits) - (term >> 2 * bits)
                new_key = tuple(map(match.__getitem__, new_boundary))
                out[new_key] = out.get(new_key, 0) + term
        states, boundary = out, new_boundary
    (value,) = states.values()
    return LaurentPolynomial((i - low, coeff) for i, coeff in enumerate(_digits(value, bits)))


def kauffman_bracket(d: Diagram, limit: int = BRACKET_CROSSING_LIMIT) -> LaurentPolynomial:
    """Kauffman bracket in the variable A, normalized so <unknot> = 1."""
    if d.n_crossings > limit:
        raise CrossingLimitExceeded(
            f"{d.n_crossings} crossings exceeds bracket limit {limit}")
    if not d.crossings:
        return LaurentPolynomial({0: 1})
    return _contract(d.crossings)


def jones(d: Diagram, limit: int = BRACKET_CROSSING_LIMIT) -> LaurentPolynomial:
    """Jones polynomial; exponents are stored in half-units of t.

    A term c * t^(k/2) is stored with key k.  For knots all keys are even.
    V(t) is (-A^3)^(-w) <D> at A = t^(-1/4), so A^e becomes key -(e - 3w)/2.
    """
    bracket = kauffman_bracket(d, limit)
    w = d.writhe()
    terms = {}
    for a_exp, coeff in bracket.items():
        if (a_exp - 3 * w) % 2:
            raise AssertionError("bracket produced an odd A-exponent")
        terms[(3 * w - a_exp) // 2] = (-1) ** (w % 2) * coeff
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


def _digits(value: int, bits: int) -> list[int]:
    """Signed base-2^bits digits of value, low first, in [-2^(bits-1), 2^(bits-1)); none for 0."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    digits = []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << bits
        digits.append(digit)
        value = (value - digit) >> bits
    return digits


def conway(d: Diagram) -> LaurentPolynomial:
    """Conway polynomial in z, from the Alexander polynomial.

    Any (n-1)-minor of the Alexander matrix is Delta(t) up to a unit +-t^k.
    The absolute values of the t-coefficients in one row add up to at most 4,
    so each coefficient of the minor is at most 4^(n-1) < 2^(2n-1) in
    absolute value: one signed base-2^(2n) digit of the minor at t = 2^(2n),
    so one determinant gives them all (Kronecker substitution).  Delta is
    normalized so that Delta(t) = Delta(1/t) and Delta(1) = 1, and rewritten
    through t^k + t^-k = s_k(z), where s_0 = 2, s_1 = z^2 + 2 and
    s_{k+1} = (z^2 + 2) s_k - s_{k-1}, as coefficient lists in powers of z^2.
    """
    if not d.crossings:
        return LaurentPolynomial({0: 1})
    bits = 2 * d.n_crossings
    minor = [row[:-1] for row in _alexander_rows(d, 1 << bits)[:-1]]
    coeffs = _digits(_det(minor), bits)
    nonzero = [i for i, c in enumerate(coeffs) if c]
    coeffs = coeffs[nonzero[0]:nonzero[-1] + 1] if nonzero else []
    if sum(coeffs) not in (1, -1) or len(coeffs) % 2 == 0 or coeffs != coeffs[::-1]:
        raise AssertionError(f"not a knot's Alexander polynomial: {coeffs}")
    if sum(coeffs) < 0:
        coeffs = [-c for c in coeffs]
    mid = len(coeffs) // 2
    nabla = [coeffs[mid]] + [0] * mid  # coefficients of z^0, z^2, ..., z^(2 mid)
    prev, cur = [2], [2, 1]
    for k in range(1, mid + 1):
        for i, c in enumerate(cur):
            nabla[i] += coeffs[mid + k] * c
        prev, cur = cur, [2 * a + b - c for a, b, c in zip(cur + [0], [0] + cur, prev + [0, 0])]
    return LaurentPolynomial((2 * i, c) for i, c in enumerate(nabla))


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


def vassiliev_report(d: Diagram, n_crossings: int | None = None) -> dict:
    """v2 and v3 from the Gauss-diagram route, with polynomial cross-checks.

    The Jones-derived checks are skipped (reported as None) when
    n_crossings (by default d's) is above the bracket crossing limit; a
    caller that reduced its diagram to d passes the input's count, so the
    cut-off does not move.  The Conway check always runs.  The report also
    carries the polynomials the checks used: "conway", and "jones" (None
    above the limit).
    """
    from . import gauss

    g2, g3 = gauss.v2(d), gauss.v3(d)
    nabla = conway(d)
    n = d.n_crossings if n_crossings is None else n_crossings
    v = jones(d) if n <= BRACKET_CROSSING_LIMIT else None
    checks = {"v2_conway": g2 == nabla.coeff(2),
              "v2_jones": None if v is None else g2 == _v2_from_jones(v),
              "v3_jones": None if v is None else g3 == _v3_from_jones(v)}
    return {"v2": g2, "v3": g3, "crosschecks": checks, "conway": nabla, "jones": v}
