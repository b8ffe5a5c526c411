"""Sums and products of polynomials for the test oracles.

``LaurentPolynomial`` is a value type without arithmetic; the oracles that
build polynomials term by term (state sums, skein rewrites, products of
summands) use these dict-based helpers.  An int stands for a constant.
"""

from knotmoves.poly import LaurentPolynomial as L


def _terms(p) -> list[tuple[int, int]]:
    return list(p.items()) if isinstance(p, L) else [(0, p)]


def padd(*terms) -> L:
    out: dict[int, int] = {}
    for p in terms:
        for e, c in _terms(p):
            out[e] = out.get(e, 0) + c
    return L(out)


def pmul(*factors) -> L:
    out = {0: 1}
    for p in factors:
        nxt: dict[int, int] = {}
        for e1, c1 in out.items():
            for e2, c2 in _terms(p):
                nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
        out = nxt
    return L(out)
