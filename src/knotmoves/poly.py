"""Integer Laurent polynomials in one abstract variable, as values.

The result type of the bracket (variable A), Jones (variable t, exponents
stored in half-units so t^(1/2) is exponent 1) and Conway (variable z)
polynomials.  It has no arithmetic: :mod:`knotmoves.invariants` computes
on packed integers and builds the result from its terms.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping


class LaurentPolynomial:
    """Immutable Laurent polynomial with integer coefficients.

    Terms map integer exponents to nonzero integer coefficients; zero
    coefficients are never stored.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        data: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            if coeff:
                data[exp] = data.get(exp, 0) + coeff
                if not data[exp]:
                    del data[exp]
        self._terms = data

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._terms.items()))

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPolynomial):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def derivative_at_one(self, order: int) -> int:
        """Return the order-th derivative evaluated at x = 1, exactly.

        For p(x) = sum c_k x^k this is sum c_k * k(k-1)...(k-order+1).
        """
        total = 0
        for exp, coeff in self._terms.items():
            f = 1
            for j in range(order):
                f *= exp - j
            total += coeff * f
        return total

    def to_pairs(self) -> list[list[int]]:
        """Serialize as sorted [exponent, coefficient] pairs."""
        return [[e, c] for e, c in sorted(self._terms.items())]

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in sorted(self._terms.items()):
            if exp == 0:
                parts.append(f"{coeff:+d}")
            elif exp == 1:
                parts.append(f"{coeff:+d}*x")
            else:
                parts.append(f"{coeff:+d}*x^{exp}")
        return "".join(parts).lstrip("+")

