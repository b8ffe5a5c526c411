"""Exact integer Laurent polynomials in one abstract variable.

Used as the value type for the bracket (variable A), Jones (variable t,
exponents stored in half-units so t^(1/2) is exponent 1) and Conway
(variable z) polynomials.  All arithmetic is integer-exact.
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

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPolynomial":
        return cls({exp: coeff})

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._terms.items()))

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == ({} if other == 0 else {0: other})
        if isinstance(other, LaurentPolynomial):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        other = _coerce(other)
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            out[exp] = out.get(exp, 0) + coeff
            if not out[exp]:
                del out[exp]
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return _raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: int) -> "LaurentPolynomial":
        return _coerce(other) - self

    def __mul__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        other = _coerce(other)
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
                if not out[e]:
                    del out[e]
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            if len(self._terms) != 1:
                raise ValueError("negative powers only defined for monomials")
            (exp, coeff), = self._terms.items()
            if coeff not in (1, -1):
                raise ValueError("negative powers only defined for unit monomials")
            return _raw({exp * n: coeff ** (n % 2)})
        result = LaurentPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, delta: int) -> "LaurentPolynomial":
        """Multiply by x**delta."""
        return _raw({e + delta: c for e, c in self._terms.items()})

    def reciprocal(self) -> "LaurentPolynomial":
        """Substitute x -> x**-1 (negate all exponents)."""
        return _raw({-e: c for e, c in self._terms.items()})

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

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int]]) -> "LaurentPolynomial":
        return cls({int(e): int(c) for e, c in pairs})

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


def _coerce(value: "LaurentPolynomial | int") -> LaurentPolynomial:
    if isinstance(value, LaurentPolynomial):
        return value
    if isinstance(value, int):
        return LaurentPolynomial({0: value})
    raise TypeError(f"cannot coerce {type(value).__name__} to LaurentPolynomial")


def _raw(terms: dict[int, int]) -> LaurentPolynomial:
    poly = LaurentPolynomial.__new__(LaurentPolynomial)
    poly._terms = terms
    return poly
