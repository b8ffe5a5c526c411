from hypothesis import given, strategies as st

from knotmoves.poly import LaurentPolynomial as L

Polys = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5).map(L)


def test_zero_coefficients_dropped():
    p = L({2: 1, 3: 0, -1: 4})
    assert p.to_pairs() == [[-1, 4], [2, 1]]
    # Pairs with one exponent add up, and terms that cancel are dropped.
    assert L([(2, 1), (-1, 4), (5, 3), (2, -1), (5, -3), (-1, 1)]).to_pairs() == [[-1, 5]]
    assert L([(0, 2), (0, -2)]) == L()


def test_coeff():
    a = L({0: 1, 2: 1})        # 1 + z^2
    assert a.coeff(0) == 1 and a.coeff(2) == 1 and a.coeff(5) == 0
    assert L().coeff(0) == 0


def test_derivative_at_one():
    # right trefoil Jones: t + t^3 - t^4
    v = L({1: 1, 3: 1, 4: -1})
    assert v.derivative_at_one(0) == 1
    assert v.derivative_at_one(1) == 0
    assert v.derivative_at_one(2) == -6
    assert v.derivative_at_one(3) == -18


def test_serialization_round_trip():
    p = L({-2: 3, 5: -7})
    assert L(p.to_pairs()) == p


@given(Polys)
def test_equality_and_hash(a):
    b = L(a.to_pairs()[::-1])
    assert a == b and hash(a) == hash(b)
    c = L({**dict(a.items()), 7: 1})
    assert a != c


def test_repr():
    assert repr(L()) == "0"
    assert repr(L({0: -1, 1: 2, -2: 1})) == "1*x^-2-1+2*x"
