from hypothesis import given, strategies as st

from knotmoves.poly import LaurentPolynomial as L

Polys = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5).map(L)


def test_zero_coefficients_dropped():
    p = L({2: 1, 3: 0, -1: 4})
    assert p.to_pairs() == [[-1, 4], [2, 1]]
    assert (p - p).is_zero()


def test_arithmetic_anchors():
    a = L({0: 1, 2: 1})        # 1 + z^2
    b = L({0: 1, 2: -1})       # 1 - z^2
    assert (a * b).to_pairs() == [[0, 1], [4, -1]]
    assert (a + b) == L({0: 2})
    assert a.coeff(2) == 1 and a.coeff(5) == 0


def test_monomial_powers_and_shift():
    m = L.monomial(-3, -1)
    assert (m ** 2).to_pairs() == [[-6, 1]]
    assert m.shift(3) == L({0: -1})
    assert m.reciprocal() == L({3: -1})


def test_derivative_at_one():
    # right trefoil Jones: t + t^3 - t^4
    v = L({1: 1, 3: 1, 4: -1})
    assert v.derivative_at_one(0) == 1
    assert v.derivative_at_one(1) == 0
    assert v.derivative_at_one(2) == -6
    assert v.derivative_at_one(3) == -18


def test_serialization_round_trip():
    p = L({-2: 3, 5: -7})
    assert L.from_pairs(p.to_pairs()) == p


@given(Polys, Polys, Polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + L.zero() == a
    assert a * L.one() == a


@given(Polys)
def test_negation_and_hash(a):
    assert a + (-a) == L.zero()
    assert hash(a) == hash(L.from_pairs(a.to_pairs()))


def test_negative_powers_of_unit_monomials_stay_integer():
    x = L.monomial(1)
    for base in (x, -x):
        for k in range(1, 7):
            inv = base ** -k
            assert inv * base ** k == 1
            assert all(type(c) is int for _, c in inv.items())
    assert ((-x) ** -2).to_pairs() == [[-2, 1]]
    assert ((-x) ** -3).to_pairs() == [[-3, -1]]
    assert repr((-x) ** -2) == "1*x^-2"
