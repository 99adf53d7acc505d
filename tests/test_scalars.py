"""Exact scalar arithmetic: cyclotomic reduction, inverses, field axioms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godeaux import (
    Cyclo,
    IncompatibleFieldsError,
    format_scalar,
    make_cyclo,
    parse_scalar,
    scalar_inv,
    scalar_pow,
    zeta,
)

PHI = {1: 1, 3: 2, 4: 2, 5: 4}


def rationals():
    return st.builds(
        Fraction,
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=1, max_value=12),
    )


def elements(order):
    if order == 1:
        return rationals()
    return st.builds(
        lambda cs: make_cyclo(order, cs), st.lists(rationals(), min_size=PHI[order], max_size=PHI[order])
    )


class TestExamples:
    def test_phi5_relation(self):
        z = zeta(5)
        assert z + z**2 + z**3 + z**4 == Fraction(-1)

    def test_phi4_relation(self):
        assert zeta(4) * zeta(4) == Fraction(-1)

    def test_rational_add(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_inv_zeta5(self):
        assert scalar_inv(zeta(5)) == zeta(5) ** 4

    def test_inv_rational(self):
        assert scalar_inv(Fraction(-2, 3)) == Fraction(-3, 2)

    def test_inv_one_plus_i(self):
        # (1+i)(x+yi) = (x-y) + (x+y)i, so the 2x2 rational system
        # x - y = 1, x + y = 0 gives (x, y) = (1/2, -1/2).
        i = zeta(4)
        assert scalar_inv(1 + i) == (1 - i) / 2
        assert (1 + i) * scalar_inv(1 + i) == Fraction(1)

    def test_pow(self):
        assert zeta(5) ** 5 == Fraction(1)
        assert zeta(4) ** 3 == -zeta(4)
        assert scalar_pow(Fraction(2), -2) == Fraction(1, 4)

    def test_mismatched_orders(self):
        with pytest.raises(IncompatibleFieldsError, match="incompatible fields"):
            zeta(3) + zeta(5)
        with pytest.raises(IncompatibleFieldsError, match="incompatible fields"):
            zeta(4) * zeta(3)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            scalar_inv(Fraction(0))
        with pytest.raises(ZeroDivisionError):
            scalar_pow(Fraction(0), -1)

    def test_rational_demotion(self):
        # Arithmetic landing in Q comes back as a Fraction.
        assert isinstance(zeta(4) * zeta(4), Fraction)
        assert isinstance(zeta(5) ** 5, Fraction)
        with pytest.raises(ValueError):
            Cyclo(5, (1, 0, 0, 0))


@pytest.mark.parametrize("order", [1, 3, 4, 5])
class TestFieldAxioms:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_associativity_and_distributivity(self, order, data):
        a = data.draw(elements(order))
        b = data.draw(elements(order))
        c = data.draw(elements(order))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_inverses(self, order, data):
        a = data.draw(elements(order))
        assert a + (-a) == 0
        if a != 0:
            assert a * scalar_inv(a) == Fraction(1)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_canonical_idempotence(self, order, data):
        a = data.draw(elements(order))
        if isinstance(a, Cyclo):
            assert make_cyclo(a.order, a.coeffs) == a
        assert parse_scalar(format_scalar(a), order if order > 1 else 1) == a


@settings(max_examples=40, deadline=None)
@given(
    p=rationals(),
    q=rationals(),
    order=st.sampled_from([3, 4, 5]),
)
def test_embedding_consistency(p, q, order):
    # Q-arithmetic agrees with order-n arithmetic on rational-valued elements.
    zero = zeta(order) - zeta(order)
    assert (p + zero) + (q + zero) == p + q
    assert (p + zero) * (q + zero) == p * q


@pytest.mark.parametrize("order", [3, 4, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cyclo_inverse_is_exact(order, data):
    x = data.draw(elements(order).filter(lambda a: isinstance(a, Cyclo)))
    inv = scalar_inv(x)
    assert isinstance(inv, Cyclo)
    assert x * inv == 1 and scalar_inv(inv) == x


def test_parse_scalar_literals():
    assert parse_scalar("5/6") == Fraction(5, 6)
    assert parse_scalar("-7") == Fraction(-7)
    assert parse_scalar("z5^2 - 1/2", 5) == zeta(5) ** 2 - Fraction(1, 2)
    assert parse_scalar("2*z3 + 1", 3) == 2 * zeta(3) + 1
