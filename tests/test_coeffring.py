"""Field arithmetic in Q(w), w a primitive cube root of unity."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qseries.coeffring import (
    CycRat,
    DivisionByZero,
    OMEGA,
    OMEGA_BAR,
    ONE,
    RAT_ONE,
    ZERO,
    rat,
)
from qseries.laurent import LaurentSeries, ParamValue

rationals = st.builds(rat, st.integers(-30, 30), st.integers(1, 12))
cycrats = st.builds(CycRat, rationals, rationals)
nonzero_cycrats = cycrats.filter(bool)


def test_omega_basics():
    assert OMEGA * OMEGA == OMEGA_BAR
    assert OMEGA * OMEGA * OMEGA == ONE
    assert ONE + OMEGA + OMEGA * OMEGA == ZERO
    assert OMEGA_BAR == CycRat(-1, -1)


def test_addition_examples():
    assert ONE + OMEGA == CycRat(1, 1)
    assert OMEGA + OMEGA * OMEGA == CycRat(-1)
    half = CycRat(rat(1, 2), rat(1, 3))
    other = CycRat(rat(1, 2), rat(-1, 3))
    assert half + other == ONE


def test_multiplication_examples():
    assert OMEGA * OMEGA == CycRat(-1, -1)
    assert OMEGA * OMEGA_BAR == ONE
    # (1 - w)(1 - w^-1) = 3, the constant absorbed into the 1/3 prefactors
    assert (ONE - OMEGA) * (ONE - OMEGA_BAR) == CycRat(3)


def test_inverse_examples():
    assert OMEGA.inverse() == OMEGA_BAR
    assert CycRat(2).inverse() == CycRat(rat(1, 2))
    assert (ONE - OMEGA).inverse() == CycRat(rat(2, 3), rat(1, 3))


def test_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        ZERO.inverse()
    with pytest.raises(DivisionByZero):
        ONE / ZERO


def test_rational_embedding_and_coercion():
    x = CycRat(5)
    assert x.is_rational()
    assert not OMEGA.is_rational()
    assert x + 1 == CycRat(6)
    assert 1 + x == CycRat(6)
    assert 2 * OMEGA == OMEGA + OMEGA
    assert CycRat(Fraction(1, 2)) + CycRat(rat(1, 2)) == ONE
    for value in (True, 7, Fraction(-2, 3)):
        assert type(CycRat(value).a) is type(RAT_ONE)  # the backend, whatever came in


@pytest.mark.parametrize("value", [0.5, 0.1, "1/3", None, 1j], ids=repr)
def test_inexact_scalars_are_refused(value):
    # no float or string may slip into a coefficient, at any entry point
    for build in (CycRat, lambda v: CycRat(1, v), ParamValue, lambda v: LaurentSeries(0, [v])):
        with pytest.raises(TypeError):
            build(value)


def test_gmpy2_rationals_enter():
    gmpy2 = pytest.importorskip("gmpy2")
    x = CycRat(gmpy2.mpz(3), gmpy2.mpq(-1, 2))
    assert x == CycRat(3, Fraction(-1, 2))
    assert type(x.a) is type(x.b) is type(RAT_ONE)


@given(cycrats, cycrats, cycrats)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x + (-x) == ZERO


@given(nonzero_cycrats)
def test_multiplicative_inverse(x):
    assert x * x.inverse() == ONE
    assert x / x == ONE


@given(cycrats, cycrats)
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(cycrats)
def test_conjugate_against_norm(x):
    assert x * x.conjugate() == CycRat(x.norm())
    assert x.conjugate().conjugate() == x


@given(cycrats, cycrats)
def test_conjugate_is_a_ring_map(x, y):
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@given(cycrats)
def test_equality_and_hash(x):
    dup = CycRat(x.a, x.b)
    assert dup == x
    assert hash(dup) == hash(x)


def test_str_forms():
    assert str(OMEGA) == "w"
    assert str(-OMEGA) == "-w"
    assert str(CycRat(1, 2)) == "1+2*w"
    assert str(CycRat(rat(-1, 3), 1)) == "-1/3+w"
    assert str(CycRat(5)) == "5"
