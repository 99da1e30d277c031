"""Field arithmetic in Q(w), w a primitive cube root of unity."""

import copy
import numbers
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

import qseries
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
from qseries.laurent import LaurentSeries, ParamValue, _split

# small values, and numerators and denominators past 2^64 (the counts reach
# 66 bits); the common factor k hands rat() pairs that are not in lowest terms
numerators = st.one_of(st.integers(-30, 30), st.integers(-2**70, 2**70))
denominators = st.one_of(st.integers(1, 12), st.integers(1, 2**70))
fractions = st.builds(lambda n, d, k: Fraction(n * k, d * k),
                      numerators, denominators, st.integers(1, 6))
rationals = st.builds(lambda n, d, k: rat(n * k, d * k), numerators, denominators, st.integers(1, 6))
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
    for value in (True, 7, Fraction(-2, 3), Ratio(4, -6)):  # Fractions, whatever came in
        c = CycRat(value, value)
        assert type(c.a) is type(c.b) is type(c.norm()) is type(RAT_ONE) is Fraction
    assert type(rat(4, -6)) is Fraction


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


def test_import_needs_only_the_standard_library():
    # a fresh interpreter, compared before and after the import, since site
    # may load third-party modules of its own at start-up
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qseries\n"
        "tops = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(*sorted(tops - set(sys.stdlib_module_names) - {'qseries'}))\n")
    src = os.path.dirname(os.path.dirname(qseries.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


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


def test_rational_hashes_agree_with_equality():
    assert len({CycRat(2), 2}) == 1
    assert {1: "x"}.get(CycRat(1)) == "x"
    assert {Fraction(1, 2): "half"}.get(CycRat(rat(1, 2))) == "half"
    assert {rat(-2, 3): "r"}.get(CycRat(Fraction(-2, 3))) == "r"
    assert {CycRat(3): "c"}.get(3) == "c"
    assert len({OMEGA, CycRat(0, 1), -OMEGA_BAR - 1}) == 1


@given(fractions)
def test_rational_hash_is_the_rationals(f):
    c = CycRat(f)
    assert c == f and c == rat(f.numerator, f.denominator)
    assert hash(c) == hash(f) == hash(rat(f.numerator, f.denominator))
    if f.denominator == 1:
        assert c == int(f) and hash(c) == hash(int(f))


def test_immutable():
    x = CycRat(1, 2)
    for name in ("a", "b", "_xyd", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    assert x == CycRat(1, 2)


# -- the integer form against the two-rational formulas ------------------------------------
#
# The reference holds an element as the pair (a, b) of Fractions and uses the
# formulas CycRat evaluated before it stored integer triples.


def ref_add(p, q):
    return p[0] + q[0], p[1] + q[1]


def ref_sub(p, q):
    return p[0] - q[0], p[1] - q[1]


def ref_mul(p, q):
    (a, b), (c, d) = p, q
    ac, bd = a * c, b * d
    return ac - bd, (a + b) * (c + d) - ac - 2 * bd


def ref_conjugate(p):
    return p[0] - p[1], -p[1]


def ref_norm(p):
    a, b = p
    return a * (a - b) + b * b


def ref_inverse(p):
    n = ref_norm(p)
    return (p[0] - p[1]) / n, -p[1] / n


def ref_split(p):
    a, b = p
    cd = lcm(a.denominator, b.denominator)
    return a.numerator * (cd // a.denominator), b.numerator * (cd // b.denominator), cd


def as_fraction(r):
    return Fraction(int(r.numerator), int(r.denominator))


def pair(c):
    """c as the reference pair, after checking its stored triple is canonical."""
    x, y, d = c._xyd
    assert type(x) is type(y) is type(d) is int
    assert d > 0 and gcd(x, y, d) == 1
    assert type(c.a) is type(c.b) is type(RAT_ONE)
    return as_fraction(c.a), as_fraction(c.b)


class Ratio:
    """A bare ``numbers.Rational``: numerator and denominator as given, neither
    reduced nor sign-normalized."""

    def __init__(self, numerator, denominator):
        self.numerator, self.denominator = numerator, denominator


numbers.Rational.register(Ratio)


def spellings(f: Fraction, k: int) -> list:
    """Every exact input type that can spell ``f``; k != 0 scales a Ratio."""
    out = [f, rat(f.numerator, f.denominator), Ratio(f.numerator * k, f.denominator * k)]
    if f.denominator == 1:
        out.append(int(f))
        if f in (0, 1):
            out.append(bool(f))
    return out


@given(fractions, fractions, st.integers(-5, 5).filter(bool))
def test_constructor_inputs_are_canonical(a, b, k):
    for x in spellings(a, k):
        assert pair(CycRat(x)) == (a, 0)
        for y in spellings(b, k):
            assert pair(CycRat(x, y)) == (a, b)


@given(fractions, fractions, fractions, fractions)
def test_operations_match_the_reference(a, b, c, d):
    p, q = (a, b), (c, d)
    x, y = CycRat(a, b), CycRat(c, d)
    assert pair(x) == p and pair(y) == q
    assert pair(x + y) == ref_add(p, q)
    assert pair(x - y) == ref_sub(p, q)
    assert pair(x * y) == ref_mul(p, q)
    assert pair(-x) == ref_sub((0, 0), p)
    assert pair(x.conjugate()) == ref_conjugate(p)
    assert as_fraction(x.norm()) == ref_norm(p) and type(x.norm()) is type(RAT_ONE)
    assert _split(x) == ref_split(p)
    for n in (c, c.numerator):  # mixed with a rational and an int
        assert pair(x + n) == pair(n + x) == ref_add(p, (n, 0))
        assert pair(x - n) == ref_sub(p, (n, 0)) and pair(n - x) == ref_sub((n, 0), p)
        assert pair(x * n) == pair(n * x) == ref_mul(p, (n, 0))
        assert _split(n) == ref_split((Fraction(n), Fraction(0)))
    if y:
        assert pair(y.inverse()) == ref_inverse(q)
        assert pair(x / y) == ref_mul(p, ref_inverse(q))
        assert pair(1 / y) == ref_inverse(q)
    else:
        for divide in (y.inverse, lambda: x / y, lambda: 1 / y):
            with pytest.raises(DivisionByZero):
                divide()


@given(cycrats)
def test_pickle_and_copy_round_trip(x):
    assert repr(x) == f"CycRat({x.a!r}, {x.b!r})"
    for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert twin == x and twin._xyd == x._xyd and hash(twin) == hash(x)
        assert repr(twin) == repr(x)
        assert type(twin.a) is type(twin.b) is type(RAT_ONE)
