"""Truncated Laurent arithmetic and q-Pochhammer constructors."""

import copy
import pickle
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from qseries.coeffring import CycRat, DivisionByZero, OMEGA, OMEGA_BAR, ONE, RAT_ONE, ZERO, rat
from qseries.laurent import (
    InvalidBase,
    LaurentSeries,
    OrderExceeded,
    ParamValue,
    Q,
    ZeroFactor,
    _binomials,
    _built,
    _paired,
    _split,
    _state,
    poch_finite,
    poch_finite_inv,
    poch_infinite,
    poch_infinite_inv,
)

ORDER = 30


def _examples(n: int) -> int:
    """n examples under the default profile; under a wider one, such as the
    ci profile (``--hypothesis-profile=ci``), that profile's count when it is
    more.  The profile is loaded before the tests are collected."""
    wide = settings.default.max_examples
    return n if wide <= settings.get_profile("default").max_examples else max(n, wide)


rats_st = st.builds(rat, st.integers(-9, 9), st.integers(1, 6))
coeffs_st = st.one_of(
    st.builds(CycRat, st.integers(-9, 9), st.integers(-9, 9)),
    st.builds(CycRat, rats_st, rats_st),  # non-integral: a common denominator
)
rational_coeffs_st = st.one_of(  # no w-part: the kernel keeps these on one list
    st.builds(CycRat, st.integers(-9, 9)),
    st.builds(CycRat, rats_st),
)
series_st = st.dictionaries(st.integers(-4, 8), coeffs_st, max_size=8).map(
    lambda d: LaurentSeries.from_terms(d, ORDER))
nonzero_series_st = series_st.filter(lambda f: not f.is_zero())
negative_valuation_st = nonzero_series_st.filter(lambda f: f.valuation() < 0)
rational_negative_valuation_st = st.dictionaries(
    st.integers(-4, 8), rational_coeffs_st, min_size=1, max_size=8).map(
    lambda d: LaurentSeries.from_terms(d, ORDER)).filter(
    lambda f: not f.is_zero() and f.valuation() < 0)


def same(f, g, order):
    return f.agrees_below(g, order) is None


def mono(c, e, order=None):
    return LaurentSeries.monomial(c, e, order)


def kernel(f, *args, plus=None, **kwargs):
    """One call of the binomial kernel on the states of series, built into a series."""
    return _built(_binomials(_state(f), *args, **kwargs,
                             plus=None if plus is None else _state(plus)))


# -- construction and coefficient access -------------------------------------------------


def test_from_terms_normalizes():
    f = LaurentSeries.from_terms({3: ONE, 1: CycRat(0)}, 10)
    assert f.valuation() == 3
    assert f.coeff(1) == CycRat(0)
    assert f.coeff(3) == ONE


def test_coeff_examples():
    f = LaurentSeries.from_terms({0: ONE, 1: CycRat(2)}, 10)
    assert f.coeff(1) == CycRat(2)
    assert type(f.coeff(1).a) is type(RAT_ONE)  # a Fraction
    assert mono(ONE, -1).coeff(-1) == ONE
    euler = poch_infinite(Q, Q, 20)
    assert euler.coeff(5) == ONE


@given(series_st)
def test_coeffs_is_a_tuple_of_the_stored_coefficients(f):
    cs = f.coeffs
    assert type(cs) is tuple and cs == f.coeffs
    assert all(type(c) is CycRat for c in cs[0:2] + cs[1:])
    assert {f.offset + i: c for i, c in enumerate(cs) if c} == dict(f.terms())


@pytest.mark.parametrize("build, value", [
    (lambda: LaurentSeries.monomial(ONE, 1.5), 1.5),
    (lambda: LaurentSeries(2.5, [ONE, ONE]), 2.5),
    (lambda: LaurentSeries.from_terms({1.5: ONE, 3: ONE}), 1.5),
    (lambda: LaurentSeries.from_terms({0: ONE, 2.5: ONE}), 2.5),
    (lambda: LaurentSeries(2.0, []), 2.0),  # even the zero series, stored at offset 0
    (lambda: LaurentSeries.one().shift(0.5), 0.5),
    (lambda: LaurentSeries.one().shift(2.0), 2.0),
    (lambda: LaurentSeries.one().shift(0.0), 0.0),  # shifts nothing, still refused
    (lambda: LaurentSeries.from_terms({0: ONE, 1: ONE}, 10).coeff(1.5), 1.5),
    (lambda: LaurentSeries.one(10).coeff(3.5), 3.5),  # past the stored terms: was 0
    (lambda: LaurentSeries.one(3).mul_one_minus(ONE, 3.5), 3.5),  # at the order: was 1
    (lambda: LaurentSeries.one(3).mul_one_minus(CycRat(2), 0.0), 0.0),  # was the scalar -1
    (lambda: LaurentSeries.one(3).mul_one_minus(ONE, 1.5), 1.5),
    (lambda: LaurentSeries.one(5).div_one_minus(ONE, 7.5), 7.5),  # past the order: was 1
], ids=["monomial", "constructor", "from_terms", "from_terms-later", "zero",
        "shift", "shift-integral", "shift-0", "coeff", "coeff-past-the-terms",
        "mul_one_minus-at-the-order", "mul_one_minus-0", "mul_one_minus",
        "div_one_minus-past-the-order"])
def test_exponent_must_be_an_int(build, value):
    with pytest.raises(TypeError, match=rf"^expected an int exponent, got float: {value}$"):
        build()


def test_exponent_int_subclass_is_stored_as_int():
    for s in (LaurentSeries.monomial(ONE, True), LaurentSeries.one().shift(True),
              LaurentSeries.from_terms({True: ONE})):
        assert type(s.offset) is int and s == LaurentSeries.monomial(ONE, 1)
        assert s.coeff(True) == ONE


def test_coeff_beyond_order():
    f = LaurentSeries.from_terms({0: ONE}, 10)
    with pytest.raises(OrderExceeded):
        f.coeff(10)
    f.coeff(9)  # inside the trusted range


def test_addition_examples():
    one_plus_q = LaurentSeries.from_terms({0: ONE, 1: ONE}, 20)
    minus_one_plus_q = LaurentSeries.from_terms({0: CycRat(-1), 1: ONE}, 20)
    two_q = LaurentSeries.from_terms({1: CycRat(2)}, 20)
    assert same(one_plus_q + minus_one_plus_q, two_q, 20)

    qinv = mono(ONE, -1, 20)
    g = LaurentSeries.from_terms({-1: CycRat(-1), 0: ONE}, 20)
    assert same(qinv + g, LaurentSeries.one(20), 20)

    f = LaurentSeries.from_terms({2: OMEGA}, 20)
    assert same(f + LaurentSeries.zero(20), f, 20)


def test_multiplication_examples():
    one_minus_q = LaurentSeries.from_terms({0: ONE, 1: CycRat(-1)}, 20)
    geom = one_minus_q.inverse(20)
    assert same(one_minus_q * geom, LaurentSeries.one(20), 20)
    # product of truncated monomials: trusted range shrinks by the valuations
    assert same(mono(ONE, -1, 20) * mono(ONE, 1, 20), LaurentSeries.one(20), 19)


def test_cube_factor_example():
    # (1 - w q)(1 - w^2 q)(1 - q) = 1 - q^3, the n=1 cube-base case
    f = LaurentSeries.from_terms({0: ONE, 1: -OMEGA})
    g = LaurentSeries.from_terms({0: ONE, 1: -OMEGA_BAR})
    h = LaurentSeries.from_terms({0: ONE, 1: CycRat(-1)})
    assert f * g * h == LaurentSeries.from_terms({0: ONE, 3: CycRat(-1)})


def test_inverse_examples():
    one_minus_q = LaurentSeries.from_terms({0: ONE, 1: CycRat(-1)}, 25)
    geom = one_minus_q.inverse()
    assert all(geom.coeff(n) == ONE for n in range(25))

    q_mono = mono(ONE, 1)
    assert q_mono.inverse() == mono(ONE, -1)

    # -q^-1 (1 + q + q^2): the C(w, q) denominator shape
    f = LaurentSeries.from_terms(
        {-1: CycRat(-1), 0: CycRat(-1), 1: CycRat(-1)}, 25)
    assert same(f * f.inverse(), LaurentSeries.one(25), 20)


def test_inverse_errors():
    with pytest.raises(DivisionByZero):
        LaurentSeries.zero(10).inverse()
    exact_poly = LaurentSeries.from_terms({0: ONE, 1: ONE})
    with pytest.raises(OrderExceeded):
        exact_poly.inverse()  # infinite expansion needs an explicit order


def test_division_examples():
    # 1 / (q^-1 - 1) = q / (1 - q): the divisor's valuation -1 moves the quotient up
    g = LaurentSeries.from_terms({-1: ONE, 0: CycRat(-1)}, 10)
    h = LaurentSeries.one(10) / g
    assert h == LaurentSeries.from_terms({n: ONE for n in range(1, 11)}, 11)
    # an exact monomial divisor keeps an exact quotient
    assert LaurentSeries.one() / mono(OMEGA, -2) == mono(OMEGA_BAR, 2)


def test_division_errors():
    f = LaurentSeries.from_terms({0: ONE, 2: OMEGA}, 10)
    for zero in (LaurentSeries.zero(10), LaurentSeries.zero()):
        with pytest.raises(DivisionByZero):
            f / zero
    exact_poly = LaurentSeries.from_terms({0: ONE, 1: ONE})
    with pytest.raises(OrderExceeded):
        LaurentSeries.one() / exact_poly  # an exact quotient would be infinite
    assert same(f / exact_poly * exact_poly, f, 10)  # a finite dividend caps it


@settings(max_examples=_examples(200))
@given(f=series_st, g=negative_valuation_st)
def test_division_undoes_multiplication(f, g):
    back = f / g * g
    assert back.order <= f.order
    if not f.is_zero():
        assert back.order > f.valuation()  # something is compared
    assert back.agrees_below(f, back.order) is None


# -- randomized ring structure ------------------------------------------------------------


@given(series_st, series_st, series_st)
def test_ring_axioms(f, g, h):
    assert same((f + g) + h, f + (g + h), 18)
    assert same(f + g, g + f, 18)
    assert same(f * g, g * f, 18)
    assert same((f * g) * h, f * (g * h), 14)
    assert same(f * (g + h), f * g + f * h, 18)
    assert same(f * LaurentSeries.one(ORDER), f, 18)


@settings(max_examples=_examples(200))
@given(nonzero_series_st)
def test_inverse_round_trip(f):
    inv = f.inverse()
    assert same(f * inv, LaurentSeries.one(ORDER), 18)


@given(series_st, st.integers(-3, 3))
def test_shift_scale(f, e):
    g = f.shift(e)
    if not f.is_zero():
        assert g.valuation() == f.valuation() + e
    assert same(g.shift(-e), f, 18)
    assert same(f.scale(CycRat(-2)).scale(CycRat(rat(-1, 2))), f, 18)


@given(nonzero_series_st, st.integers(1, 4))
def test_binomial_round_trip(f, e):
    c = OMEGA
    g = f.mul_one_minus(c, e).div_one_minus(c, e)
    assert same(f, g, 18)


# -- reference loops written in CycRat arithmetic on coeff(), sharing no kernel code ------


def _low(f):
    return f.valuation() if not f.is_zero() else 0


@given(series_st, series_st)
def test_product_matches_convolution(f, g):
    h = f * g
    lo_f, lo_g = _low(f), _low(g)
    for n in range(lo_f + lo_g, h.order):
        want = CycRat(0)
        for i in range(lo_f, n - lo_g + 1):
            want = want + f.coeff(i) * g.coeff(n - i)
        assert h.coeff(n) == want


@st.composite
def _comparison(draw):
    """Two series that differ by one term at d, or by a nonzero scalar (every
    term, numerators often equal over unequal denominators), or not at all;
    each side exact or finite, and an order below, at or above d."""
    terms = draw(st.dictionaries(st.integers(-4, 8), coeffs_st, max_size=6))
    kind = draw(st.sampled_from(["term", "scalar", "same"]))
    other = dict(terms)
    if kind == "term":
        d = draw(st.integers(-6, 14))
        other[d] = other.get(d, ZERO) + draw(coeffs_st.filter(bool))
    elif kind == "scalar":
        r = draw(st.one_of(st.builds(lambda k: CycRat(rat(1, k)), st.integers(2, 6)),
                           coeffs_st).filter(lambda r: r and r != ONE))
        other = {e: r * c for e, c in terms.items()}
    orders = st.none() | st.integers(-6, 16)
    return (LaurentSeries.from_terms(terms, draw(orders)),
            LaurentSeries.from_terms(other, draw(orders)), draw(st.integers(-6, 16)))


@settings(max_examples=_examples(300))
@given(_comparison())
def test_agrees_below_is_the_first_differing_coefficient(case):
    f, g, order = case
    if any(s.order is not None and s.order < order for s in (f, g)):
        with pytest.raises(OrderExceeded, match=f"cannot compare below q\\^{order}"):
            f.agrees_below(g, order)
        return
    start = min((s.valuation() for s in (f, g) if not s.is_zero()), default=order)
    want = next((e for e in range(start, order) if f.coeff(e) != g.coeff(e)), None)
    assert f.agrees_below(g, order) == want
    assert g.agrees_below(f, order) == want


_BINOMIAL_CS = [CycRat(rat(1, 2)), ONE - OMEGA, CycRat(2) + OMEGA, OMEGA]
_RATIONAL_CS = [ONE, CycRat(-1), CycRat(rat(1, 2)), CycRat(-3), CycRat(rat(-2, 3))]


@pytest.mark.parametrize("e", range(-2, 4))
@pytest.mark.parametrize("c", _BINOMIAL_CS + [c for c in _RATIONAL_CS if c not in _BINOMIAL_CS],
                         ids=str)
@settings(max_examples=_examples(25))
@given(f=st.one_of(negative_valuation_st, rational_negative_valuation_st))
def test_binomials_match_reference(f, c, e):
    # f * (1 - c q^e): h(n) = f(n) - c f(n - e)
    h = f.mul_one_minus(c, e)
    assert h.order == f.order + min(e, 0)
    lo = f.valuation() + min(e, 0)
    for n in range(lo, h.order):
        assert h.coeff(n) == f.coeff(n) - c * f.coeff(n - e)
    if c == ONE and e == 0:  # dividing by the scalar 1 - c = 0
        with pytest.raises(DivisionByZero):
            f.div_one_minus(c, e)
        return

    # f / (1 - c q^e): g(n) - c g(n - e) = f(n), solved upward from the valuation
    g = f.div_one_minus(c, e)
    lead = max(0, -e)  # (1 - c q^e) has valuation min(e, 0)
    assert g.order == f.order + lead
    ref = {}
    for n in range(f.valuation() + lead, g.order):
        if e > 0:
            ref[n] = f.coeff(n) + c * ref.get(n - e, CycRat(0))
        elif e == 0:
            ref[n] = f.coeff(n) / (ONE - c)
        else:  # g(n) = (g(n + e) - f(n + e)) / c
            ref[n] = (ref.get(n + e, CycRat(0)) - f.coeff(n + e)) / c
        assert g.coeff(n) == ref[n]

    # order= caps the trusted range of a genuine division; a scalar one ignores it
    cap = g.order - 3
    assert f.div_one_minus(c, e, cap) == (g.truncate(cap) if e else g)


# -- one kernel call against the public binomials applied one factor at a time -----------


def _outcome(build):
    try:
        return build()
    except (ArithmeticError, OrderExceeded) as exc:  # DivisionByZero, OrderExceeded
        return type(exc)


binomial_st = st.tuples(st.sampled_from(_BINOMIAL_CS + [ONE]), st.integers(-2, 3))
operand_st = st.one_of(
    negative_valuation_st,
    st.dictionaries(st.integers(-4, 8), coeffs_st, max_size=6).map(
        LaurentSeries.from_terms),  # exact: a division needs the cap
    st.sampled_from([LaurentSeries.zero(ORDER), LaurentSeries.zero()]),
)


def _check_kernel(f, shift, unit, muls, divs, cap):
    """One kernel call with mixed factors == the public methods applied in turn."""
    def one_by_one():
        g = f.shift(shift)
        if unit is not None:
            g = g.scale(unit)
        for c, e in muls:
            g = g.mul_one_minus(c, e)
        for c, e in divs:
            g = g.div_one_minus(c, e, cap)
        return g

    def in_one_call():
        return kernel(
            f, [(*_split(c), e) for c, e in muls], [(*_split(c), e) for c, e in divs],
            cap, shift, None if unit is None else _split(unit))

    got = _outcome(in_one_call)
    assert got == _outcome(one_by_one)
    return got


@settings(max_examples=_examples(300))
@given(f=operand_st, shift=st.integers(-3, 3), unit=st.none() | coeffs_st,
       muls=st.lists(binomial_st, max_size=3), divs=st.lists(binomial_st, max_size=3),
       cap=st.none() | st.integers(-6, ORDER + 6))
def test_kernel_matches_one_factor_at_a_time(f, shift, unit, muls, divs, cap):
    _check_kernel(f, shift, unit, muls, divs, cap)


rational_binomial_st = st.tuples(st.sampled_from(_RATIONAL_CS), st.integers(-2, 3))
rational_operand_st = st.builds(  # short orders, so factors at or past the order are common
    LaurentSeries.from_terms,
    st.dictionaries(st.integers(-4, 8), rational_coeffs_st, max_size=6),
    st.none() | st.integers(-2, 12))


@settings(max_examples=_examples(300))
@given(f=rational_operand_st, shift=st.integers(-3, 3), unit=st.none() | rational_coeffs_st,
       muls=st.lists(rational_binomial_st, max_size=4),
       divs=st.lists(rational_binomial_st, max_size=4),
       cap=st.none() | st.integers(-6, 16),
       late=st.none() | st.tuples(st.sampled_from([ONE - OMEGA, OMEGA]), st.integers(-2, 3),
                                  st.booleans()))
def test_kernel_on_rational_draws(f, shift, unit, muls, divs, cap, late):
    # rational operands, units and factors run on one numerator list; a late
    # factor with a w-part, after the rational ones, adds the w-list mid-call
    if late is not None:
        c, e, divide = late
        (divs if divide else muls).append((c, e))
    got = _check_kernel(f, shift, unit, muls, divs, cap)
    if late is None and isinstance(got, LaurentSeries):
        assert len(got._parts) == 1


def test_kernel_raises_at_the_first_failing_division():
    # the scalars apply last, but a zero scalar division still raises where it stands
    zero, step = (1, 0, 1, 0), (-1, 0, 1, 1)  # 1 - 1 at q^0, and 1 + q
    for f in (LaurentSeries.one(), LaurentSeries.one(8)):
        with pytest.raises(DivisionByZero):
            kernel(f, [], [zero, step])
    with pytest.raises(OrderExceeded):
        kernel(LaurentSeries.one(), [(1, 0, 1, 0)], [step, zero])
    with pytest.raises(DivisionByZero):
        kernel(LaurentSeries.one(8), [(1, 0, 1, 0)], [step, zero])


# -- the fused addend and the skipped factors ----------------------------------------------


def _stored(s):
    return s.offset, s.order, s._den, s._parts


def _summed(cap, g, p):
    """g + p trusted below the lowest of ``cap`` and their orders, summed
    coefficient by coefficient in CycRat and built from those terms."""
    order = min((o for o in (cap, g.order, p.order) if o is not None), default=None)
    exps = {e for s in (g, p) for e, _ in s.terms() if order is None or e < order}
    return LaurentSeries.from_terms({e: g.coeff(e) + p.coeff(e) for e in exps}, order)


addend_st = st.builds(
    LaurentSeries.from_terms,
    st.dictionaries(st.integers(-5, 40), st.one_of(coeffs_st, rational_coeffs_st),
                    min_size=1, max_size=6),
    st.none() | st.integers(-3, 40))


@settings(max_examples=_examples(300))
@given(f=st.one_of(rational_operand_st, operand_st), h=addend_st, at=st.integers(-8, 40),
       shift=st.integers(-3, 3), unit=st.none() | st.one_of(coeffs_st, rational_coeffs_st),
       muls=st.lists(st.one_of(rational_binomial_st, binomial_st), max_size=3),
       divs=st.lists(st.one_of(rational_binomial_st, binomial_st), max_size=3),
       cap=st.none() | st.integers(-6, 36))
def test_fused_addend_matches_two_calls(f, h, at, shift, unit, muls, divs, cap):
    # _binomials(f, ..., plus=g) stores the CycRat sum of g and _binomials(f, ...),
    # trusted below the lowest of cap and their orders.
    # The addend g is h moved to start ``at`` entries above the product's first:
    # below it, inside it, beyond its end or its order, or longer than it when
    # h is; both carry w-parts, negative offsets and denominators other than 1
    # in some draws, with exact or finite orders.
    args = ([(*_split(c), e) for c, e in muls], [(*_split(c), e) for c, e in divs],
            cap, shift, None if unit is None else _split(unit))
    product = _outcome(lambda: kernel(f, *args))
    start = product.offset if isinstance(product, LaurentSeries) else 0
    g = h if h.is_zero() else h.shift(start + at - h.offset)
    kept = _stored(f), _stored(g)
    two = _outcome(lambda: _summed(cap, g, kernel(f, *args)))
    fused = _outcome(lambda: kernel(f, *args, plus=g))
    assert (_stored(f), _stored(g)) == kept  # the kernel adds only into lists of its own
    if not isinstance(two, LaurentSeries):
        assert fused == two
        return
    assert _stored(fused) == _stored(two)
    top = fused.order  # the sum, coefficient by coefficient in CycRat
    if top is None:
        top = max(s.offset + len(s._parts[0]) for s in (g, product))
    for n in range(min(_low(g), _low(product)), top):
        assert fused.coeff(n) == g.coeff(n) + product.coeff(n)


_HALF = (1, 0, 2)  # the scalar 1/2, split


@pytest.mark.parametrize("g, f, kernel_args", [
    # g at the cap and beyond it: only the product is kept
    (mono(OMEGA, 12, 20), LaurentSeries.from_terms({-2: ONE, 3: CycRat(2)}, 20),
     ([(1, 0, 1, 1)], [(-1, 0, 1, 2)], 12, 0, None)),
    (mono(ONE, 30), LaurentSeries.from_terms({0: ONE}, 20), ([], [(1, 0, 1, 1)], 12, 0, None)),
    # a zero product: the unit 0, and a zero operand
    (LaurentSeries.from_terms({-3: ONE, 1: OMEGA}, 15), LaurentSeries.one(10),
     ([(1, 0, 1, 1)], [], None, 0, (0, 0, 1))),
    (LaurentSeries.from_terms({0: CycRat(rat(1, 3))}, 15), LaurentSeries.zero(),
     ([], [(1, 0, 1, 1)], 9, 0, None)),
    # an exact g; an exact product, and the sum stays exact
    (LaurentSeries.from_terms({-1: CycRat(rat(1, 2)), 4: ONE}), LaurentSeries.one(12),
     ([(-1, 0, 1, 3)], [(1, 0, 1, 1)], None, 0, None)),
    (LaurentSeries.from_terms({-1: CycRat(rat(1, 2)), 4: ONE}),
     LaurentSeries.from_terms({-2: CycRat(rat(3, 4))}), ([(1, 1, 2, 2)], [], None, -1, None)),
    # den != 1 on either side and both, negative offsets
    (LaurentSeries.from_terms({-4: CycRat(rat(1, 6)), 0: OMEGA}, 14),
     LaurentSeries.from_terms({-3: ONE, 2: CycRat(-1)}, 16), ([], [(1, 0, 1, 2)], 14, -1, None)),
    (LaurentSeries.from_terms({-4: ONE, 0: CycRat(3)}, 14),
     LaurentSeries.from_terms({-3: ONE, 2: CycRat(-1)}, 16), ([(1, 0, 3, -1)], [], 14, 0, _HALF)),
    (LaurentSeries.from_terms({-4: CycRat(rat(5, 2))}, 14),
     LaurentSeries.from_terms({-3: CycRat(rat(1, 4))}, 16), ([], [(2, 0, 3, 1)], 11, 0, _HALF)),
    # the product cancels g below the cap
    (LaurentSeries.from_terms({0: CycRat(-1), 1: ONE}, 10), LaurentSeries.one(10),
     ([(1, 0, 1, 1)], [], None, 0, None)),
])
def test_fused_addend_examples(g, f, kernel_args):
    two = _summed(kernel_args[2], g, kernel(f, *kernel_args))
    assert _stored(kernel(f, *kernel_args, plus=g)) == _stored(two)


@pytest.mark.parametrize("c", [ONE, CycRat(-1), CycRat(rat(1, 2)), OMEGA], ids=str)
@pytest.mark.parametrize("step", [-1, 0, 1, 2])  # e minus the length below the order
def test_factors_at_the_order_store_the_applied_data(c, step):
    # a factor skipped at e >= order - offset (multiplication) or e >= the
    # length below the order (division) stores what applying it stores, here
    # through __mul__ by the binomial and by the binomial's inverse
    f = LaurentSeries.from_terms({-2: CycRat(rat(1, 3)), 1: OMEGA, 5: CycRat(-2)}, 9)
    binomial = lambda e: LaurentSeries.from_terms({0: ONE, e: -c})
    for length in (f.order - f.offset, 7):  # the divisions at f's order, or capped below it
        e = length + step
        if e < 1:
            continue
        assert f.mul_one_minus(c, e) == f * binomial(e)
        cap = f.offset + length
        quotient = f.div_one_minus(c, e, cap)
        assert quotient == (f * binomial(e).inverse(min(cap, f.order) - f.offset))
        assert quotient == f.truncate(cap) or step < 0
    # and inside one call, after and before applied factors
    assert (kernel(f, [(*_split(c), 20), (*_split(c), 1)], [(*_split(c), 15)], 30)
            == f.mul_one_minus(c, 1))


# -- conjugate roots of unity paired into rational factors ---------------------------------


_ROOTS = [OMEGA, OMEGA_BAR, -OMEGA, -OMEGA_BAR]
conjugate_pairs_st = st.lists(  # (c, e), (conj(c), e) at one e != 0
    st.tuples(st.sampled_from(_ROOTS), st.integers(-3, 3).filter(bool)), max_size=2).map(
    lambda pairs: [f for c, e in pairs for f in ((c, e), (c.conjugate(), e))])
paired_factors_st = st.tuples(
    st.lists(st.one_of(binomial_st, rational_binomial_st), max_size=2), conjugate_pairs_st
).flatmap(lambda parts: st.permutations(parts[0] + parts[1]))


def _pieces(factors):
    return [(*_split(c), e) for c, e in factors]


@settings(max_examples=_examples(300))
@given(f=st.one_of(operand_st, rational_operand_st), shift=st.integers(-3, 3),
       unit=st.none() | st.one_of(coeffs_st, rational_coeffs_st),
       muls=paired_factors_st, divs=paired_factors_st,
       cap=st.none() | st.integers(-6, ORDER + 6))
def test_paired_factors_match_unpaired(f, shift, unit, muls, divs, cap):
    args = (cap, shift, None if unit is None else _split(unit))
    want = _outcome(lambda: kernel(f, _pieces(muls), _pieces(divs), *args))
    if f.order is None:  # an exact operand takes paired divisions only
        more, paired_divs = _paired([], _pieces(divs))
        got = _outcome(lambda: kernel(f, _pieces(muls) + more, paired_divs, *args))
    else:
        paired = _paired(_pieces(muls), _pieces(divs))
        got = _outcome(lambda: kernel(f, *paired, *args))
        if (cap is not None and isinstance(want, LaurentSeries)
                and not any(c and e for c, e in divs) and any(e for *_, e in paired[1])):
            want = want.truncate(cap)  # a paired multiplication divides, and takes the cap
    assert got == want


def test_paired_factor_examples():
    w, wb, mw, mwb = (_split(c) for c in _ROOTS)
    # (1 - w q)(1 - w^2 q) = (1 - q^3)/(1 - q), (1 + w q^-2)(1 + w^2 q^-2) = (1 + q^-6)/(1 + q^-2)
    assert _paired([(*w, 1), (1, 0, 1, 1), (*wb, 1)], [(*mwb, -2), (*mw, -2)]) == (
        [(1, 0, 1, 3), (1, 0, 1, 1), (-1, 0, 1, -2)], [(1, 0, 1, 1), (-1, 0, 1, -6)])
    # e = 0, no partner, a partner at another exponent, a non-integral c: as they are
    alone = [(*w, 0), (*wb, 0), (*mw, 1), (*w, 2), (*wb, 3), (0, 2, 2, 1), (-1, -1, 1, 1)]
    assert _paired(alone, []) == (alone, [])
    # rational factors only: the lists themselves
    muls, divs = [(1, 0, 1, 1)], [(-1, 0, 2, 3)]
    assert _paired(muls, divs) == (muls, divs)
    # a paired multiplication divides: an exact operand would need an order
    exact = LaurentSeries.one()
    pair = [(*w, 1), (*wb, 1)]
    assert kernel(exact, pair) == LaurentSeries.from_terms({0: ONE, 1: ONE, 2: ONE})
    with pytest.raises(OrderExceeded):
        kernel(exact, *_paired(pair, []))
    # scalars rational in total: C(w, -1) = w^2 / (1 + w^2)^2 = 1 times (1 - w)(1 - w^2) = 3
    g = kernel(LaurentSeries.one(9), [(*w, 0), (*wb, 0)], [(*mwb, 0)] * 2, unit=wb)
    assert g == LaurentSeries.monomial(CycRat(3), 0, 9)


# -- the kernel's divisions against the plain inverse ---------------------------------------


_DIVISOR_CS = _ROOTS + [ONE, CycRat(-1), CycRat(2), CycRat(rat(1, 3)),
                        CycRat(rat(1, 2), rat(-2, 3))]
_DIVISOR_ES = st.sampled_from([-3, -2, -1, 1, 2, 3])
divisor_st = st.tuples(st.sampled_from(_DIVISOR_CS), _DIVISOR_ES)
divisors_st = st.one_of(  # up to three binomials; or a conjugate pair and one more
    st.lists(divisor_st, max_size=3),
    st.tuples(divisor_st, st.sampled_from(_ROOTS), _DIVISOR_ES).flatmap(
        lambda t: st.permutations([t[0], (t[1], t[2]), (t[1].conjugate(), t[2])])),
)


@settings(max_examples=_examples(200))
@given(factors=divisors_st, order=st.integers(1, 24))
def test_kernel_divisions_match_the_inverse(factors, order):
    # 1 / prod (1 - c q^e) by the kernel's recurrences, with conjugate roots
    # paired or not, and by forward substitution on the exact product's values
    product = LaurentSeries.one()
    for c, e in factors:
        product = product * LaurentSeries.from_terms({0: ONE, e: -c})
    reference = LaurentSeries.one(order) * product.inverse(order)
    for muls, divs in (([], _pieces(factors)), _paired([], _pieces(factors))):
        quotient = kernel(LaurentSeries.one(order), muls, divs)
        low = min(quotient.order, reference.order)
        assert low >= order
        assert quotient.truncate(low) == reference.truncate(low)


# -- parameters --------------------------------------------------------------------------


@pytest.mark.parametrize("p", [ParamValue(CycRat(rat(2, 3), rat(-1, 5)), 2), Q,
                               ParamValue(-OMEGA, -1), ParamValue(CycRat(-1))], ids=str)
def test_param_inverse_is_a_value(p):
    twin = ParamValue(p.coeff, p.exp)
    before = (repr(p), hash(p), pickle.dumps(p))
    inverse = p.inv()
    assert inverse == ParamValue(p.coeff.inverse(), -p.exp)
    assert p.inv() == inverse and inverse.inv() == p
    # taking the inverse leaves eq, hash and repr alone
    assert p == twin and hash(p) == hash(twin) and {p: 1}[twin] == 1
    assert (repr(p), hash(p)) == before[:2] and repr(p) == repr(twin)
    assert twin.inv() == inverse
    assert replace(p) == p and replace(p).inv() == inverse
    moved = replace(p, exp=p.exp + 1)
    assert moved.inv() == ParamValue(p.coeff.inverse(), -p.exp - 1)
    for data in (before[2], pickle.dumps(p)):  # pickled before and after an inverse is taken
        back = pickle.loads(data)
        assert back == p and hash(back) == hash(p) and repr(back) == repr(p)
        assert back.inv() == inverse and back.inv().inv() == back
    copied = copy.deepcopy(p)
    assert copied == p and copied.inv() == inverse and copied.inv().inv() == copied


@pytest.mark.parametrize("exp", [1.5, 2.0, "1", None], ids=repr)
def test_param_exponent_must_be_an_int(exp):
    with pytest.raises(TypeError, match=f"got {type(exp).__name__}: "):
        ParamValue(ONE, exp)


def test_param_exponent_int_subclass_is_stored_as_int():
    p = ParamValue(ONE, True)
    assert type(p.exp) is int and p == Q and str(p) == "q^1"


# -- Pochhammer constructors ---------------------------------------------------------------


def test_poch_finite_examples():
    a = ParamValue(OMEGA, 2)
    assert poch_finite(a, Q, 0) == LaurentSeries.one()
    got = poch_finite(Q, Q, 2)
    want = LaurentSeries.from_terms(
        {0: ONE, 1: CycRat(-1), 2: CycRat(-1), 3: ONE})
    assert got == want
    # base q^2 with a negative leading exponent
    got = poch_finite(ParamValue(ONE, -1), ParamValue(ONE, 2), 2)
    want = (LaurentSeries.from_terms({0: ONE, -1: CycRat(-1)})
            * LaurentSeries.from_terms({0: ONE, 1: CycRat(-1)}))
    assert got == want


def test_poch_finite_negative_n():
    with pytest.raises(ValueError):
        poch_finite(Q, Q, -1)


def test_invalid_base():
    with pytest.raises(InvalidBase):
        poch_finite(Q, ParamValue(ONE, 0), 1)
    with pytest.raises(InvalidBase):
        poch_infinite(Q, ParamValue(ONE, -2), 10)


_FLAT = ParamValue(ONE, 0)  # the base q^0
_ONE = ParamValue(ONE, 0)  # a = 1: the factor j = 0 is (1 - 1)


@pytest.mark.parametrize("build,error", [
    # the base first, then n >= 0
    (lambda: poch_finite(Q, _FLAT, -1), InvalidBase),
    (lambda: poch_finite_inv(_ONE, _FLAT, -1, None), InvalidBase),
    (lambda: poch_infinite(_ONE, _FLAT, None), InvalidBase),
    (lambda: poch_infinite_inv(_ONE, _FLAT, None), InvalidBase),
    (lambda: poch_finite_inv(_ONE, Q, -1, None), ValueError),
    # an infinite product's order before its zero factor, an inverse's after
    (lambda: poch_infinite(_ONE, Q, None), OrderExceeded),
    (lambda: poch_infinite_inv(_ONE, Q, None), ZeroFactor),
    (lambda: poch_finite_inv(_ONE, Q, 1, None), ZeroFactor),
    (lambda: poch_finite_inv(Q, Q, 0, None), OrderExceeded),
    (lambda: poch_finite(_ONE, Q, 1), ZeroFactor),
    # a zero factor out of range: q^-2 * q^2 = 1 at j = 2
    (lambda: poch_finite_inv(ParamValue(ONE, -2), Q, 2, None), OrderExceeded),
    (lambda: poch_finite(ParamValue(ONE, -2), Q, 3, 5), ZeroFactor),
])
def test_pochhammer_checks_run_in_turn(build, error):
    with pytest.raises(error):
        build()


# -- closed-form oracles, generated from their formulas ---------------------------------


def _closed_form(terms, order):
    """{exponent: coefficient} of a sum of (coefficient, exponent) pairs below order."""
    out = {}
    for c, n in terms:
        if n < order:
            out[n] = out.get(n, CycRat(0)) + c
    return out


def _agrees(series, expected, order):
    for n in range(order):
        assert series.coeff(n) == expected.get(n, CycRat(0)), n


def test_euler_pentagonal_prefix():
    # (q;q)_inf = sum_k (-1)^k q^{k(3k-1)/2} over all integers k
    order = 60
    expected = _closed_form(
        ((CycRat((-1) ** k), k * (3 * k + s) // 2) for k in range(order) for s in (-1, 1)
         if k or s == -1), order)
    _agrees(poch_infinite(Q, Q, order), expected, order)


def test_jacobi_cube():
    # (q;q)_inf^3 = sum_{n>=0} (-1)^n (2n+1) q^{n(n+1)/2}
    order = 60
    expected = _closed_form(
        ((CycRat((-1) ** n * (2 * n + 1)), n * (n + 1) // 2) for n in range(order)), order)
    euler = poch_infinite(Q, Q, order)
    _agrees(euler * euler * euler, expected, order)


@pytest.mark.parametrize("z", [CycRat(-1), OMEGA, -OMEGA], ids=str)
def test_triple_product(z):
    # (z, q/z, q; q)_inf = sum_{n in Z} (-1)^n z^n q^{n(n-1)/2}
    order = 45
    zinv = z.inverse()
    terms = []
    for n in range(-order, order + 1):
        power = ONE
        for _ in range(abs(n)):
            power = power * (z if n > 0 else zinv)
        terms.append((CycRat((-1) ** (n % 2)) * power, n * (n - 1) // 2))
    got = (poch_infinite(ParamValue(z, 0), Q, order)
           * poch_infinite(ParamValue(zinv, 1), Q, order)
           * poch_infinite(Q, Q, order))
    _agrees(got, _closed_form(terms, order), order)


def test_zero_factor_detection():
    with pytest.raises(ZeroFactor):
        poch_infinite(ParamValue(ONE, -1), Q, 10)  # j=1 hits 1 - q^0
    with pytest.raises(ZeroFactor):
        poch_finite(ParamValue(ONE, 0), Q, 1)
    with pytest.raises(ZeroFactor):
        poch_infinite_inv(ParamValue(ONE, -2), ParamValue(ONE, 2), 10)


def test_cube_base_infinite():
    lhs = (poch_infinite(ParamValue(OMEGA, 1), Q, 30)
           * poch_infinite(ParamValue(OMEGA_BAR, 1), Q, 30)
           * poch_infinite(Q, Q, 30))
    rhs = poch_infinite(ParamValue(ONE, 3), ParamValue(ONE, 3), 30)
    assert same(lhs, rhs, 30)


@pytest.mark.parametrize("x", [
    ParamValue(ONE, 1),          # q
    ParamValue(CycRat(-1), 1),   # -q
    ParamValue(OMEGA, 1),        # w*q
])
@pytest.mark.parametrize("n", range(11))
def test_cube_base_finite(x, n):
    cube = ParamValue(x.coeff * x.coeff * x.coeff, 3 * x.exp)
    base3 = ParamValue(ONE, 3)
    lhs = poch_finite(cube, base3, n)
    rhs = (poch_finite(x, Q, n)
           * poch_finite(ParamValue(x.coeff * OMEGA, x.exp), Q, n)
           * poch_finite(ParamValue(x.coeff * OMEGA_BAR, x.exp), Q, n))
    assert lhs == rhs


@given(st.integers(-2, 3), st.sampled_from([ONE, -OMEGA, OMEGA_BAR]),
       st.integers(1, 2))
def test_truncation_monotonicity(e, c, be):
    assume(not (c == ONE and e <= 0 and (-e) % be == 0))  # (a;base)_inf = 0
    a = ParamValue(c, e)
    base = ParamValue(ONE, be)
    lo = poch_infinite(a, base, 15)
    hi = poch_infinite(a, base, 40)
    assert same(lo, hi, 15)
    assert same(poch_infinite_inv(a, base, 15), poch_infinite_inv(a, base, 40), 15)


@given(st.integers(0, 8))
def test_finite_inv_round_trip(n):
    a = ParamValue(-OMEGA, 1)
    f = poch_finite(a, Q, n, 25)
    g = poch_finite_inv(a, Q, n, 25)
    assert same(f * g, LaurentSeries.one(25), 20)


def test_mul_one_minus_zero_series_order():
    # q^4 * (1 - q^-1) has a -q^3 term, so a zero known below q^4 is only
    # known below q^3 after the product
    assert LaurentSeries.zero(4).mul_one_minus(ONE, -1).order == 3
    assert LaurentSeries.zero(4).mul_one_minus(ONE, 2).order == 4
    assert LaurentSeries.zero().mul_one_minus(ONE, -1) == LaurentSeries.zero()


def test_mixed_order_truncates_down():
    f = LaurentSeries.from_terms({0: ONE}, 10)
    g = LaurentSeries.from_terms({0: ONE}, 20)
    assert (f + g).order == 10
    assert (f * g).order == 10


def test_require_order():
    f = LaurentSeries.from_terms({0: ONE}, 10)
    assert f.require_order(10) is f or f.require_order(10).order == 10
    with pytest.raises(OrderExceeded):
        f.require_order(11)
