"""Pochhammer powers applied as eta quotients, against the factor-by-factor path.

``vwp._apply`` rewrites each power (c q^e; q^s)_inf^k with c = +-1, or a
conjugate pair of roots of unity, at e = 0 or s/2 mod s, into binomials and
powers of (q^u; q^u)_inf, which the kernel applies as Euler's pentagonal
series.  The reference here lists every factor of every power instead, and
the two must store the same data or raise the same exception.
"""

import itertools
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from qseries import catalog, vwp
from qseries.coeffring import CycRat, OMEGA, OMEGA_BAR, ONE, rat
from qseries.laurent import (
    LaurentSeries,
    OrderExceeded,
    ParamValue,
    _binomials,
    _built,
    _factors,
    _one,
    _paired,
    _pentagonal,
    _split,
    _state,
    poch_infinite,
)
from qseries.vwp import Term

from test_laurent import _examples, coeffs_st


def _apply_by_factors(t: Term, f: tuple, plus: tuple | None = None) -> tuple:
    """t * f (+ plus) in one kernel call with every Pochhammer factor listed:
    the factors of each (c q^e; base)_inf^k below the order, repeated |k|
    times, as multiplications (k > 0) or divisions (k < 0), then paired."""
    offset, _, _, order = f
    muls = [(*_split(c), e) for c, e in t.muls]
    divs = [(*_split(c), e) for c, e in t.divs]
    for p, base, k in vwp._powers(t):
        if order is None:
            raise OrderExceeded("a Pochhammer power needs an order")
        (muls if k > 0 else divs).extend(_factors(p, base, below=order - offset) * abs(k))
    if order is not None:
        muls, divs = _paired(muls, divs)
    return _binomials(f, muls, divs, shift=t.shift, unit=_split(t.scalar), plus=plus)


def _stored(build):
    """The stored data of the series ``build()`` returns the state of, or the
    type of the exception it raises."""
    try:
        s = _built(build())
    except (ArithmeticError, OrderExceeded, ValueError) as exc:
        return type(exc)
    return s.offset, s.order, s._den, s._parts


def _operands(order: int) -> list:
    """Kernel states (f, plus) trusted below ``order``: the constant 1 a
    product side starts from, and a series with a negative offset and a
    w-part, with an addend that has a w-part too."""
    f = LaurentSeries.from_terms({-2: OMEGA, 0: CycRat(rat(1, 2)), 3: ONE - OMEGA}, order)
    plus = LaurentSeries.from_terms({-1: CycRat(3), 1: OMEGA_BAR}, order + 1)
    return [(_one(order), None), (_state(f), _state(plus))]


def _check(t: Term, orders):
    for order in orders:
        for f, plus in _operands(order):
            want = _stored(partial(_apply_by_factors, t, f, plus))
            assert _stored(partial(vwp._apply, t, f, plus)) == want, (t, order, plus is None)


# -- the catalog's Terms ----------------------------------------------------------------

_CATALOG_TERMS = {
    "first terms": [side.keywords["first"] for side in catalog._LHS.values()],
    "product sides": [t for terms in catalog._RHS.values() for t in terms],
    "prefactors": [e.specialization.prefactor for e in catalog.registry().values()
                   if e.specialization is not None],
}


@pytest.mark.parametrize("kind", _CATALOG_TERMS)
def test_catalog_terms_match_the_reference(kind):
    for t in _CATALOG_TERMS[kind]:
        _check(t, list(range(1, 41)) + [100])


# -- a grid of powers --------------------------------------------------------------------

_UNITS = [ONE, CycRat(-1), OMEGA, OMEGA_BAR, -OMEGA, -OMEGA_BAR]


def _grid_terms(s: int):
    """(c q^e; q^s)_inf^k for every c in _UNITS, -3 <= e <= 7 and 1 <= |k| <= 3,
    and the conjugate pairs (c q^e, conj(c) q^e; q^s)_inf^k for c = w, -w."""
    for c, e, k in itertools.product(_UNITS, range(-3, 8), (-3, -2, -1, 1, 2, 3)):
        yield Term(pochs=((c, e, s, k),))
        if c in (OMEGA, -OMEGA):
            yield Term(pochs=((c, e, s, k), (c.conjugate(), e, s, k)))


@pytest.mark.parametrize("s", range(1, 7))
def test_grid_of_powers_matches_the_reference(s):
    # each Term at two orders from 1 to 40, 20 apart, moving with the Term, so
    # consecutive Terms cover every order
    for i, t in enumerate(_grid_terms(s)):
        _check(t, (1 + i % 40, 1 + (i + 20) % 40))


def test_unpaired_and_mixed_powers_match_the_reference():
    # a root of unity without its conjugate, with it at another e, k or base,
    # on a base whose coefficient is not 1, and with coefficients 2 and 1/2:
    # listed factor by factor, and beside powers that are rewritten
    w, wb, half = OMEGA, OMEGA_BAR, CycRat(rat(1, 2))
    terms = [
        Term(pochs=((w, 1, 1, 1),)),
        Term(pochs=((w, 1, 1, 1), (wb, 2, 1, 1))),
        Term(pochs=((w, 1, 1, 1), (wb, 1, 1, -1))),
        Term(pochs=((w, 1, 2, 1), (wb, 1, 1, 1))),
        Term(pochs=((w, 2, 2, -2), (wb, 2, 2, -2), (w, 2, 2, -2))),
        Term(pochs=((1, 1, ParamValue(OMEGA, 1), 1), (-1, 2, 1, -2))),
        Term(2, shift=-1, muls=((w, 1), (wb, 1)), divs=((-1, 2),),
             pochs=((2, 1, 1, 1), (half, 0, 2, -1), (1, 1, 3, 2), (-1, -1, 2, -1))),
        Term(pochs=((1, 1, 1, 2), (1, 1, 1, -2))),
    ]
    for t in terms:
        _check(t, list(range(1, 41)) + [100])


# -- the kernel's eta steps against binomial steps -------------------------------------

eta_st = st.tuples(st.integers(1, 6), st.integers(-3, 3).filter(bool))
operand_st = st.builds(
    LaurentSeries.from_terms,
    st.dictionaries(st.integers(-4, 8), coeffs_st, max_size=6),
    st.none() | st.integers(-2, 30))


@settings(max_examples=_examples(200))
@given(f=operand_st, etas=st.lists(eta_st, max_size=3), cap=st.none() | st.integers(-6, 36),
       shift=st.integers(-3, 3), plus=st.none() | operand_st)
def test_eta_steps_match_binomial_steps(f, etas, cap, shift, plus):
    # (q^u; q^u)_inf^m as one sparse step against its factors (1 - q^(ju)),
    # j >= 1, as m multiplications or -m divisions; those at or past the
    # order are skipped by the kernel.  A multiplication needs a finite order.
    order, needs = None if f.order is None else f.order + shift, False
    for _, m in etas:
        if m < 0 and cap is not None and (order is None or cap < order):
            order = cap
        needs = needs or order is None
    def factors(u):
        return [(1, 0, 1, j * u) for j in range(1, 48 // u)]

    muls = [x for u, m in etas if m > 0 for x in factors(u) * m]
    divs = [x for u, m in etas if m < 0 for x in factors(u) * -m]
    addend = None if plus is None else _state(plus)
    got = _stored(lambda: _binomials(_state(f), cap=cap, shift=shift, plus=addend, etas=etas))
    if needs:
        assert got is OrderExceeded
        return
    assert got == _stored(lambda: _binomials(_state(f), muls, divs, cap, shift, plus=addend))


# -- the pentagonal terms are Euler's product, built factor by factor ---------------------


@pytest.mark.parametrize("u", range(1, 7))
def test_pentagonal_terms_are_the_euler_product(u):
    base = ParamValue(ONE, u)
    for length in range(1, 201):
        euler = poch_infinite(base, base, length)
        assert euler.coeff(0) == ONE
        signs = {ONE: 1, -ONE: -1}
        assert _pentagonal(u, length) == [(e, signs.get(c, c)) for e, c in euler.terms() if e]
