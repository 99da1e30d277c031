"""Pochhammer powers applied as eta quotients, against the factor-by-factor path.

``vwp._apply`` rewrites each power (c q^e; q^s)_inf^k with c = +-1, or a
conjugate pair of roots of unity, at e = 0 or s/2 mod s, into binomials and
powers of (q^u; q^u)_inf, which the kernel applies as Euler's pentagonal
series.  The reference here lists every factor of every power instead, and
the two must store the same data or raise the same exception.  The reference
builds and checks each power's parameter and base itself, as ``ParamValue``
and ``_check_base`` do, so it shares none of the code it checks; so do the
references for a Term's slack and for a sum of Terms, which applies each Term
on its own where ``vwp._product_sum`` collects them.
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
    ZeroFactor,
    _binomials,
    _built,
    _check_base,
    _factors,
    _negative_slack,
    _one,
    _paired,
    _pentagonal,
    _split,
    _state,
    _zero,
    _zero_factor_index,
    poch_infinite,
)
from qseries.vwp import Term

from test_laurent import _examples, coeffs_st


def _power_by_factors(c, e, s) -> tuple:
    """The parameter c q^e and the base of a power, built and checked:
    TypeError or ValueError from ``ParamValue``, then InvalidBase."""
    p, base = ParamValue(c, e), s if isinstance(s, ParamValue) else ParamValue(ONE, s)
    _check_base(base)
    return p, base


def _apply_by_factors(t: Term, f: tuple, plus: tuple | None = None) -> tuple:
    """t * f (+ plus) in one kernel call with every Pochhammer factor listed:
    the factors of each (c q^e; base)_inf^k below the order, repeated |k|
    times, as multiplications (k > 0) or divisions (k < 0), then paired.
    Each power is checked in turn: its parameter and base, then ZeroFactor
    when it vanishes identically, then OrderExceeded without an order."""
    offset, _, _, order = f
    muls = [(*_split(c), e) for c, e in t.muls]
    divs = [(*_split(c), e) for c, e in t.divs]
    for c, e, s, k in t.pochs:
        p, base = _power_by_factors(c, e, s)
        if _zero_factor_index(p, base) is not None:
            raise ZeroFactor(f"({p}; {base})_inf vanishes identically")
        if order is None:
            raise OrderExceeded("a Pochhammer power needs an order")
        (muls if k > 0 else divs).extend(_factors(p, base, below=order - offset) * abs(k))
    if order is not None:
        muls, divs = _paired(muls, divs)
    return _binomials(f, muls, divs, shift=t.shift, unit=_split(t.scalar), plus=plus)


def _slack_by_factors(t: Term) -> int:
    """The negative q-powers of t: its shift's, its multiplications' and those
    of the factors of its powers with k > 0, listed."""
    dips = [-e for _, e in t.muls if e < 0]
    for c, e, s, k in t.pochs:
        dips.append(max(k, 0) * _negative_slack(*_power_by_factors(c, e, s)))
    return max(0, -t.shift) + sum(dips)


def _sum_by_factors(terms, order) -> tuple:
    """The state of the sum of ``terms`` below ``order``: every slack first,
    then one kernel call per Term, each adding the ones before it."""
    slacks = [_slack_by_factors(t) for t in terms]
    total = _zero(order)
    for t, slack in zip(terms, slacks):
        total = _apply_by_factors(t, _one(None if order is None else order + slack - t.shift),
                                  total)
    return total


def _stored(build):
    """The stored data of the series ``build()`` returns the state of, or the
    type of the exception it raises."""
    try:
        s = _built(build())
    except (ArithmeticError, OrderExceeded, TypeError, ValueError) as exc:
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


# -- malformed and vanishing powers raise as the reference does ----------------------------

_WQ = ParamValue(OMEGA, 1)

# each raises, or takes the path it names, at its first power
_ODD_POWERS = {
    "zero coefficient": (0, 1, 1, 1),
    "zero CycRat coefficient": (CycRat(0), 2, 1, -1),
    "float exponent": (1, 1.5, 1, 1),
    "float exponent, zero coefficient": (0, 0.5, 1, 1),
    "float step": (-1, 1, 1.5, 1),
    "base q^0": (1, 1, 0, 1),
    "base q^-1 as a ParamValue": (-1, 2, ParamValue(ONE, -1), 2),
    "base w as a ParamValue": (OMEGA, 1, ParamValue(OMEGA), -1),
    "vanishing at q^0": (1, 0, 1, 1),
    "vanishing at j = 2": (1, -4, 2, -1),
    "vanishing on base wq": (OMEGA_BAR, -1, _WQ, 1),
    "vanishing on base q as a ParamValue": (1, -3, ParamValue(ONE, 1), 2),
    "bool exponent": (-1, True, 1, 1),
    "Fraction coefficient": (rat(1, 2), -1, 2, 1),
    "base q^2 as a ParamValue": (-1, 0, ParamValue(ONE, 2), -2),
    "base wq": (-1, -1, _WQ, 1),
}

# conjugate pairs at e <= 0, whose factors there stay binomials, with k of both signs
_LOW_PAIRS = [((c, e, s, k), (c.conjugate(), e, s, k))
              for c in (OMEGA, -OMEGA) for e in (-3, -1, 0) for s in (1, 2, 3) for k in (-2, 1)]


def _outcome(compute):
    """compute() or the type of the exception it raises."""
    try:
        return compute()
    except (ArithmeticError, OrderExceeded, TypeError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("name", _ODD_POWERS)
def test_odd_powers_raise_as_the_reference(name):
    # alone, after a power that is fine and before one that vanishes, so the
    # first power that fails decides; through _term_slack, _apply and _product_sum
    power = _ODD_POWERS[name]
    for pochs in ((power,), ((1, 2, 1, 1), power), (power, (1, 0, 1, -1))):
        t = Term(CycRat(rat(2, 3)), shift=-1, pochs=pochs)
        assert _outcome(lambda: vwp._term_slack(t)) == _outcome(lambda: _slack_by_factors(t))
        _check(t, (1, 9, 30))
        for order in (None, 1, 9):
            want = _stored(lambda: _apply_by_factors(t, _one(order)))
            assert _stored(lambda: vwp._apply(t, _one(order))) == want, (pochs, order)
            want = _stored(lambda: _sum_by_factors((Term(-1), t), order))
            assert _stored(lambda: vwp._product_state((Term(-1), t), order)) == want


def test_low_conjugate_pairs_match_the_reference():
    for pair in _LOW_PAIRS:
        t = Term(pochs=pair)
        assert vwp._term_slack(t) == _slack_by_factors(t)
        _check(t, (1, 7, 20))


# sums whose Terms collect: equal keys with scalars that add or cancel, with and
# without binomials, with a power that vanishes or is malformed, and with no order
_SUMS = [
    (Term(2, pochs=((1, 1, 1, 2),)), Term(pochs=((-1, 1, 1, 1),)),
     Term(-1, pochs=((1, 1, 1, 2),))),
    (Term(pochs=((OMEGA, 1, 1, -1), (OMEGA_BAR, 1, 1, -1))),
     Term(-1, pochs=((OMEGA, 1, 1, -1), (OMEGA_BAR, 1, 1, -1)))),
    (Term(3, muls=((1, -1),), pochs=((1, 1, 2, 1),)),
     Term(-3, muls=((1, -1),), pochs=((1, 1, 2, 1),))),
    (Term(OMEGA), Term(-OMEGA), Term(1, shift=-2)),
    (Term(pochs=((1, 0, 1, 1),)), Term(-1, pochs=((1, 0, 1, 1),)), Term(5)),
    (Term(pochs=((1, 1, 1, 1), (1, -2, 2, 1))), Term(-1, pochs=((1, 1, 1, 1), (1, -2, 2, 1)))),
    (Term(pochs=((2, 1, 1.5, 1),)), Term(-1, pochs=((2, 1, 1.5, 1),))),
    (Term(divs=((1, 0),)), Term(-1, divs=((1, 0),))),
    (Term(divs=((-1, 2),)), Term(-1, divs=((-1, 2),)), Term(4)),
    (Term(OMEGA, pochs=((-1, 2, _WQ, 1),)), Term(2, shift=1),
     Term(-OMEGA, pochs=((-1, 2, _WQ, 1),))),
]


@pytest.mark.parametrize("n", range(len(_SUMS)))
def test_collected_sums_match_the_reference(n):
    for order in [None] + list(range(1, 13)) + [40]:
        want = _stored(lambda: _sum_by_factors(_SUMS[n], order))
        assert _stored(lambda: vwp._product_state(_SUMS[n], order)) == want, order
