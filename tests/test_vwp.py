"""Very-well-poised multisum machinery: helpers, identity, bilateral forms."""

import itertools
import signal

import pytest
from hypothesis import given, settings, strategies as st

from qseries.coeffring import CycRat, OMEGA, OMEGA_BAR, ONE, rat
from qseries.laurent import (
    InvalidBase,
    LaurentSeries,
    ParamValue,
    Q,
    ZeroFactor,
    poch_finite,
    poch_infinite,
    poch_infinite_inv,
)
from qseries import catalog, vwp

W = ParamValue(OMEGA, 0)
WB = ParamValue(OMEGA_BAR, 0)
MW = ParamValue(-OMEGA, 0)
MWB = ParamValue(-OMEGA_BAR, 0)
M1 = ParamValue(CycRat(-1), 0)
P1 = ParamValue(ONE, 0)
MQ = ParamValue(CycRat(-1), 1)
Q2 = ParamValue(ONE, 2)

_POOL = [P1, M1, W, WB, MW, MWB]
_TRIPLES = [
    t for t in itertools.permutations(_POOL, 3)
    if all(t[j] not in (t[i], t[i].inv())
           for i in range(3) for j in range(i + 1, 3))
]


def same(f, g, order):
    return f.agrees_below(g, order) is None


def const(f, value):
    """Exact Laurent series equal to the scalar ``value``."""
    return (f - LaurentSeries.monomial(value)).is_zero()


# -- scalar helpers ---------------------------------------------------------------


def test_c_helper_constants():
    assert const(vwp.c_helper(W, M1), ONE)
    assert const(vwp.c_helper(W, P1), CycRat(rat(-1, 3)))
    assert const(vwp.c_helper(MW, P1), CycRat(-1))
    assert const(vwp.c_helper(MW, W), CycRat(rat(1, 2)))


def test_c_helper_q_parameter():
    # C(w, q) = -q/(1 + q + q^2), so multiplying back clears the denominator
    c = vwp.c_helper(W, Q, 12)
    poly = LaurentSeries.from_terms({0: ONE, 1: ONE, 2: ONE}, 12)
    assert same(c * poly, LaurentSeries.monomial(CycRat(-1), 1, 12), 10)
    c2 = vwp.c_helper(Q, W, 12)
    assert same(c2 * poly, LaurentSeries.monomial(ONE, 1, 12), 10)


def test_c_helper_degenerate():
    with pytest.raises(vwp.DegenerateC):
        vwp.c_helper(W, W)
    with pytest.raises(vwp.DegenerateC):
        vwp.c_helper(WB, W)  # z = 1/y


def test_d_helper_values():
    assert const(vwp.d_helper(W, M1), CycRat(12))
    assert const(vwp.d_helper(MW, M1), CycRat(4))
    assert vwp.d_helper(W, P1).is_zero()


# -- A_{k,i} recursion --------------------------------------------------------------


def test_a_coeff_base_cases():
    assert const(vwp.a_coeff(1, 1, (M1,)), ONE)
    # A_{2,2} = C(b_2, b_1), A_{2,1} = -C(b_2, b_1)
    assert const(vwp.a_coeff(2, 2, (M1, W)), ONE)
    assert const(vwp.a_coeff(2, 1, (M1, W)), CycRat(-1))


def test_a_coeff_validation():
    with pytest.raises(ValueError):
        vwp.a_coeff(2, 1, (M1,))
    with pytest.raises(ValueError):
        vwp.a_coeff(2, 3, (M1, W))
    with pytest.raises(ValueError):
        vwp.a_coeff(2, 0, (M1, W))


def test_a_coeff_rows_sum():
    # sum_i A_{k,i} * prod_{j != i} pairs is what rhs_products cancels against;
    # here just pin the k=3 row at a known tuple
    params = (M1, W, MW)
    row = [vwp.a_coeff(3, i, params) for i in (1, 2, 3)]
    for entry in row:
        assert entry.order is None  # exact constants for roots of unity


def test_a_coeff_memo_is_per_call():
    # each evaluation owns its A-coefficient table; none outlives the call
    params = (P1, W, MW, M1)
    for order in (10, 15, 20):
        vwp.rhs_products(params, order)
    vwp.f_consistency_rhs((M1, W), 10)
    assert not [name for name, value in vars(vwp).items()
                if isinstance(value, vwp.ACoeffTable)]


# -- the k-parameter identity --------------------------------------------------------


@pytest.mark.parametrize("params", [
    (M1,),
    (M1, W),
    (W, MW),
    (M1, W, MW),
    (P1, W, MW),
])
def test_identity_base_q(params):
    lhs = vwp.lhs_multisum(params, 30)
    rhs = vwp.rhs_products(params, 30)
    assert same(lhs, rhs, 30)


@pytest.mark.parametrize("params", [
    (Q, W),
    (P1, Q, W),
])
def test_identity_base_q2(params):
    lhs = vwp.lhs_multisum(params, 30, Q2)
    rhs = vwp.rhs_products(params, 30, Q2)
    assert same(lhs, rhs, 30)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_TRIPLES))
def test_identity_random_triples(params):
    lhs = vwp.lhs_multisum(params, 25)
    rhs = vwp.rhs_products(params, 25)
    assert same(lhs, rhs, 25)


def test_multisum_degenerate_cases():
    # b_1 = q^2 makes a level-1 denominator vanish at M = 1; the b_3 = 1
    # numerator ends level 2 first, but level 1 still steps through M = 1
    with pytest.raises(ZeroFactor):
        vwp.lhs_multisum((Q2, M1, P1), 12)
    # the b_2 = 1 numerator ends the only level before its denominator vanishes
    assert vwp.lhs_multisum((Q2, P1), 12) == LaurentSeries.one(12)
    # level 2's numerator (q, 1/q; q)_M ends it at M = 1, where its denominator
    # (q^3, 1/q; q)_M would vanish too; the three terms left cancel exactly
    assert vwp.lhs_multisum((P1, Q2, Q), 12) == LaurentSeries.zero(12)


def test_multisum_rejects_flat_base():
    with pytest.raises(InvalidBase):
        vwp.lhs_multisum((M1, W), 10, ParamValue(ONE, 0))


def _within(seconds, build):
    """build() under a wall-clock limit: TimeoutError instead of a hang."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return build()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_non_positive_factor_steps_are_rejected():
    # a factor family (1 - p*step^M) with a flat step never leaves the
    # negative exponents, so its slack would never be summed up
    qinv, flat = ParamValue(ONE, -1), ParamValue(ONE, 0)
    with pytest.raises(InvalidBase):
        _within(5, lambda: vwp._chain_sum([vwp.Level(Q, ((qinv, flat),), ())], 10))
    with pytest.raises(InvalidBase):
        _within(5, lambda: vwp._product_sum((vwp.Term(pochs=((1, -1, 0, 1),)),), 10))
    with pytest.raises(InvalidBase):  # a denominator step is checked too
        _within(5, lambda: vwp._chain_sum([vwp.Level(Q, (), ((qinv, flat),))], 10))


_DEGENERATE_POOL = [P1, M1, W, Q, ParamValue(ONE, -1)]


def _outcome(build):
    try:
        return build()
    except ZeroFactor:
        return ZeroFactor


@pytest.mark.parametrize("x", _DEGENERATE_POOL, ids=str)
def test_corollary_sums_match_multisum(x):
    # the corollary-shaped sums are chained sums too: same values, same trusted
    # orders and the same ZeroFactor, degenerate parameters included
    for y, z in itertools.product(_DEGENERATE_POOL, repeat=2):
        k = _outcome(lambda: vwp.lhs_multisum((x, y, z), 8))
        assert _outcome(lambda: vwp.vwp_double_sum(y, z, x, y, 8)) == k
        assert _outcome(lambda: vwp.lhs_multisum((x, y), 8)) == \
            _outcome(lambda: vwp.vwp_single_sum(y, x, 8))


def test_multisum_matches_plain_sums():
    assert same(vwp.lhs_multisum((M1, W), 25),
                vwp.vwp_single_sum(W, M1, 25), 25)
    assert same(vwp.lhs_multisum((M1, W, MW), 25),
                vwp.vwp_double_sum(W, MW, M1, W, 25), 25)


# -- chained sums against a term-by-term reference that shares no driver code -------------

_HALF = ParamValue(CycRat(rat(1, 2)))
# (numerator parameters, denominator parameters) of one level's Pochhammer quotient
_LEVEL_CASES = {
    "rational": ((_HALF,), (ParamValue(CycRat(rat(-1, 3)), 1),)),
    "root-of-unity": ((W, M1), (ParamValue(OMEGA_BAR, 1), MQ)),
    "q-power": ((ParamValue(CycRat(2), -1), Q), (Q2,)),
}
_BASES = {"q": Q, "q^2": Q2, "wq": ParamValue(OMEGA, 1)}


def _level(case, base, weight):
    nums, dens = _LEVEL_CASES[case]
    return vwp.Level(weight, tuple((p, base) for p in nums), tuple((p, base) for p in dens))


def _power(c, m):
    out = ONE
    for _ in range(m):
        out = out * c
    return out


def _term_by_term(levels, order):
    """sum over 0 <= M_1 <= ... <= M_L of prod_j weight_j^M_j (num; step)_M_j / (den; step)_M_j,
    from poch_finite, products and inverse, with each M_j below order + 6."""
    work = order + 6
    total = LaurentSeries.zero(order)
    for ms in itertools.combinations_with_replacement(range(work), len(levels)):
        term = LaurentSeries.one()
        for lv, m in zip(levels, ms):
            den = LaurentSeries.one()
            for p, step in lv.den:
                den = den * poch_finite(p, step, m)
            term = term * LaurentSeries.monomial(_power(lv.weight.coeff, m), lv.weight.exp * m)
            for p, step in lv.num:
                term = term * poch_finite(p, step, m)
            term = term * den.inverse(work)
        total = total + term
    return total


@pytest.mark.parametrize("base", _BASES.values(), ids=_BASES.keys())
@pytest.mark.parametrize("case", _LEVEL_CASES)
def test_single_chain_sum_matches_term_by_term(case, base):
    levels = [_level(case, base, base)]
    assert same(vwp._chain_sum(levels, 10), _term_by_term(levels, 10), 10)


@pytest.mark.parametrize("base", _BASES.values(), ids=_BASES.keys())
@pytest.mark.parametrize("outer,inner", [
    ("rational", "root-of-unity"), ("root-of-unity", "q-power"), ("q-power", "rational"),
])
def test_double_chain_sum_matches_term_by_term(outer, inner, base):
    levels = [_level(outer, base, vwp._param_mul(base, base)), _level(inner, base, base)]
    assert same(vwp._chain_sum(levels, 8), _term_by_term(levels, 8), 8)


# -- corollaries ----------------------------------------------------------------------


@pytest.mark.parametrize("z,y", [
    (W, M1), (W, P1), (MW, M1), (MW, P1),
    (M1, W), (M1, MW), (W, MW), (MW, W),
])
def test_corollary_k2_base_q(z, y):
    assert same(vwp.vwp_single_sum(z, y, 30, Q), vwp.corollary_k2(y, z, Q, 30), 30)


@pytest.mark.parametrize("z,y", [(W, Q), (MW, Q), (Q, W), (Q, MW)])
def test_corollary_k2_base_q2(z, y):
    assert same(vwp.vwp_single_sum(z, y, 30, Q2), vwp.corollary_k2(y, z, Q2, 30), 30)


@pytest.mark.parametrize("x,y,z", [
    (P1, W, MW), (P1, MW, W), (M1, W, MW), (M1, MW, W),
    (MW, M1, W), (W, M1, MW), (MW, W, M1), (W, MW, M1),
    (P1, M1, W), (P1, W, M1), (P1, M1, MW), (P1, MW, M1),
])
def test_corollary_k3_base_q(x, y, z):
    assert same(vwp.vwp_double_sum(y, z, x, y, 25, Q), vwp.corollary_k3(x, y, z, Q, 25), 25)


@pytest.mark.parametrize("x,y,z", [
    (P1, Q, W), (P1, Q, MW), (P1, MW, Q), (P1, W, Q),
])
def test_corollary_k3_base_q2(x, y, z):
    assert same(vwp.vwp_double_sum(y, z, x, y, 25, Q2),
                vwp.corollary_k3(x, y, z, Q2, 25), 25)


# -- bilateral series ------------------------------------------------------------------


@pytest.mark.parametrize("params", [
    (M1, W),
    (M1, W, MW),
    (M1, W, MW, MQ),
])
def test_f_bilateral_closed_form(params):
    f = vwp.f_bilateral(params, 30)
    rhs = vwp.f_consistency_rhs(params, 30)
    assert same(f, rhs, 30)


@pytest.mark.parametrize("params", [
    (M1, W),
    (M1, W, MW),
    (M1, W, MW, MQ),
])
def test_f_bilateral_recurrence(params):
    # F_k(b_1..b_k) = C(b_k, b_{k-1}) (F_{k-1}(..., b_k) - F_{k-1}(..., b_{k-1}))
    c = vwp.c_helper(params[-1], params[-2], 25)
    swapped = vwp.f_bilateral(params[:-2] + (params[-1],), 25)
    dropped = vwp.f_bilateral(params[:-1], 25)
    assert same(vwp.f_bilateral(params, 25), c * (swapped - dropped), 25)


def test_f_bilateral_zero_factor():
    with pytest.raises(ZeroFactor):
        vwp.f_bilateral((Q,), 10)  # b = q kills the n = 1 denominator


# -- finite-N truncation ----------------------------------------------------------------


def test_l_finite_base_cases():
    assert same(vwp.l_finite_n((M1, W), 0, 10), LaurentSeries.one(10), 10)
    with pytest.raises(ValueError):
        vwp.l_finite_n((M1, W), -1, 10)


def test_l_finite_stabilizes():
    limit = vwp.l_infinite((M1, W), 20)
    for big_n in (20, 25, 30):
        assert same(vwp.l_finite_n((M1, W), big_n, 20), limit, 20)


def test_l_finite_stabilizes_k3():
    limit = vwp.l_infinite((M1, W, MW), 20)
    assert same(vwp.l_finite_n((M1, W, MW), 25, 20), limit, 20)


# -- classical evaluations ----------------------------------------------------------------


@pytest.mark.parametrize("b", [M1, W, MW])
def test_bailey_evaluation(b):
    # (q;q)_inf^2 / (qb, q/b; q)_inf
    euler = poch_infinite(Q, Q, 40)
    rhs = (euler * euler * poch_infinite_inv(ParamValue(b.coeff, 1), Q, 40)
           * poch_infinite_inv(ParamValue(b.inv().coeff, 1), Q, 40))
    assert same(vwp.bailey_3psi3_sum(b, 40), rhs, 40)


@pytest.mark.parametrize("x,y,z", [
    (P1, M1, W), (M1, W, MW), (P1, W, MW),
])
def test_kl_relation(x, y, z):
    lhs, rhs = catalog.kl_relation(x, y, z)
    assert same(lhs(25), rhs(25), 25)
