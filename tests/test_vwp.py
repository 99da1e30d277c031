"""Very-well-poised multisum machinery: helpers, identity, bilateral forms."""

import itertools
import signal
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qseries.coeffring import CycRat, OMEGA, OMEGA_BAR, ONE, rat
from qseries.laurent import (
    InvalidBase,
    LaurentSeries,
    OrderExceeded,
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


def test_c_is_odd_and_stays_rational():
    # C(z, y) = -C(y, z); with z a root of unity and y a q-power the Term is built
    # as -C(y, z), whose two binomials pair into rational factors
    pool = [W, WB, MW, MWB, P1, M1, Q, ParamValue(ONE, -1), MQ, Q2]
    for z, y in itertools.permutations(pool, 2):
        got, flipped = (_data(lambda: vwp.c_helper(a, b, 30)) for a, b in ((z, y), (y, z)))
        assert got == (-flipped if isinstance(flipped, LaurentSeries) else flipped), (z, y)
    # C(w, q) = 1/(-1 - q - 1/q) = -q(1 - q)/(1 - q^3), coefficient by coefficient
    c = vwp.c_helper(W, Q, 30)
    assert c == LaurentSeries.from_terms(
        {n: CycRat(-1) if n % 3 == 1 else ONE for n in range(1, 30) if n % 3}, 30)
    assert not any(coeff.b for coeff in c.coeffs)


def test_exact_operand_keeps_its_conjugate_multiplications():
    # (1 - w q)(1 - w^2 q) = 1 + q + q^2 exactly: paired, it would divide by 1 - q
    t = vwp.Term(muls=((OMEGA, 1), (OMEGA_BAR, 1)))
    assert vwp._apply(t, LaurentSeries.one()) == LaurentSeries.from_terms({0: ONE, 1: ONE, 2: ONE})
    assert vwp._apply(t, LaurentSeries.one(5)) == LaurentSeries.from_terms(
        {0: ONE, 1: ONE, 2: ONE}, 5)


def test_c_helper_degenerate():
    with pytest.raises(vwp.DegenerateC):
        vwp.c_helper(W, W)
    with pytest.raises(vwp.DegenerateC):
        vwp.c_helper(WB, W)  # z = 1/y


def test_d_helper_values():
    assert const(vwp.d_helper(W, M1), CycRat(12))
    assert const(vwp.d_helper(MW, M1), CycRat(4))
    assert vwp.d_helper(W, P1).is_zero()


# -- A_{k,i} ------------------------------------------------------------------------


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
    with pytest.raises(InvalidBase):  # a weight that shrinks with M never stops either
        _within(5, lambda: vwp._chain_sum([vwp.Level(Q2, (), (), growth=qinv)], 10))


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
    # conjugates at one q-power, negative in the numerators, paired per step
    "conjugate": ((ParamValue(OMEGA, -1), ParamValue(OMEGA_BAR, -1)),
                  (ParamValue(-OMEGA, 1), ParamValue(-OMEGA_BAR, 1))),
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


def _power_param(p, m):
    """p^m for any integer m."""
    out = ParamValue(_power(p.coeff, abs(m)), p.exp * abs(m))
    return out if m >= 0 else out.inv()


def _term_by_term(levels, order):
    """sum over 0 <= M_1 <= ... <= M_L of
        prod_j weight_j^M_j growth_j^(M_j(M_j-1)/2) (num; step)_M_j / (den; step)_M_j,
    from poch_finite, products and inverse, with each M_j below order + 6."""
    work = order + 6
    total = LaurentSeries.zero(order)
    for ms in itertools.combinations_with_replacement(range(work), len(levels)):
        try:  # a numerator factor that vanishes ends its level: the term is 0
            nums = [[poch_finite(p, step, m) for p, step in lv.num]
                    for lv, m in zip(levels, ms)]
        except ZeroFactor:
            continue
        term = LaurentSeries.one()
        for lv, m, num in zip(levels, ms, nums):
            den = LaurentSeries.one()
            for p, step in lv.den:
                den = den * poch_finite(p, step, m)
            weight = vwp._param_mul(_power_param(lv.weight, m),
                                    _power_param(lv.growth, m * (m - 1) // 2))
            term = term * LaurentSeries.monomial(weight.coeff, weight.exp)
            for f in num:
                term = term * f
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


@pytest.mark.parametrize("base", _BASES.values(), ids=_BASES.keys())
def test_growing_weight_chain_sum_matches_term_by_term(base):
    # a weight base * growth^M: the a-priori bound grows quadratically in M
    minus_base = vwp._param_mul(M1, base)
    single = [replace(_level("q-power", base, minus_base), growth=base)]
    assert same(vwp._chain_sum(single, 12), _term_by_term(single, 12), 12)
    double = [replace(_level("rational", base, base), growth=Q),
              replace(_level("root-of-unity", base, base), growth=base)]
    assert same(vwp._chain_sum(double, 8), _term_by_term(double, 8), 8)


@pytest.mark.parametrize("base", _BASES.values(), ids=_BASES.keys())
def test_triple_chain_sum_matches_term_by_term(base):
    # three levels' units, shifts and factors merge into one ratio per index;
    # the middle level's numerator (base^-2; base)_M has negative exponents and
    # ends it at M = 2, which caps the outer level too, and the inner level's
    # weight grows
    ending = vwp.Level(base, ((_power_param(base, -2), base), (W, base)), ((MQ, base),))
    levels = [_level("root-of-unity", base, base), ending,
              replace(_level("rational", base, base), growth=base)]
    assert same(vwp._chain_sum(levels, 8), _term_by_term(levels, 8), 8)


def test_zero_factor_boundary():
    # b_1 = q^2: level 1's denominator (q^-1; q)_M vanishes at M = 1, past the
    # end of level 2 (b_3 = 1, so the sum is 1); level 1 steps through M = 1,
    # and raises, once its bound q^(2M) = q^2 lies below the order
    for order in range(1, 31):
        if order > 2:
            with pytest.raises(ZeroFactor):
                vwp.lhs_multisum((Q2, M1, P1), order)
        else:
            assert vwp.lhs_multisum((Q2, M1, P1), order) == LaurentSeries.one(order)
    # the numerator (q^-1; q)_M ends the level at M = 1, before its denominator
    # (q^-3; q)_M vanishes at M = 3: the sum is 1 + q^3/(1 + q + q^2) at every order
    ends_first = vwp.Level(Q, ((ParamValue(ONE, -1), Q),), ((ParamValue(ONE, -3), Q),))
    cubic = LaurentSeries.from_terms({0: ONE, 1: ONE, 2: ONE}).inverse(40)
    exact = LaurentSeries.one() + LaurentSeries.monomial(ONE, 3) * cubic
    for order in range(1, 31):
        assert same(vwp._chain_sum([ends_first], order), exact, order)


def test_level_without_a_vanishing_factor_never_ends():
    # None, not a float stand-in, marks "no factor vanishes"; the least index wins
    assert vwp._first_zero(()) is None
    assert vwp._first_zero(((W, Q), (MQ, Q), (ParamValue(ONE, 2), Q2))) is None
    assert vwp._first_zero(((W, Q), (ParamValue(ONE, -4), Q2), (ParamValue(ONE, -3), Q))) == 2
    # sum_M q^M / (q; q)_M = 1 / (q; q)_inf (Euler): the level runs to the order
    euler = vwp.Level(Q, (), ((Q, Q),))
    assert vwp._first_zero(euler.num) is None and vwp._first_zero(euler.den) is None
    for order in (1, 2, 17, 40):
        assert vwp._chain_sum([euler], order) == poch_infinite_inv(Q, Q, order)


# -- product terms against a factor-by-factor build ----------------------------------------


def _built_term(t, order):
    """Term t from a monomial times whole Pochhammer powers, each built by
    poch_infinite or poch_infinite_inv and multiplied in, then its binomials."""
    out = LaurentSeries.monomial(t.scalar, t.shift, order)
    for c, e, s, k in t.pochs:
        poch = poch_infinite if k > 0 else poch_infinite_inv
        factor = poch(ParamValue(c, e), ParamValue(ONE, s), order)
        for _ in range(abs(k)):
            out = out * factor
    for c, e in t.muls:
        out = out.mul_one_minus(c, e)
    for c, e in t.divs:
        out = out.div_one_minus(c, e)
    return out


_CATALOG_TERMS = {
    "product sides": [t for terms in catalog._RHS.values() for t in terms],
    "prefactors": [e.specialization.prefactor for e in catalog.registry().values()
                   if e.specialization is not None],
    "first terms": [side.keywords["first"] for side in catalog._LHS.values()],
}


@pytest.mark.parametrize("kind", _CATALOG_TERMS)
def test_catalog_terms_match_built_products(kind):
    for t in _CATALOG_TERMS[kind]:
        for order in list(range(1, 31)) + [150]:
            got = vwp._product_sum((t,), order)
            assert got.order == order
            assert same(got, _built_term(t, order + vwp._term_slack(t)), order), (t, order)


def test_vanishing_or_flat_pochhammer_in_a_term():
    # (1; q)_inf and 1/(q^-2; q)_inf hold the factor (1 - 1); (q; q^0)_inf never ends
    level = vwp.Level(Q, ((W, Q),), ((M1, Q),))
    for poch, error in [((1, 0, 1, 1), ZeroFactor), ((1, -2, 1, -1), ZeroFactor),
                        ((1, 1, 0, 1), InvalidBase), ((1, 1, 0, -1), InvalidBase),
                        ((1, 1, -1, -2), InvalidBase)]:
        t = vwp.Term(3, shift=-1, muls=((2, 1),), pochs=((-1, 1, 1, 1), poch))
        for order in (1, 10):
            with pytest.raises(error):
                vwp._product_sum((vwp.Term(), t), order)
            with pytest.raises(error):
                vwp._chain_sum([level], order, t)


@pytest.mark.parametrize("first", [
    # a negative shift and (q^-1; q^2)_inf, as in DS4-c's product side, lower
    # the first term's valuation below the sum's
    vwp.Term(_HALF.coeff, shift=-2, muls=((1, -1),), divs=((-1, 1),),
             pochs=((1, -1, 2, 1), (OMEGA, 1, 1, -1))),
    # the level's ratio q(1 - 2q^-2)/2 gives the sum a negative valuation, so
    # the first term needs one more factor of (q; q)_inf^2 than the order alone asks
    vwp.Term(-1, shift=1, pochs=((1, 1, 1, 2),)),
], ids=["negative", "positive"])
def test_chain_sum_first_term_matches_term_by_term(first):
    levels = [vwp.Level(Q, ((ParamValue(CycRat(2), -2), Q),), ((M1, Q),))]
    for order in (1, 4, 8):
        got = vwp._chain_sum(levels, order, first)
        assert got.order == order
        want = _built_term(first, order + 12) * _term_by_term(levels, order + 12)
        assert same(got, want, order)


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


# -- closed forms against a series-built reference -------------------------------------
#
# The closed forms as they read in the paper, built from whole Pochhammer series
# (poch_infinite, poch_infinite_inv), schoolbook products, monomial sums and
# LaurentSeries.inverse for C, with a generous working order and a final
# truncation.  None of it goes through the Term path, so the stored data of
# the two must agree exactly.


def _mono(p):
    return LaurentSeries.monomial(p.coeff, p.exp)


def _times(a, b):
    return ParamValue(a.coeff * b.coeff, a.exp + b.exp)


def _ref_c(z, y, order=None):
    if z in (y, y.inv()):
        raise vwp.DegenerateC(f"C({z}, {y})")
    return (_mono(z) + _mono(z.inv()) - _mono(y) - _mono(y.inv())).inverse(order)


def _ref_d(*params):
    """prod (1-p)(1-1/p) = prod (2 - p - 1/p)."""
    out = LaurentSeries.one()
    for p in params:
        out = out * (LaurentSeries.monomial(CycRat(2)) - _mono(p) - _mono(p.inv()))
    return out


def _ref_pochs(params, base, order, k=1):
    """prod over params of (p; base)_inf^k, k = 1, 2 or -1."""
    out = LaurentSeries.one()
    for p in params:
        factor = (poch_infinite if k > 0 else poch_infinite_inv)(p, base, order)
        for _ in range(abs(k)):
            out = out * factor
    return out


def _ref_lifted(p, base):
    return _times(base, p), _times(base, p.inv())


def _ref_work(order, params):
    return order + 2 + 2 * sum(abs(p.exp) for p in params)


def _ref_k2(y, z, base, order):
    work = _ref_work(order, (y, z))
    c = _ref_c(z, y, work)
    quotient = (_ref_pochs((z, z.inv()), base, work)
                * _ref_pochs(_ref_lifted(y, base), base, work, -1))
    return (c * (_ref_d(y) - quotient)).require_order(order)


def _ref_k3(x, y, z, base, order):
    work = _ref_work(order, (x, y, z))
    czy, czx, cyx = _ref_c(z, y, work), _ref_c(z, x, work), _ref_c(y, x, work)
    pz = _ref_pochs(_ref_lifted(z, base), base, work)
    py_inv = _ref_pochs(_ref_lifted(y, base), base, work, -1)
    px_inv = _ref_pochs(_ref_lifted(x, base), base, work, -1)
    rhs = _ref_d(x, y) * czy * czx
    rhs = rhs - _ref_d(x, z) * czy * cyx * pz * py_inv
    rhs = rhs + _ref_d(y, z) * czy * (cyx - czx) * pz * px_inv
    return rhs.require_order(order)


def _ref_a(k, i, params, order):
    """A_{k,i} by the three-branch recursion, on _ref_c."""
    if k == 1:
        return LaurentSeries.one(order)
    c = _ref_c(params[-1], params[-2], order)
    swapped = params[:-2] + params[-1:]
    if i == k:
        return c * _ref_a(k - 1, k - 1, swapped, order)
    if i == k - 1:
        return -(c * _ref_a(k - 1, k - 1, params[:-1], order))
    return c * (_ref_a(k - 1, i, swapped, order) - _ref_a(k - 1, i, params[:-1], order))


def _ref_rhs_products(params, order, base):
    k, work = len(params), _ref_work(order, params)
    prefix = _ref_pochs(_ref_lifted(params[-1], base), base, work)
    total = LaurentSeries.zero(work)
    for i in range(1, k + 1):
        term = _ref_a(k, i, params, work) * _ref_d(*params[:i - 1], *params[i:])
        total = total + term * _ref_pochs(_ref_lifted(params[i - 1], base), base, work, -1)
    return (prefix * total).require_order(order)


def _ref_f_consistency(params, order, base):
    work = _ref_work(order, params)
    euler = _ref_pochs((base,), base, work, 2)
    total = LaurentSeries.zero(work)
    for i, p in enumerate(params, 1):
        total = total + (_ref_a(len(params), i, params, work)
                         * _ref_pochs((p, p.inv()), base, work, -1))
    return (euler * total).require_order(order)


def _data(build):
    """The series build() returns, or the type of the library exception it raises;
    series compare equal exactly when their stored data are equal."""
    try:
        return build()
    except (ZeroFactor, vwp.DegenerateC, OrderExceeded, InvalidBase) as exc:
        return type(exc)


_REF_POOL = [P1, M1, W, MW, ParamValue(CycRat(2)), Q, ParamValue(ONE, -1), MQ,
             ParamValue(CycRat(rat(1, 3)), 2)]
_REF_BASES = {"q": Q, "q^2": Q2, "wq": ParamValue(OMEGA, 1)}


def test_c_helper_matches_reference():
    for z, y in itertools.product(_REF_POOL, repeat=2):
        for order in [None] + list(range(1, 31)):
            assert _data(lambda: vwp.c_helper(z, y, order)) == \
                _data(lambda: _ref_c(z, y, order)), (z, y, order)
        assert _data(lambda: vwp.d_helper(z, y)) == _ref_d(y, z)


@pytest.mark.parametrize("base", _REF_BASES.values(), ids=_REF_BASES.keys())
def test_corollary_k2_matches_reference(base):
    for n, (y, z) in enumerate(itertools.product(_REF_POOL, repeat=2)):
        for order in (1 + n % 30, 30 - n % 30):
            assert _data(lambda: vwp.corollary_k2(y, z, base, order)) == \
                _data(lambda: _ref_k2(y, z, base, order)), (y, z, order)


@pytest.mark.parametrize("base", _REF_BASES.values(), ids=_REF_BASES.keys())
def test_corollary_k3_matches_reference(base):
    for n, (x, y, z) in enumerate(itertools.product(_REF_POOL[:6], repeat=3)):
        order = 1 + n % 30
        assert _data(lambda: vwp.corollary_k3(x, y, z, base, order)) == \
            _data(lambda: _ref_k3(x, y, z, base, order)), (x, y, z, order)


@pytest.mark.parametrize("base", _REF_BASES.values(), ids=_REF_BASES.keys())
def test_a_sums_match_reference(base):
    tuples = [t for k in (1, 2, 3) for t in itertools.product(_REF_POOL[:6], repeat=k)]
    for n, params in enumerate(tuples):
        order = 1 + n % 30
        assert _data(lambda: vwp.rhs_products(params, order, base)) == \
            _data(lambda: _ref_rhs_products(params, order, base)), (params, order)
        assert _data(lambda: vwp.f_consistency_rhs(params, order, base)) == \
            _data(lambda: _ref_f_consistency(params, order, base)), (params, order)


# Parameters none of which coincides with another (b_i = b_j or 1/b_j) or is a
# power of the bases below, by kind.
_KINDS = {
    "root-of-unity": (P1, M1, W, MW),
    "rational": tuple(ParamValue(CycRat(c)) for c in (2, rat(1, 3), rat(-1, 2), 5, rat(-3, 4))),
    "q-power": (MQ, ParamValue(OMEGA, -1), ParamValue(CycRat(2), 1),
                ParamValue(CycRat(rat(1, 3)), 2), ParamValue(-OMEGA_BAR, 1)),
}
_MIXED = tuple(p for ps in itertools.zip_longest(*_KINDS.values()) for p in ps if p)


def _windows(k):
    """Parameter tuples of length k: each kind alone when it has k members, and
    windows of the three kinds interleaved."""
    alone = [ps[:k] for ps in _KINDS.values() if len(ps) >= k]
    return alone + [_MIXED[n:n + k] for n in range(0, len(_MIXED) - k + 1, 3)]


def test_a_coeff_matches_recursion():
    # the product form against the recursion, stored data or exception type;
    # the recursion may be trusted further, so it is cut at the order
    for k in range(1, 8):
        for params in _windows(k):
            exact = all(p.exp == 0 for p in params)
            for i in range(1, k + 1):
                for order in ([None] if exact else []) + [1 + (k + i) % 5, 9]:
                    want = _data(lambda: _ref_a(k, i, params, order))
                    if order is not None and not isinstance(want, type):
                        want = want.require_order(order)
                    assert _data(lambda: vwp.a_coeff(k, i, params, order)) == want, \
                        (params, i, order)


@pytest.mark.parametrize("base", _REF_BASES.values(), ids=_REF_BASES.keys())
def test_a_sums_match_reference_general_k(base):
    for k in range(4, 8):
        for n, params in enumerate(_windows(k)):
            order = 4 + (k + n) % 7
            assert _data(lambda: vwp.rhs_products(params, order, base)) == \
                _data(lambda: _ref_rhs_products(params, order, base)), (params, order)
            assert _data(lambda: vwp.f_consistency_rhs(params, order, base)) == \
                _data(lambda: _ref_f_consistency(params, order, base)), (params, order)


def _coincident(params):
    """Some b_i = b_j or 1/b_j, or some b = q^(+-1)."""
    return any(b in (c, c.inv()) for b, c in itertools.combinations(params, 2)) \
        or any(b in (Q, Q.inv()) for b in params)


# k = 2 and 3 in full, every seventh k = 4 tuple
_COINCIDENT = [t for k in (2, 3, 4)
               for n, t in enumerate(itertools.product((W, WB, M1, Q, Q.inv()), repeat=k))
               if _coincident(t) and (k < 4 or n % 7 == 0)]


@pytest.mark.parametrize("base", _REF_BASES.values(), ids=_REF_BASES.keys())
def test_coincident_parameters_raise_as_the_recursion(base):
    raised = set()
    for n, params in enumerate(_COINCIDENT):
        order = 1 + n % 9
        for got, want in [
                (lambda: vwp.rhs_products(params, order, base),
                 lambda: _ref_rhs_products(params, order, base)),
                (lambda: vwp.f_consistency_rhs(params, order, base),
                 lambda: _ref_f_consistency(params, order, base)),
                *[(lambda i=i: vwp.a_coeff(len(params), i, params, order),
                   lambda i=i: _ref_a(len(params), i, params, order).require_order(order))
                  for i in range(1, len(params) + 1)]]:
            outcome = _data(want)
            assert _data(got) == outcome, (params, order)
            if isinstance(outcome, type):
                raised.add(outcome)
    assert raised == ({vwp.DegenerateC, ZeroFactor} if base == Q else {vwp.DegenerateC})


def test_flat_base_is_rejected_before_coincident_parameters():
    for base in (ParamValue(ONE, 0), ParamValue(ONE, -1)):
        for params in ((W, W), (W, WB, Q)):
            with pytest.raises(InvalidBase):
                vwp.rhs_products(params, 5, base)
            with pytest.raises(InvalidBase):
                vwp.f_consistency_rhs(params, 5, base)


def test_a_coeff_without_order():
    # exact constants at roots of unity; a q-power needs an order, but a
    # coinciding pair the recursion meets raises DegenerateC before that (the
    # recursion raised whichever of the two it met first)
    assert vwp.a_coeff(3, 1, (M1, W, MW)).order is None
    with pytest.raises(OrderExceeded):
        vwp.a_coeff(3, 1, (M1, W, Q))
    for params, i in [((P1, P1, Q), 1), ((Q, W, WB), 1), ((W, Q, WB), 1), ((M1, Q, Q), 1)]:
        with pytest.raises(vwp.DegenerateC):
            vwp.a_coeff(3, i, params)
    # no pair the recursion meets coincides: A_{3,3} = C(b_3,b_1) C(b_3,b_2)
    assert vwp.a_coeff(3, 3, (W, WB, M1), 5) == \
        (_ref_c(M1, W, 5) * _ref_c(M1, WB, 5)).require_order(5)


@pytest.mark.parametrize("build", [
    lambda: vwp.rhs_products((M1, W), None),
    lambda: vwp.f_consistency_rhs((M1, W), None),
    lambda: vwp.corollary_k2(M1, W, Q, None),
    lambda: vwp.corollary_k3(P1, W, MW, Q, None),
    lambda: vwp.lhs_multisum((M1, W), None),
    lambda: vwp.l_infinite((M1, W), None),
    lambda: vwp.f_bilateral((M1, W), None),
    lambda: vwp.diagonal_sum(P1, W, MW, None),
    lambda: vwp.l_finite_n((M1, W), 3, None),
    lambda: vwp.bailey_3psi3_sum(W, None),
], ids=["rhs_products", "f_consistency_rhs", "corollary_k2", "corollary_k3", "lhs_multisum",
        "l_infinite", "f_bilateral", "diagonal_sum", "l_finite_n", "bailey_3psi3_sum"])
def test_infinite_series_need_an_order(build):
    # a Pochhammer power or a chained sum never ends, so order None cannot be exact
    with pytest.raises(OrderExceeded):
        build()


def test_order_none_is_checked_after_the_data():
    # exact where the result is a Laurent polynomial
    assert vwp.lhs_multisum((W,), None) == LaurentSeries.one()
    assert vwp.rhs_products((W,), None) == LaurentSeries.one()
    # a vanishing product or a flat base is reported before the missing order
    with pytest.raises(ZeroFactor):
        vwp.rhs_products((M1, Q), None)
    with pytest.raises(InvalidBase):
        vwp.lhs_multisum((M1, W), None, ParamValue(ONE, 0))
    with pytest.raises(ZeroFactor):
        vwp.f_bilateral((M1, Q), None)


# -- the identity at general k ---------------------------------------------------------------


@pytest.mark.parametrize("base", _REF_BASES.values(), ids=_REF_BASES.keys())
@pytest.mark.parametrize("k", range(4, 9))
def test_identity_general_k(k, base):
    # root-of-unity, rational and q-power parameters alone at k = 4 and 5,
    # the three kinds interleaved above
    for params in _windows(k)[:2]:
        assert same(vwp.lhs_multisum(params, 80, base), vwp.rhs_products(params, 80, base), 80)


@pytest.mark.parametrize("k", [10, 12])
def test_identity_large_k(k):
    params = _MIXED[1:k + 1]  # without b = 1, whose (1 - b) factors zero k - 1 summands
    assert same(vwp.lhs_multisum(params, 80), vwp.rhs_products(params, 80), 80)


# -- closed forms at a base whose coefficient is not 1 ------------------------------------

_COEFF_BASES = {"wq": ParamValue(OMEGA, 1), "-wq": ParamValue(-OMEGA, 1), "-q": MQ}


@pytest.mark.parametrize("base", _COEFF_BASES.values(), ids=_COEFF_BASES.keys())
@pytest.mark.parametrize("z,y", [(W, M1), (MW, P1), (M1, W), (Q, W), (W, Q)])
def test_corollary_k2_coefficient_base(z, y, base):
    assert same(vwp.vwp_single_sum(z, y, 20, base), vwp.corollary_k2(y, z, base, 20), 20)


@pytest.mark.parametrize("base", _COEFF_BASES.values(), ids=_COEFF_BASES.keys())
@pytest.mark.parametrize("x,y,z", [(P1, W, MW), (M1, MW, W), (P1, Q, W), (P1, W, Q)])
def test_corollary_k3_coefficient_base(x, y, z, base):
    assert same(vwp.vwp_double_sum(y, z, x, y, 16, base),
                vwp.corollary_k3(x, y, z, base, 16), 16)


@pytest.mark.parametrize("base", _COEFF_BASES.values(), ids=_COEFF_BASES.keys())
@pytest.mark.parametrize("params", [(M1, W), (P1, Q, W), (M1, W, MW, ParamValue(CycRat(2), 1))],
                         ids=len)
def test_identity_coefficient_base(params, base):
    assert same(vwp.lhs_multisum(params, 18, base), vwp.rhs_products(params, 18, base), 18)


@pytest.mark.parametrize("base", _COEFF_BASES.values(), ids=_COEFF_BASES.keys())
@pytest.mark.parametrize("params", [(M1, W), (M1, W, MW), (W, MW, ParamValue(CycRat(2), 1))],
                         ids=len)
def test_f_bilateral_closed_form_coefficient_base(params, base):
    assert same(vwp.f_bilateral(params, 18, base), vwp.f_consistency_rhs(params, 18, base), 18)


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


@pytest.mark.parametrize("base", _BASES.values(), ids=_BASES.keys())
def test_vanishing_denominator_raises_at_every_order(base):
    # b = base^n puts a pole in the bilateral terms n and -n, and in term |n|
    # of L_{k,N} once N >= |n|: however far the truncation reaches, the sums
    # raise ZeroFactor (with k = 4 the weight outgrows the slack before |n|)
    for n in (-3, -2, -1, 0, 1, 2, 3):
        b = _power_param(base, n)
        for params in ((b,), (W, b), (W, MW, M1, b)):
            for order in range(1, 31):
                with pytest.raises(ZeroFactor):
                    vwp.f_bilateral(params, order, base)
                if n:
                    with pytest.raises(ZeroFactor):
                        vwp.l_finite_n(params, abs(n), order, base)
                if n and base == Q and len(params) == 1:
                    with pytest.raises(ZeroFactor):
                        vwp.bailey_3psi3_sum(b, order)


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


@pytest.mark.parametrize("base", _BASES.values(), ids=_BASES.keys())
def test_l_infinite_at_q_power_parameters(base):
    # the pairs (1 - b)(1 - 1/b) of a q-power b lower the order by |b.exp|,
    # which F_k is summed far enough to make up
    pool = [(ParamValue(CycRat(2), 1), W), (MQ,), (ParamValue(OMEGA, -1), M1, _HALF),
            (ParamValue(CycRat(rat(1, 3)), 2), ParamValue(CycRat(-1), -1))]
    for params in pool:
        limit = vwp.l_infinite(params, 12, base)
        assert limit.order == 12
        assert same(vwp.l_finite_n(params, 40, 12, base), limit, 12), params


def _l_finite_term_by_term(params, big_n, order, base):
    """L_{k,N} from its defining sum, each term an exact numerator times the
    inverse of an exact denominator, from poch_finite, mul_one_minus and inverse."""
    k = len(params)
    work = order + base.exp * big_n * (big_n + 1) // 2 + sum(abs(p.exp) for p in params)
    pairs = LaurentSeries.one()
    for p in params:
        for b in (p, p.inv()):
            pairs = pairs.mul_one_minus(b.coeff, b.exp)
    total = LaurentSeries.one(work)
    for n in range(1, big_n + 1):
        step = _power_param(base, n)
        weight = _power_param(base, (k + big_n) * n)
        num = pairs.mul_one_minus(-step.coeff, step.exp)  # (1 + base^n)
        num = num * poch_finite(_power_param(base, -big_n), base, n)
        num = num * LaurentSeries.monomial(weight.coeff, weight.exp)
        den = poch_finite(_power_param(base, big_n + 1), base, n)
        for p in params:
            for b in (p, p.inv()):
                den = den.mul_one_minus(b.coeff * step.coeff, b.exp + step.exp)
        total = total + num * den.inverse(work)
    return total.require_order(order)


@pytest.mark.parametrize("base", _BASES.values(), ids=_BASES.keys())
def test_l_finite_matches_term_by_term(base):
    # parameters carrying powers of q: prod_i (1-b_i)(1-1/b_i) has negative
    # valuation, so terms far past the plain q-power bound still reach the order
    pool = [(MQ,), (ParamValue(CycRat(-1), -1),), (ParamValue(CycRat(2), -1), M1),
            (ParamValue(CycRat(-1), 2), W), (_HALF, ParamValue(CycRat(rat(1, 3)), 1))]
    for params in pool:
        for big_n in (1, 3, 5):
            got = vwp.l_finite_n(params, big_n, 10, base)
            assert got.order == 10
            assert same(got, _l_finite_term_by_term(params, big_n, 10, base), 10)


# -- classical evaluations ----------------------------------------------------------------


@pytest.mark.parametrize("b", [M1, W, MW, P1])
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
