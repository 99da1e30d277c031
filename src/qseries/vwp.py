"""Very-well-poised multisum machinery.

The central object is the k-parameter identity

    sum over m_1..m_{k-1} >= 0 of
        prod_{j=2}^{k} (b_j, 1/b_j; q)_{M_{j-1}} * q^{sum (k-i) m_i}
        / prod_{j=1}^{k-1} (q b_j, q/b_j; q)_{M_j}
    = (q b_k, q/b_k; q)_inf * prod_{i=1}^{k} (1-b_i)(1-1/b_i)
        * sum_i A_{k,i} / (b_i, 1/b_i; q)_inf,

with M_j = m_1 + ... + m_j and the A_{k,i} defined by a three-branch
recursion in the scalar helpers

    C(z,y) = 1/(z + 1/z - y - 1/y),
    D(z,y) = (1-y)(1-1/y)(1-z)(1-1/z).

This module evaluates both sides exactly at specialized monomial parameters
(roots of unity times powers of q), along with the k=2 and k=3 corollaries,
the bilateral companion series F_k, its finite-N truncation L_{k,N}, and the
sum side of the well-poised 3-psi-3 evaluation.

Every chained sum -- the multisum, the corollary single and double sums, the
diagonal sum, and the catalog's sum sides -- runs through one driver,
``_chain_sum``: a first term times one term ratio per summation level, each
ratio a weight and lists of numerator and denominator binomials.  The driver
splits each level's weight and binomials once per index, steps every term
through the laurent binomial kernel as a raw integer state, and adds the
terms into one pair of integer lists.

Sums are truncated by an exact lower bound on term valuations: the weights
minus the finite total of negative exponents that numerator factors can
contribute, and enumeration stops once that bound reaches the working order.
Internally the engines run at order + slack so the transient
negative-exponent factors never eat into the trusted range; the result is
re-truncated to the requested order at the end.

All engines take the base q by default; the q -> q^2 substitutions used for
the odd-base identities pass base explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coeffring import ONE, CycRat
from .laurent import (
    LaurentSeries,
    ParamValue,
    Q,
    ZeroFactor,
    _binomials,
    _check_base,
    _new,
    _raw,
    _split,
    _zero_factor_index,
    poch_infinite,
    poch_infinite_inv,
)


class DegenerateC(ArithmeticError):
    """C(z,y) was requested with z equal to y or 1/y (denominator vanishes)."""


def as_params(params) -> tuple[ParamValue, ...]:
    """Coerce a sequence of ParamValue into a validated tuple."""
    items = tuple(params)
    if not items:
        raise ValueError("parameter vector must have k >= 1 entries")
    for p in items:
        if not isinstance(p, ParamValue):
            raise TypeError(f"expected ParamValue, got {type(p).__name__}")
    return items


def _mono(p: ParamValue) -> LaurentSeries:
    return LaurentSeries.monomial(p.coeff, p.exp)


def _param_mul(a: ParamValue, b: ParamValue) -> ParamValue:
    return ParamValue(a.coeff * b.coeff, a.exp + b.exp)


def _negative_weight(p: ParamValue, base: ParamValue) -> int:
    """Total of negative exponents over the factor family (1 - p*base^m), m >= 0.

    InvalidBase when base has no positive q-power: the family never leaves
    the negative exponents then.
    """
    _check_base(base)
    slack = 0
    e = p.exp
    while e < 0:
        slack -= e
        e += base.exp
    return slack


def _numerator_slack(params, base: ParamValue) -> int:
    """Downward valuation shift available to numerator Pochhammers of params."""
    return sum(
        _negative_weight(p, base) + _negative_weight(p.inv(), base) for p in params
    )


def _apply_base_power(s: LaurentSeries, base: ParamValue, m: int) -> LaurentSeries:
    """Multiply by base^m for a monomial base c*q^e."""
    if m == 0:
        return s
    out = s.shift(base.exp * m)
    if base.coeff != ONE:
        c = base.coeff
        acc = c
        for _ in range(m - 1):
            acc = acc * c
        out = out.scale(acc)
    return out


def _pair_mul(s: LaurentSeries, p: ParamValue, base: ParamValue, m: int):
    """Multiply by (1 - p*base^m)(1 - base^m/p); None when a factor vanishes."""
    for q in (p, p.inv()):
        c, e = q.scaled(base, m)
        if c == ONE and e == 0:
            return None
        s = s.mul_one_minus(c, e)
    return s


def _pair_div(s: LaurentSeries, p: ParamValue, base: ParamValue, m: int,
              what: str) -> LaurentSeries:
    """Divide by (1 - p*base^m)(1 - base^m/p); ZeroFactor when one vanishes."""
    for q in (p, p.inv()):
        c, e = q.scaled(base, m)
        if c == ONE and e == 0:
            raise ZeroFactor(f"{what}: factor (1 - {q}*{base}^{m}) is zero")
        s = s.div_one_minus(c, e)
    return s


def _one_minus_pairs(params) -> LaurentSeries:
    """prod over params of (1-p)(1-1/p), an exact Laurent polynomial."""
    out = LaurentSeries.one()
    for p in params:
        for q in (p, p.inv()):
            out = out.mul_one_minus(q.coeff, q.exp)
    return out


# -- product terms and the chained term-ratio driver ------------------------------------


@dataclass(frozen=True)
class Term:
    """scalar * q^shift * prod (1 - c q^e) / prod (1 - c q^e) * prod (c q^e; q^s)_inf^k.

    ``muls`` and ``divs`` hold binomials as pairs (c, e); ``pochs`` holds
    infinite Pochhammer powers as (c, e, s, k) with k != 0, in the style of
    Garvan's etaq.  Coefficients c are ints or CycRat.
    """

    scalar: int | CycRat = 1
    shift: int = 0
    muls: tuple = ()
    divs: tuple = ()
    pochs: tuple = ()


@dataclass(frozen=True)
class Level:
    """One summation index M of a chained sum, given by its term ratio

        R(M+1)/R(M) = weight * prod_num (1 - p*step^M) / prod_den (1 - p*step^M),

    with every binomial written as a pair (p, step) of monomials.
    """

    weight: ParamValue
    num: tuple
    den: tuple


def _term_slack(t: Term) -> int:
    """Order a Term loses below its working order: its negative q-powers."""
    dips = [-e for _, e in t.muls if e < 0]
    dips += [k * _negative_weight(ParamValue(c, e), ParamValue(ONE, s))
             for c, e, s, k in t.pochs if k > 0]
    return max(0, -t.shift) + sum(dips)


def _term(t: Term, order: int, built: dict) -> LaurentSeries:
    """One Term below ``order``; ``built`` shares Pochhammer products between terms."""
    out = LaurentSeries.monomial(t.scalar, t.shift, order)
    for c, e, s, k in t.pochs:
        key = (c, e, s, k > 0)
        if key not in built:
            poch = poch_infinite if k > 0 else poch_infinite_inv
            built[key] = poch(ParamValue(c, e), ParamValue(ONE, s), order)
        for _ in range(abs(k)):
            out = out * built[key]
    for c, e in t.muls:
        out = out.mul_one_minus(c, e)
    for c, e in t.divs:
        out = out.div_one_minus(c, e)
    return out


def _product_sum(terms, order: int) -> LaurentSeries:
    """The sum of ``terms``, trusted below ``order``."""
    work = order + max(_term_slack(t) for t in terms)
    built: dict = {}
    total = LaurentSeries.zero(work)
    for t in terms:
        total = total + _term(t, work, built)
    return total.require_order(order)


def _first_zero(factors) -> float:
    """Least index M at which some factor (1 - p*step^M) vanishes, or inf."""
    hits = [_zero_factor_index(p, step) for p, step in factors]
    return min((h for h in hits if h is not None), default=math.inf)


def _split_steps(level: Level):
    """Yield level's numerator and denominator factors at M = 0, 1, ..., split
    for the binomial kernel as tuples of (ca, cb, cd, e)."""
    factors = level.num + level.den
    cs = [p.coeff for p, _ in factors]
    es = [p.exp for p, _ in factors]
    steps = [(None if step.coeff == ONE else step.coeff, step.exp) for _, step in factors]
    k = len(level.num)
    while True:
        split = tuple((*_split(c), e) for c, e in zip(cs, es))
        yield split[:k], split[k:]
        cs = [c if sc is None else c * sc for c, (sc, _) in zip(cs, steps)]
        es = [e + se for e, (_, se) in zip(es, steps)]


def _chain_sum(levels, order: int, first: Term = Term()) -> LaurentSeries:
    """sum over 0 <= M_1 <= ... <= M_L of first * prod_j R_j(M_j), R_j(0) = 1.

    A term's valuation is at least first.shift + sum_j weight_j * M_j minus
    the slack, the negative exponents that numerator factors (those of the
    first term included) can contribute; a subtree is summed while that bound
    is below ``order``.  Level j at index m holds its term with every deeper
    level at m too, which is the first term of the next level's run, and that
    run hands back its term one index on, so each index step costs one
    level's binomials.  A numerator factor that vanishes at index m ends its
    level after the term at m; a denominator factor that vanishes raises
    ZeroFactor.  Both are checked at every index a level steps through, also
    once a deeper level has vanished.

    Terms are raw states of the laurent binomial kernel: each index step is
    one kernel call on the level's weight and factors, split once per level
    and index in this call, and every term is added into one pair of integer
    lists that runs from the a-priori floor up to the working order.
    """
    for lv in levels:
        _check_base(lv.weight)  # a weight without a positive q-power never stops
        for _, step in lv.num + lv.den:
            _check_base(step)
    slack = _term_slack(first) + sum(
        _negative_weight(p, step) for lv in levels for p, step in lv.num)
    work = order + slack
    start = _term(first, work, {})
    if not levels:
        return start.require_order(order)
    floor = first.shift - slack
    rest = [sum(lv.weight.exp for lv in levels[j:]) for j in range(len(levels))]
    ends = [_first_zero(lv.num) for lv in levels]
    breaks = [_first_zero(lv.den) for lv in levels]
    units = [None if lv.weight.coeff == ONE else _split(lv.weight.coeff) for lv in levels]
    steps = [_split_steps(lv) for lv in levels]
    splits = [[] for _ in levels]  # splits[j][m]: level j's factors at index m
    size = work - floor
    total_a, total_b = [0] * size, [0] * size
    total_den, total_order = 1, work

    def add(t):
        nonlocal total_a, total_b, total_den, total_order
        offset, a, b, den, t_order = t
        if t_order is not None and t_order < total_order:
            total_order = t_order
        i = offset - floor
        if not a or i >= size:
            return
        g = math.gcd(total_den, den)
        if g != den:  # bring the total over a multiple of den
            s = den // g
            total_a = [s * x for x in total_a]
            total_b = [s * y for y in total_b]
            total_den *= s
        s, j = total_den // den, min(i + len(a), size)
        total_a[i:j] = [x + s * u for x, u in zip(total_a[i:j], a)]
        total_b[i:j] = [y + s * v for y, v in zip(total_b[i:j], b)]

    def descend(j: int, m: int, acc: int, t):
        # t: the term with levels j.. at index m, or None once it vanished;
        # returns the term with levels j.. one index on (None if vanished)
        lv = levels[j]
        first_index, carry = m, None
        while floor + acc + rest[j] * m < order:
            nxt = t
            if t is not None:
                if j + 1 < len(levels):
                    nxt = descend(j + 1, m, acc + lv.weight.exp * m, t)
                else:
                    add(t)
            if m >= ends[j]:
                break
            if m >= breaks[j]:
                raise ZeroFactor(
                    f"chained sum: a denominator factor of level {j + 1} vanishes at index {m}")
            t = None
            if nxt is not None:
                while len(splits[j]) <= m:
                    splits[j].append(next(steps[j]))
                muls, divs = splits[j][m]
                t = _binomials(nxt, muls, divs, shift=lv.weight.exp, unit=units[j])
            if m == first_index:
                carry = t
            m += 1
        return carry

    descend(0, 0, 0, _raw(start))
    return _new(floor, total_a, total_b, total_den, total_order).require_order(order)


def _vwp_level(nums, dens, base: ParamValue, weight: ParamValue | None = None) -> Level:
    """The ratio weight * prod_{p in nums} (1 - p base^M)(1 - base^M/p)
    / prod_{p in dens} (1 - p base^{M+1})(1 - base^{M+1}/p); weight defaults to base."""
    return Level(
        base if weight is None else weight,
        tuple((b, base) for p in nums for b in (p, p.inv())),
        tuple((_param_mul(base, b), base) for p in dens for b in (p, p.inv())),
    )


# -- scalar helpers -----------------------------------------------------------------


def c_helper(z: ParamValue, y: ParamValue, order: int | None = None) -> LaurentSeries:
    """C(z,y) = 1/(z + 1/z - y - 1/y) as a (possibly constant) series.

    Raises DegenerateC when z is y or 1/y, where the denominator vanishes
    identically.  A finite order is needed exactly when a parameter carries a
    power of q (the denominator is then a genuine polynomial).
    """
    if z == y or z == y.inv():
        raise DegenerateC(f"C({z}, {y}) undefined: z coincides with y or 1/y")
    denom = _mono(z) + _mono(z.inv()) - _mono(y) - _mono(y.inv())
    if denom.is_zero():  # unreachable for monomial params, kept as a guard
        raise DegenerateC(f"C({z}, {y}): denominator is identically zero")
    return denom.inverse(order)


def d_helper(z: ParamValue, y: ParamValue) -> LaurentSeries:
    """D(z,y) = (1-y)(1-1/y)(1-z)(1-1/z), an exact Laurent polynomial."""
    return _one_minus_pairs((y, z))


# -- A_{k,i} recursion ---------------------------------------------------------------


class ACoeffTable:
    """Memo table for A_{k,i} values, keyed by (k, i, parameter subsequence, order).

    The recursion re-evaluates lower rows at two different parameter lists,
    so memoization is keyed by the actual subsequence.  Each top-level
    evaluation (``rhs_products``, ``f_consistency_rhs``, or a bare
    ``a_coeff`` call) owns one table for its whole recursion and drops it on
    return, so nothing accumulates across calls.
    """

    def __init__(self):
        self.entries: dict = {}

    def get_or_compute(self, key, compute):
        hit = self.entries.get(key)
        if hit is None:
            hit = self.entries[key] = compute()
        return hit


def a_coeff(k: int, i: int, params, order: int | None = None,
            table: ACoeffTable | None = None) -> LaurentSeries:
    """A_{k,i}(b_1,...,b_k) by the three-branch recursion.

        A_{1,1} = 1
        A_{k,k}   =  C(b_k,b_{k-1}) * A_{k-1,k-1}(b_1,...,b_{k-2},b_k)
        A_{k,k-1} = -C(b_k,b_{k-1}) * A_{k-1,k-1}(b_1,...,b_{k-1})
        A_{k,i}   =  C(b_k,b_{k-1}) * (A_{k-1,i}(b_1,...,b_{k-2},b_k)
                                       - A_{k-1,i}(b_1,...,b_{k-1}))    i <= k-2

    Constant (exact) for root-of-unity parameters; a genuine series when some
    parameter is a q-power, in which case a finite order is required.
    """
    params = as_params(params)
    if len(params) != k:
        raise ValueError(f"a_coeff expects exactly k={k} parameters, got {len(params)}")
    if not 1 <= i <= k:
        raise ValueError(f"a_coeff index i={i} outside 1..{k}")
    if table is None:
        table = ACoeffTable()

    def compute():
        if k == 1:
            return LaurentSeries.one(order)
        c = c_helper(params[k - 1], params[k - 2], order)
        swapped = params[: k - 2] + (params[k - 1],)
        if i == k:
            return c * a_coeff(k - 1, k - 1, swapped, order, table)
        if i == k - 1:
            return -(c * a_coeff(k - 1, k - 1, params[: k - 1], order, table))
        return c * (
            a_coeff(k - 1, i, swapped, order, table)
            - a_coeff(k - 1, i, params[: k - 1], order, table)
        )

    return table.get_or_compute((k, i, params, order), compute)


# -- the k-parameter identity, both sides ---------------------------------------------


def lhs_multisum(params, order: int, base: ParamValue = Q) -> LaurentSeries:
    """The (k-1)-fold sum side of the k-parameter identity.

    A chained sum over M_1 <= M_2 <= ... <= M_{k-1} with one level per j:
        G_j(M_j) = base^{M_j} (b_{j+1}, 1/b_{j+1}; base)_{M_j}
                   / (base*b_j, base/b_j; base)_{M_j}.
    """
    params = as_params(params)
    levels = [_vwp_level((params[j],), (params[j - 1],), base)
              for j in range(1, len(params))]
    return _chain_sum(levels, order)


def rhs_products(params, order: int, base: ParamValue = Q) -> LaurentSeries:
    """The infinite-product side of the k-parameter identity.

    Implemented in the cancelled form

        (base*b_k, base/b_k; base)_inf *
        sum_i A_{k,i} * prod_{j != i} (1-b_j)(1-1/b_j)
              / (base*b_i, base/b_i; base)_inf,

    obtained by pushing the (1-b_i)(1-1/b_i) prefactors through
    (b_i, 1/b_i; base)_inf = (1-b_i)(1-1/b_i)(base*b_i, base/b_i; base)_inf.
    This is the unique form that stays regular when some b_i = 1 (the factors
    then vanish rather than divide by zero), which the x = 1 specializations
    genuinely need.
    """
    params = as_params(params)
    k = len(params)
    work = order + 2 + 2 * sum(abs(p.exp) for p in params)
    table = ACoeffTable()
    bk = params[-1]
    prefix = poch_infinite(_param_mul(base, bk), base, work) * poch_infinite(
        _param_mul(base, bk.inv()), base, work
    )
    total = LaurentSeries.zero(work)
    for i in range(1, k + 1):
        term = a_coeff(k, i, params, work, table)
        for j, p in enumerate(params, start=1):
            if j == i:
                continue
            term = term.mul_one_minus(p.coeff, p.exp)
            pi = p.inv()
            term = term.mul_one_minus(pi.coeff, pi.exp)
        bi = params[i - 1]
        term = term * poch_infinite_inv(_param_mul(base, bi), base, work)
        term = term * poch_infinite_inv(_param_mul(base, bi.inv()), base, work)
        total = total + term
    return (prefix * total).require_order(order)


# -- single / double sums in corollary shape -------------------------------------------


def vwp_single_sum(num: ParamValue, den: ParamValue, order: int,
                   base: ParamValue = Q) -> LaurentSeries:
    """sum_{n>=0} base^n (num, 1/num; base)_n / (base*den, base/den; base)_n."""
    return _chain_sum([_vwp_level((num,), (den,), base)], order)


def vwp_double_sum(num_outer: ParamValue, num_inner: ParamValue,
                   den_outer: ParamValue, den_inner: ParamValue,
                   order: int, base: ParamValue = Q) -> LaurentSeries:
    """The corollary-shaped double sum

        sum_{m,n>=0} base^{2m+n}
            (num_outer, 1/num_outer; base)_m (num_inner, 1/num_inner; base)_{m+n}
          / ((base*den_outer, base/den_outer; base)_m
             (base*den_inner, base/den_inner; base)_{m+n}),

    a chained sum over M_1 = m <= M_2 = m+n.  Both the main k=3 sum and its
    index-exchanged dual are instances.
    """
    return _chain_sum([_vwp_level((num_outer,), (den_outer,), base),
                       _vwp_level((num_inner,), (den_inner,), base)], order)


def diagonal_sum(x: ParamValue, y: ParamValue, z: ParamValue, order: int,
                 base: ParamValue = Q) -> LaurentSeries:
    """sum_{m>=0} base^{2m} (y,1/y;base)_m (z,1/z;base)_m
    / ((base*x, base/x; base)_m (base*y, base/y; base)_m)."""
    return _chain_sum([_vwp_level((y, z), (x, y), base, _param_mul(base, base))], order)


# -- the k=2 and k=3 corollaries --------------------------------------------------------


def _poch_pair_inf(p: ParamValue, base: ParamValue, order: int) -> LaurentSeries:
    """(p, 1/p; base)_inf."""
    return poch_infinite(p, base, order) * poch_infinite(p.inv(), base, order)


def _poch_pair_inf_inv(p: ParamValue, base: ParamValue, order: int) -> LaurentSeries:
    """1 / (p, 1/p; base)_inf."""
    return poch_infinite_inv(p, base, order) * poch_infinite_inv(p.inv(), base, order)


def _poch_shift_pair_inf(p: ParamValue, base: ParamValue, order: int) -> LaurentSeries:
    """(base*p, base/p; base)_inf.  Note base/p pairs the inverse parameter,
    not the inverse of base*p."""
    return poch_infinite(_param_mul(base, p), base, order) * poch_infinite(
        _param_mul(base, p.inv()), base, order
    )


def _poch_shift_pair_inf_inv(p: ParamValue, base: ParamValue, order: int) -> LaurentSeries:
    """1 / (base*p, base/p; base)_inf."""
    return poch_infinite_inv(_param_mul(base, p), base, order) * poch_infinite_inv(
        _param_mul(base, p.inv()), base, order
    )


def corollary_k2(y: ParamValue, z: ParamValue, base: ParamValue,
                 order: int) -> LaurentSeries:
    """The closed form of the k=2 specialization

        sum_{n>=0} base^n (z,1/z;base)_n / (base*y, base/y; base)_n
        = C(z,y) ((1-y)(1-1/y) - (z,1/z;base)_inf / (base*y, base/y;base)_inf),

    trusted through ``order``; the sum side is ``vwp_single_sum(z, y)``.
    """
    work = order + 2 + 2 * (abs(y.exp) + abs(z.exp))
    c = c_helper(z, y, work)
    quotient = _poch_pair_inf(z, base, work) * _poch_shift_pair_inf_inv(y, base, work)
    return (c * (_one_minus_pairs((y,)) - quotient)).require_order(order)


def corollary_k3(x: ParamValue, y: ParamValue, z: ParamValue, base: ParamValue,
                 order: int) -> LaurentSeries:
    """The closed form of the k=3 specialization

        sum_{m,n>=0} base^{2m+n} (y,1/y;base)_m (z,1/z;base)_{m+n}
                     / ((base*x,base/x;base)_m (base*y,base/y;base)_{m+n})
        =   D(x,y) C(z,y) C(z,x)
          - D(x,z) C(z,y) C(y,x) (base*z,base/z;base)_inf/(base*y,base/y;base)_inf
          + D(y,z) C(z,y) (C(y,x) - C(z,x))
                           (base*z,base/z;base)_inf/(base*x,base/x;base)_inf,

    trusted through ``order``; the sum side is ``vwp_double_sum(y, z, x, y)``.
    """
    work = order + 2 + 2 * (abs(x.exp) + abs(y.exp) + abs(z.exp))
    czy = c_helper(z, y, work)
    czx = c_helper(z, x, work)
    cyx = c_helper(y, x, work)
    pz = _poch_shift_pair_inf(z, base, work)
    py_inv = _poch_shift_pair_inf_inv(y, base, work)
    px_inv = _poch_shift_pair_inf_inv(x, base, work)
    rhs = d_helper(x, y) * czy * czx
    rhs = rhs - d_helper(x, z) * czy * cyx * pz * py_inv
    rhs = rhs + d_helper(y, z) * czy * (cyx - czx) * pz * px_inv
    return rhs.require_order(order)


# -- bilateral series and finite-N form ----------------------------------------------


def f_bilateral(params, order: int, base: ParamValue = Q) -> LaurentSeries:
    """F_k = sum over all integers n of
        (-1)^n base^(C(n+1,2) + (k-1)n) / prod_i (1-b_i base^n)(1-base^n/b_i).

    The two tails fold together: the n -> -n term equals base^n times the
    n term, so F_k = t(0) + sum_{n>=1} (1 + base^n) t(n), with t(n) updated
    incrementally.  Parameters with b_i = base^{+-n} in range make some
    denominator vanish; that raises ZeroFactor.
    """
    params = as_params(params)
    k = len(params)
    eb = base.exp
    slack = _numerator_slack(params, base)
    work = order + slack
    t = LaurentSeries.one(work)
    for p in params:
        t = _pair_div(t, p, base, 0, "bilateral n=0 denominator")
    total = t
    n = 1
    while eb * (n * (n + 1) // 2 + (k - 1) * n) < order:
        # t(n) = -t(n-1) * base^(n+k-1) * prod_i pair(n-1) / pair(n)
        t = _apply_base_power(t, base, n + k - 1).scale(CycRat(-1))
        for p in params:
            got = _pair_mul(t, p, base, n - 1)
            if got is None:  # a numerator zero can only mean b_i = base^{1-n}
                raise ZeroFactor("bilateral numerator factor vanished")
            t = got
        for p in params:
            t = _pair_div(t, p, base, n, "bilateral denominator")
        # fold in the mirrored term: (1 + base^n) * t(n)
        c, e = ParamValue(ONE, 0).scaled(base, n)
        total = total + t.mul_one_minus(-c, e)
        n += 1
    return total.require_order(order)


def f_consistency_rhs(params, order: int, base: ParamValue = Q) -> LaurentSeries:
    """(base;base)_inf^2 * sum_i A_{k,i} / (b_i, 1/b_i; base)_inf.

    The closed form of F_k implied by the recursion; requires every b_i != 1
    (the uncancelled denominators appear as stated).
    """
    params = as_params(params)
    k = len(params)
    work = order + 2 + 2 * sum(abs(p.exp) for p in params)
    table = ACoeffTable()
    euler = poch_infinite(base, base, work)
    total = LaurentSeries.zero(work)
    for i in range(1, k + 1):
        total = total + a_coeff(k, i, params, work, table) * _poch_pair_inf_inv(
            params[i - 1], base, work
        )
    return (euler * euler * total).require_order(order)


def l_finite_n(params, bigN: int, order: int, base: ParamValue = Q) -> LaurentSeries:
    """The finite truncation

        L_{k,N} = 1 + prod_i (1-b_i)(1-1/b_i) * sum_{n=1}^{N}
            (1 + base^n) base^{(k+N)n} (base^{-N}; base)_n
            / (prod_i (1-b_i base^n)(1-base^n/b_i) * (base^{N+1}; base)_n).

    The (base^{-N}; base)_n factor dips the working valuation by as much as
    N(N+1)/2 base-exponents, so the engine runs with that much slack before
    re-truncating.  As bigN grows the coefficients below a fixed order
    stabilize to prod_i (1-b_i)(1-1/b_i) * F_k.
    """
    params = as_params(params)
    if bigN < 0:
        raise ValueError("l_finite_n needs bigN >= 0")
    k = len(params)
    eb = base.exp
    if bigN == 0:
        return LaurentSeries.one(order)
    slack = eb * bigN * (bigN + 1) // 2 + _numerator_slack(params, base)
    work = order + slack

    def base_pow(m):
        return ParamValue(ONE, 0).scaled(base, m)

    # term n = 1
    t = LaurentSeries.one(work)
    c, e = base_pow(1)
    t = t.mul_one_minus(-c, e)  # (1 + base)
    t = _apply_base_power(t, base, k + bigN)
    c, e = base_pow(-bigN)
    t = t.mul_one_minus(c, e)  # (1 - base^{-N})
    c, e = base_pow(bigN + 1)
    t = t.div_one_minus(c, e)  # 1/(1 - base^{N+1})
    for p in params:
        t = _pair_div(t, p, base, 1, "finite-N denominator")
    total = t
    for n in range(2, bigN + 1):
        if eb * (n * (n + 1) // 2 + (k - 1) * n) >= order:
            break
        t = _apply_base_power(t, base, k + bigN)
        c, e = base_pow(n)
        t = t.mul_one_minus(-c, e)  # * (1 + base^n)
        c, e = base_pow(n - 1)
        t = t.div_one_minus(-c, e)  # / (1 + base^{n-1})
        c, e = base_pow(n - 1 - bigN)
        t = t.mul_one_minus(c, e)  # * (1 - base^{n-1-N})
        c, e = base_pow(bigN + n)
        t = t.div_one_minus(c, e)  # / (1 - base^{N+n})
        for p in params:
            got = _pair_mul(t, p, base, n - 1)
            if got is None:
                raise ZeroFactor("finite-N numerator factor vanished")
            t = _pair_div(got, p, base, n, "finite-N denominator")
        total = total + t
    out = LaurentSeries.one(work) + _one_minus_pairs(params) * total
    return out.require_order(order)


def l_infinite(params, order: int, base: ParamValue = Q) -> LaurentSeries:
    """The bigN -> infinity limit: prod_i (1-b_i)(1-1/b_i) * F_k."""
    params = as_params(params)
    f = f_bilateral(params, order, base)
    return (_one_minus_pairs(params) * f).require_order(order)


# -- classical evaluations ----------------------------------------------------------


def bailey_3psi3_sum(b: ParamValue, order: int) -> LaurentSeries:
    """The sum side of the well-poised bilateral evaluation at c = 1/b, d -> infinity:

        sum over all integers n of
            (b, 1/b; q)_n / (qb, q/b; q)_n * (-1)^n q^(n(n+1)/2)
        = (q;q)_inf^2 / (qb, q/b; q)_inf.

    The nonnegative tail is summed by incremental finite Pochhammers, the
    negative tail by the extension (a;q)_{-m} = 1/prod_{j=1}^{m} (1 - a q^{-j}).
    """
    base = Q
    work = order + 2 + 2 * abs(b.exp)
    # n >= 0 tail
    t = LaurentSeries.one(work)
    total = t
    n = 0
    while (n + 1) * (n + 2) // 2 < work:
        t = t.shift(n + 1).scale(CycRat(-1))
        got = _pair_mul(t, b, base, n)
        if got is None:
            raise ZeroFactor("3psi3 numerator factor vanished")
        t = _pair_div(got, b, base, n + 1, "3psi3 denominator")
        total = total + t
        n += 1
    # n <= -1 tail: term(-m) carries q^(m(m-1)/2) and the extension products
    t = LaurentSeries.one(work)
    m = 1
    while m * (m - 1) // 2 + 2 * m < work:
        # multiply by term(-m)/term(-(m-1)):
        #   sign * q^{m-1} * pair(1-m) / pair(-m)
        t = t.shift(m - 1).scale(CycRat(-1))
        got = _pair_mul(t, b, base, 1 - m)
        if got is None:
            raise ZeroFactor("3psi3 numerator factor vanished")
        t = _pair_div(got, b, base, -m, "3psi3 denominator")
        total = total + t
        m += 1
    return total.require_order(order)
