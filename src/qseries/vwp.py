"""Very-well-poised multisum machinery.

The central object is the k-parameter identity

    sum over m_1..m_{k-1} >= 0 of
        prod_{j=2}^{k} (b_j, 1/b_j; q)_{M_{j-1}} * q^{sum (k-i) m_i}
        / prod_{j=1}^{k-1} (q b_j, q/b_j; q)_{M_j}
    = (q b_k, q/b_k; q)_inf * prod_{i=1}^{k} (1-b_i)(1-1/b_i)
        * sum_i A_{k,i} / (b_i, 1/b_i; q)_inf,

with M_j = m_1 + ... + m_j, the scalar helpers

    C(z,y) = 1/(z + 1/z - y - 1/y),
    D(z,y) = (1-y)(1-1/y)(1-z)(1-1/z),

and A_{k,i} = prod_{j != i} C(b_i, b_j).  The paper defines the A_{k,i} by a
three-branch recursion; in x = b + 1/b, C(b_i, b_j) = 1/(x_i - x_j), so they
are Lagrange's partial-fraction coefficients of 1/prod_j (x - x_j) and the
recursion is the divided-difference recurrence that solves to this product.

This module evaluates both sides exactly at specialized monomial parameters
(roots of unity times powers of q), along with the k=2 and k=3 corollaries,
the bilateral companion series F_k, its finite-N truncation L_{k,N}, and the
sum side of the well-poised 3-psi-3 evaluation.

Every sum -- the multisum, the corollary single and double sums, the
diagonal sum, the catalog's sum sides, F_k, L_{k,N} and the 3-psi-3 -- runs
through one engine, ``_chain_state``: a first term times one term ratio per
summation level, each ratio a weight that may grow geometrically with the
index and lists of numerator and denominator binomials.  The bilateral sums
fold their mirrored tails, t(-n) = base^n t(n), into one level.  The engine
nests the sum from the inside out, Horner style, with U_{L+1}(m) = 1 and

    U_j(m) = U_{j+1}(m) + (prod_{i>=j} r_i(m)) * U_j(m+1),   sum = first * U_1(0),

for the term ratios r_i, so a k-fold sum costs O(k * order) calls of the
laurent binomial kernel, each on the merged ratios of the inner levels.
Every U_j(m) is kept as a raw kernel state (laurent's offset, numerator
lists, denominator and order), never as a series: each step adds U_{j+1}(m)
into the lists it has just built for the product, and the sum is
normalized once, when the first term has been applied and its state is
built into a series (``_chain_sum``).  The bilateral sums add -t(0) to
that state first, and ``l_infinite`` applies D to F_k's state, so they too
build one series each.

A product term (``Term``) is a scalar, a shift, binomials
(1 - c q^e)^{+-1} and Pochhammer powers (c q^e; base)_inf^k.  It is applied
to a series in one kernel call, and no Pochhammer series is built or
multiplied.  The powers at c = +-1, and those of conjugate roots of unity
in pairs, on a base q^s, are rewritten as binomials and powers of
(q^u; q^u)_inf, which the kernel applies as Euler's sparse pentagonal
series; any other power is listed factor by factor, as multiplications
(k > 0) or divisions (k < 0).  Every closed form is a list of Terms: C(z,y)
is two divided binomials, D a product of binomials, A_{k,i} a product of
k - 1 Cs, and the corollary right sides, the product side of the identity
and the closed form of F_k are Terms applied to the constant 1, one Term
per A_{k,i} in the last two.  A sum of Terms is also normalized once: each
Term's kernel call adds the Terms before it.

Every parameter b comes with 1/b, taken once per call of a public function
(``_inverted``) and handed on as the pair (b, 1/b).  At a root of unity 1/b
is the conjugate, so the w-factors of a Term or of a level's step come in
conjugate pairs at one q-power.  Each such pair is rational, and is paired
(``laurent._paired``) once per Term and once per step before the kernel
runs; with the scalars of C and D, rational in total, the root-of-unity
closed forms and sums then run on the kernel's one-list path.

Sums are truncated by an exact lower bound on term valuations: the weights
minus the finite total of negative exponents (the slack) that numerator
factors can contribute.  The bound gives each level its top index and each
U_j(m) the order below which the sum needs it; the result is trusted below
the requested order.

All engines take the base q by default; the q -> q^2 substitutions used for
the odd-base identities pass base explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import laurent
from .coeffring import ONE, CycRat, _zw
from .laurent import (
    InvalidBase,
    LaurentSeries,
    OrderExceeded,
    ParamValue,
    Q,
    ZeroFactor,
    _as_int,
    _binomials,
    _built,
    _check_base,
    _factors,
    _lowest,
    _negative_slack,
    _one,
    _paired,
    _required,
    _split,
    _zero,
    _zero_factor_index,
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


def _inverted(*params: ParamValue) -> tuple:
    """Each parameter with its reciprocal, as the pair (p, 1/p), taking one
    inverse per distinct parameter.  The helpers below take such pairs, so
    a call inverts each of its parameters once."""
    inverse = {p: p.inv() for p in dict.fromkeys(params)}
    return tuple((p, inverse[p]) for p in params)


def _param_mul(a: ParamValue, b: ParamValue) -> ParamValue:
    return ParamValue(a.coeff * b.coeff, a.exp + b.exp)


def _param_pow(p: ParamValue, n: int) -> ParamValue:
    """p^n for n >= 0."""
    return ParamValue(math.prod([p.coeff] * n, start=ONE), n * p.exp)


# -- product terms and the chained term-ratio driver ------------------------------------


@dataclass(frozen=True)
class Term:
    """scalar * q^shift * prod (1 - c q^e) / prod (1 - c q^e) * prod (c q^e; base)_inf^k.

    ``muls`` and ``divs`` hold binomials as pairs (c, e); ``pochs`` holds
    infinite Pochhammer powers as (c, e, s, k) with k != 0, in the style of
    Garvan's etaq, where s is the base: the step q^s for an int, or any
    ParamValue.  Coefficients c are ints or CycRat.  ``_apply`` multiplies a
    series by a Term in one kernel call, with the powers that reduce to eta
    quotients applied as sparse series.
    """

    scalar: int | CycRat = 1
    shift: int = 0
    muls: tuple = ()
    divs: tuple = ()
    pochs: tuple = ()


@dataclass(frozen=True)
class Level:
    """One summation index M of a chained sum, given by its term ratio

        R(M+1)/R(M) = weight * growth^M * prod_num (1 - p*step^M) / prod_den (1 - p*step^M),

    with every binomial written as a pair (p, step) of monomials.  The weight
    grows geometrically by ``growth``, q^0 by default (a constant weight); its
    q-power must not be negative, so the ratios up to index M carry at least
    q^(weight.exp*M + growth.exp*M(M-1)/2).
    """

    weight: ParamValue
    num: tuple
    den: tuple
    growth: ParamValue = ParamValue(ONE)


def _base(s) -> ParamValue:  # a Pochhammer base: the step q^s for an int s
    return s if isinstance(s, ParamValue) else ParamValue(ONE, s)


def _term_slack(t: Term) -> int:
    """Order a Term loses below its working order: its negative q-powers.
    InvalidBase when a Pochhammer base has no positive q-power."""
    dips = [-e for _, e in t.muls if e < 0]
    dips += [max(k, 0) * _negative_slack(ParamValue(c, e), _base(s)) for c, e, s, k in t.pochs]
    return max(0, -t.shift) + sum(dips)


def _powers(t: Term):
    """Yield t's Pochhammer powers as (p, base, k).  InvalidBase for a base without
    a positive q-power, ZeroFactor for a product that vanishes identically."""
    for c, e, s, k in t.pochs:
        p, base = ParamValue(c, e), _base(s)
        _check_base(base)
        if _zero_factor_index(p, base) is not None:
            raise ZeroFactor(f"({p}; {base})_inf vanishes identically")
        yield p, base, k


def _etas(sign: int, a: int, s: int) -> tuple:
    """The pairs (u, m) with (sign q^a; q^s)_inf = prod (q^u; q^u)_inf^m, for
    sign +-1 and a = s or 2a = s: (q^s; q^s) is itself, (x; y) = (x, xy; y^2)
    gives (q^(s/2); q^s) and (-x; y) = (x^2; y^2) / (x; y) the other two."""
    if a == s:
        return ((s, 1),) if sign > 0 else ((2 * s, 1), (s, -1))
    return ((a, 1), (s, -1)) if sign > 0 else ((s, 2), (a, -1), (2 * s, -1))


def _eta_power(sign: int, e: int, s: int, k: int, muls, divs, etas, below: int):
    """Add (sign q^e; q^s)_inf^k, e > 0 and e = 0 or s/2 mod s, to the kernel
    factors: (sign q^a; q^s)_inf^k for a = s or s/2 as eta powers, and its
    binomials (1 - sign q^j), j = a, a + s, ... below e, divided out.  Only
    the factors below ``below`` can touch a trusted coefficient."""
    a = s if e % s == 0 else s // 2
    if a >= below:
        return  # every factor and eta product is 1 below the order
    steps = [(sign, 0, 1, j) for j in range(a, min(e, below), s)]
    (divs if k > 0 else muls).extend(steps * abs(k))
    for u, m in _etas(sign, a, s):
        if u < below:
            etas[u] = etas.get(u, 0) + k * m


def _apply(t: Term, f: tuple, plus: tuple | None = None) -> tuple:
    """The kernel state of t * f, plus the state ``plus`` when given, for the
    kernel state f, in one call of the binomial kernel.

    The scalar is the kernel's unit and the shift its shift; the Term's
    binomials are its multiplications and divisions.  A Pochhammer power
    (c q^e; q^s)_inf^k on a base q^s, with e = 0 or s/2 mod s, and c = +-1
    or a root of unity met by its conjugate's power of the same e, s and k,
    becomes data for the kernel: its factors with e <= 0 stay binomials, a
    conjugate pair's rest is (sign q^3e; q^3s) / (sign q^e; q^s) with the
    sign from ``laurent._CONJUGATES``, and a rational rest is an eta
    quotient with the binomials below its first exponent divided out
    (``_eta_power``).  Every other power is listed factor by factor,
    repeated |k| times, as multiplications (k > 0) or divisions (k < 0).

    A factor (1 - c q^e) left out changes the product only at exponents of
    at least e plus the valuation of everything else.  The shift and the
    factors with e < 0 move that valuation and the trusted order alike, so
    of f trusted below a finite N only factors with e below N minus f's
    valuation can touch a trusted coefficient; those with e below N minus
    f's offset, which is at most its valuation, are applied.
    The result is trusted at least below N + t.shift minus the negative
    exponents of the multiplications.  An exact f (order None) takes a Term
    without Pochhammer powers exactly; a Pochhammer power raises
    OrderExceeded, as an infinite product needs an order.

    Of f with a finite order, the binomials are paired once (``_paired``):
    each root of unity c at q^e, e != 0, with its conjugate at the same e,
    as in C's two binomials, becomes rational factors, so a product of such
    pairs and of scalars rational in total stays on one numerator list.
    e = 0 is left to the kernel's scalar, where a pair is 3 or 1 and the
    quotient 0/0.  An exact f is not paired: a paired multiplication
    divides, which needs an order.
    """
    offset, _, _, order = f
    muls = [(*_split(c), e) for c, e in t.muls]
    divs = [(*_split(c), e) for c, e in t.divs]
    etas, waiting, rest = {}, {}, []
    for p, base, k in _powers(t):
        if order is None:
            raise OrderExceeded("a Pochhammer power is an infinite product; "
                                "a finite order is required")
        c, e, s, below = _split(p.coeff), p.exp, base.exp, order - offset
        partner, sign = laurent._CONJUGATES.get(c, (None, c[0]))  # c[0] is c at c = +-1
        if (base.coeff != ONE or e % s and 2 * (e % s) != s
                or partner is None and c not in ((1, 0, 1), (-1, 0, 1))):
            rest.append((p, base, k))
            continue
        if partner is None:
            cs = (c,)
        elif waiting.get((partner, e, s, k)):
            waiting[partner, e, s, k].pop()
            cs = (c, partner)
        else:  # listed factor by factor unless its conjugate's power comes
            waiting.setdefault((c, e, s, k), []).append((p, base, k))
            continue
        while e <= 0:
            (muls if k > 0 else divs).extend([(*x, e) for x in cs] * abs(k))
            e += s
        if partner is not None:  # the pair as (sign q^3e; q^3s) / (sign q^e; q^s)
            _eta_power(sign, 3 * e, 3 * s, k, muls, divs, etas, below)
            k = -k
        _eta_power(sign, e, s, k, muls, divs, etas, below)
    for p, base, k in rest + [power for left in waiting.values() for power in left]:
        (muls if k > 0 else divs).extend(_factors(p, base, below=order - offset) * abs(k))
    if order is not None:
        muls, divs = _paired(muls, divs)
    return _binomials(f, muls, divs, shift=t.shift, unit=_split(t.scalar), plus=plus,
                      etas=[(u, m) for u, m in etas.items() if m])


def _product_sum(terms, order: int | None) -> LaurentSeries:
    """The sum of ``terms``, trusted below ``order``: one kernel call per Term,
    each on the constant 1 trusted far enough for the Term to reach ``order``
    and adding the Terms before it, and one series built at the end.  With
    order None the Terms must be Laurent polynomials, summed exactly."""
    slacks = [_term_slack(t) for t in terms]  # every base is checked before any product
    total = _zero(order)
    for t, slack in zip(terms, slacks):
        total = _apply(t, _one(None if order is None else order + slack - t.shift), total)
    return _built(total)


def _merged(*terms: Term) -> Term:
    """The product of ``terms`` as one Term."""
    return Term(math.prod((t.scalar for t in terms), start=1),
                sum(t.shift for t in terms),
                sum((t.muls for t in terms), ()),
                sum((t.divs for t in terms), ()),
                sum((t.pochs for t in terms), ()))


def _first_zero(factors) -> int | None:
    """Least index M at which some factor (1 - p*step^M) vanishes; None when none does."""
    return _lowest(*(_zero_factor_index(p, step) for p, step in factors))


def _split_steps(level: Level, count: int) -> tuple[list, list]:
    """Level's ratio at M = 0 .. count-1, split for the binomial kernel, and
    the slack its numerators hold at indices >= M, for M = 0 .. count.

    A row is the weight as a unit (ua, ub, ud) and a shift, and the
    numerator and denominator factors as tuples of (ca, cb, cd, e).  In a
    level with a w-coefficient each row's factors are paired (``_paired``):
    a root of unity at q^e, e != 0, with its conjugate at the same e, as the
    numerators (1 - b q^M)(1 - q^M/b) of a level at b = w or -w, becomes
    rational factors.  The chained sum caps every step, so the paired
    multiplications, which divide, change no trusted order; e = 0 is left to
    the kernel's scalar, where a pair is 3 or 1 and the quotient 0/0.  The
    slack is counted on the factors as written, before pairing.
    """
    pairs = ((level.weight, level.growth),) + level.num + level.den
    k = len(level.num) + 1
    pair = not all(p.coeff.is_rational() and step.coeff.is_rational()
                   for p, step in level.num + level.den)
    left = sum(_negative_slack(p, step) for p, step in level.num)
    rows, tail = [], []
    for row in zip(*(_factors(p, step, count) for p, step in pairs)):
        muls, divs = row[1:k], row[k:]
        tail.append(left)
        left -= sum(-e for *_, e in muls if e < 0)
        if pair:
            muls, divs = map(tuple, _paired(muls, divs))
        rows.append((row[0][:3], row[0][3], muls, divs))
    return rows, tail + [left]


def _chain_sum(levels, order: int, first: Term = Term()) -> LaurentSeries:
    """The chained sum of ``_chain_state`` built into a series; with no
    levels, the first term alone (``_product_sum``)."""
    if not levels:
        return _product_sum((first,), order)
    return _built(_chain_state(levels, order, first))


def _chain_state(levels, order: int, first: Term) -> tuple:
    """The kernel state of the sum over 0 <= M_1 <= ... <= M_L of
    first * prod_j R_j(M_j), R_j(0) = 1, for at least one level, trusted
    below ``order``.

    Summed backwards, Horner style: with U_{L+1}(m) = 1, the inner sums
    U_j(m) = sum over m <= M_j <= ... <= M_L of prod_{i>=j} R_i(M_i)/R_i(m) obey

        U_j(m) = U_{j+1}(m) + rho_j(m) * U_j(m+1),   the sum = first * U_1(0),

    where rho_j(m) = prod_{i>=j} R_i(m+1)/R_i(m).  m runs from the top index
    down to 0, the deepest level first, and each (j, m) below level j's top
    is one kernel call: it multiplies U_j(m+1) by the weights, shifts and
    binomials of levels j..L at m, each level split once per index, and adds
    U_{j+1}(m) into the lists it built for the product.  Every U_j(m) stays a
    kernel state between the calls; at level j's top, U_j(top) = U_{j+1}(top)
    only has its order lowered to the cap.  The first term then applies to
    U_1(0) in one more kernel call, and the state it returns is normalized
    only when it is built into a series.  A level with no vanishing numerator
    factor never ends (``_first_zero`` is None); only the order stops it, so
    order None raises OrderExceeded once the bases are checked.

    Caps.  A term's valuation is at least floor = first.shift - slack plus
    the q-powers weight_j*M_j + growth_j*M_j(M_j-1)/2 of every level j; the
    slack is the negative exponents that numerator factors (those of the
    first term included) can contribute.  With rise(j, m) the q-power that
    levels j.. add up to index m and A_j(m) the slack their factors hold at
    indices >= m, U_j(m) enters the sum times at least q^(floor + rise(j, m)
    + A_j(m)).  So it is kept below cap_j(m) = order - floor - rise(j, m) -
    A_j(m), and the kernel carries U_j(m+1) at its cap to exactly that.
    Level j's top is the least m with floor + rise(j, m+1) >= order, where
    rho_j(m) * U_j(m+1) lies at or above the cap.

    A numerator factor that vanishes at index m ends its level after m:
    level j's top is at most the end of every level i >= j, so no
    denominator beyond a level's end is touched.  A denominator factor of
    level j that vanishes at index m before the level's own end raises
    ZeroFactor when floor + rise(j, m) < order: some term then steps level
    j through m, whether or not a deeper level has ended.
    """
    for lv in levels:
        _check_base(lv.weight)  # a weight without a positive q-power never stops
        if lv.growth.exp < 0:
            raise InvalidBase(f"weight growth must not lower the q-power, got {lv.growth}")
        for _, step in lv.num + lv.den:
            _check_base(step)
    slack = _term_slack(first) + sum(
        _negative_slack(p, step) for lv in levels for p, step in lv.num)
    if order is None:
        raise OrderExceeded("a chained sum is an infinite series; a finite order is required")
    floor = first.shift - slack
    rest = [sum(lv.weight.exp for lv in levels[j:]) for j in range(len(levels))]
    grow = [sum(lv.growth.exp for lv in levels[j:]) for j in range(len(levels))]

    def rise(j: int, m: int) -> int:
        return rest[j] * m + grow[j] * (m * (m - 1) // 2)

    ends = [_first_zero(lv.num) for lv in levels]  # None: the level never ends
    for j, lv in enumerate(levels):
        m = _first_zero(lv.den)
        if m is not None and (ends[j] is None or m < ends[j]) and floor + rise(j, m) < order:
            raise ZeroFactor(
                f"chained sum: a denominator factor of level {j + 1} vanishes at index {m}")
    tops = []  # tops[j] <= tops[j+1]: rise(j, m) falls and min(ends[j:]) rises with j
    for j in range(len(levels)):
        end, m = _lowest(*ends[j:]), 0
        while (end is None or m < end) and floor + rise(j, m + 1) < order:
            m += 1
        tops.append(m)
    # splits[j][m]: level j's ratio at m; tails[j][m]: the slack its numerators hold at >= m
    splits, tails = zip(*(_split_steps(lv, top) for lv, top in zip(levels, tops)))
    one = _one(None)
    above = [None] * len(levels)  # above[j]: the state of U_j at the index above m
    for m in range(tops[-1], -1, -1):
        inner, unit, shift, muls, divs, held = one, (1, 0, 1), 0, (), (), 0
        for j in range(len(levels) - 1, -1, -1):
            if m > tops[j]:
                break
            held += tails[j][m]
            cap = order - floor - rise(j, m) - held
            if m < tops[j]:
                (ua, ub, ud), s, mu, dv = splits[j][m]
                va, vb, vd = unit  # the merged weight, (ua + ub*w)(va + vb*w) / (ud*vd)
                unit = (*_zw(ua, ub, va, vb), ud * vd)
                shift, muls, divs = shift + s, mu + muls, dv + divs
                inner = _binomials(above[j], muls, divs, cap, shift, unit, plus=inner)
            else:  # U_j(top) = U_{j+1}(top), kept below the cap: only the order falls
                offset, parts, den, below = inner
                inner = offset, parts, den, _lowest(below, cap)
            above[j] = inner
    return _required(_apply(first, above[0]), order)


def _vwp_level(nums, dens, base: ParamValue, weight: ParamValue | None = None) -> Level:
    """The ratio weight * prod_{p in nums} (1 - p base^M)(1 - base^M/p)
    / prod_{p in dens} (1 - p base^{M+1})(1 - base^{M+1}/p); weight defaults to base.
    nums and dens hold the pairs (p, 1/p) of ``_inverted``."""
    return Level(
        base if weight is None else weight,
        tuple((b, base) for pair in nums for b in pair),
        tuple((_param_mul(base, b), base) for pair in dens for b in pair),
    )


# -- the closed forms' factors, as Terms ------------------------------------------------


def _c_term(z: tuple, y: tuple) -> Term:
    """C(z,y) = z^-1 / ((1 - y/z)(1 - 1/(yz))), as (z - y)(1 - 1/(yz)) = z + 1/z - y - 1/y,
    for z and y given as the pairs (z, 1/z) and (y, 1/y) of ``_inverted``.
    DegenerateC when z is y or 1/y, where the denominator vanishes identically.

    The two binomials carry y/z and 1/(yz), at one q-power exactly when y
    has none.  So when z has no q-power and y has one, the Term is built as
    -C(y,z), which is C(z,y).  Then, with y a root of unity and z = +-q^a,
    the two coefficients are conjugates at one exponent, which ``_apply``
    pairs into rational factors."""
    (z, zi), (y, yi) = z, y
    if z == y or z == yi:
        raise DegenerateC(f"C({z}, {y}) undefined: z coincides with y or 1/y")
    flip = not z.exp and y.exp
    if flip:
        (z, zi), (y, yi) = (y, yi), (z, zi)
    return Term(-zi.coeff if flip else zi.coeff, zi.exp,
                divs=tuple((p.coeff, p.exp) for p in (_param_mul(y, zi), _param_mul(yi, zi))))


def _d_term(*pairs: tuple) -> Term:
    """prod over the pairs (p, 1/p) of (1-p)(1-1/p); D(z,y) is _d_term(y, z)."""
    return Term(muls=tuple((b.coeff, b.exp) for pair in pairs for b in pair))


def _pochs(base: ParamValue, k: int, *params: ParamValue) -> Term:
    """prod over params of (p; base)_inf^k."""
    return Term(pochs=tuple((p.coeff, p.exp, base, k) for p in params))


def _lifted(pair: tuple, base: ParamValue, k: int) -> Term:
    """(base*p, base/p; base)_inf^k for the pair (p, 1/p)."""
    return _pochs(base, k, *(_param_mul(base, b) for b in pair))


def c_helper(z: ParamValue, y: ParamValue, order: int | None = None) -> LaurentSeries:
    """C(z,y) = 1/(z + 1/z - y - 1/y) as a (possibly constant) series, in one
    kernel call.  DegenerateC when z is y or 1/y.  A finite order is needed
    exactly when a parameter carries a power of q; OrderExceeded without one.
    """
    return _product_sum((_c_term(*_inverted(z, y)),), order)


def d_helper(z: ParamValue, y: ParamValue) -> LaurentSeries:
    """D(z,y) = (1-y)(1-1/y)(1-z)(1-1/z), an exact Laurent polynomial."""
    return _product_sum((_d_term(*_inverted(y, z)),), None)


# -- A_{k,i} as a product of Cs --------------------------------------------------------


def _a_term(pairs, i: int) -> Term:
    """A_{k,i}(b_1, ..., b_k) = prod_{j != i} C(b_i, b_j) as one Term, for the
    pairs (b_j, 1/b_j): 2(k-1) divided binomials.  DegenerateC when b_i
    coincides with some b_j or 1/b_j."""
    b = pairs[i - 1]
    return _merged(*(_c_term(b, c) for j, c in enumerate(pairs, 1) if j != i))


def _applied_a(terms, pairs, order: int) -> LaurentSeries:
    """sum_i terms[i-1] * A_{k,i}, for the pairs (b_j, 1/b_j), trusted below
    ``order``: one Term per i, the product of terms[i-1] and A_{k,i}'s Cs, so
    k kernel calls.  Every C is built before any product is applied, so a
    coinciding pair raises DegenerateC before any Pochhammer product can
    raise ZeroFactor."""
    summands = [_merged(t, _a_term(pairs, i)) for i, t in enumerate(terms, 1)]
    return _product_sum(summands, order)


class ACoeffTable:
    """A memo keyed by (k, i, parameters, order), which nothing uses.

    Each product side builds its A_{k,i} inside its own Terms, and
    ``a_coeff`` keeps no table.  The class exists only because the
    benchmark's tracer (``perfbench/tracer.py``) patches
    ``ACoeffTable.get_or_compute`` by name.
    """

    def __init__(self):
        self.entries: dict = {}

    def get_or_compute(self, key, compute):
        hit = self.entries.get(key)
        if hit is None:
            hit = self.entries[key] = compute()
        return hit


def a_coeff(k: int, i: int, params, order: int | None = None) -> LaurentSeries:
    """A_{k,i}(b_1,...,b_k) = prod_{j != i} C(b_i, b_j), in one kernel call,
    trusted below ``order``.

    The paper defines A_{k,i} by the three-branch recursion

        A_{1,1} = 1
        A_{k,k}   =  C(b_k,b_{k-1}) * A_{k-1,k-1}(b_1,...,b_{k-2},b_k)
        A_{k,k-1} = -C(b_k,b_{k-1}) * A_{k-1,k-1}(b_1,...,b_{k-1})
        A_{k,i}   =  C(b_k,b_{k-1}) * (A_{k-1,i}(b_1,...,b_{k-2},b_k)
                                       - A_{k-1,i}(b_1,...,b_{k-1}))    i <= k-2,

    the divided-difference recurrence in x = b + 1/b, which solves to the
    product.  The recursion meets C(b_j, b_l) for every pair with j = i or
    j, l > i, so DegenerateC is raised when any such pair coincides (b_j is
    b_l or 1/b_l), even where the product itself is finite.

    Constant (exact) for root-of-unity parameters; a genuine series when some
    parameter is a q-power, in which case a finite order is required: without
    one, OrderExceeded, unless DegenerateC is raised first.
    """
    params = as_params(params)
    if len(params) != _as_int(k, "count"):
        raise ValueError(f"a_coeff expects exactly k={k} parameters, got {len(params)}")
    if not 1 <= _as_int(i, "index") <= k:
        raise ValueError(f"a_coeff index i={i} outside 1..{k}")
    pairs = _inverted(*params)
    later = pairs[i:]
    for n, z in enumerate(later):
        for y in later[:n]:
            _c_term(z, y)  # raises DegenerateC where the recursion divides by zero
    return _product_sum((_a_term(pairs, i),), order)


# -- the k-parameter identity, both sides ---------------------------------------------


def lhs_multisum(params, order: int, base: ParamValue = Q) -> LaurentSeries:
    """The (k-1)-fold sum side of the k-parameter identity.

    A chained sum over M_1 <= M_2 <= ... <= M_{k-1} with one level per j:
        G_j(M_j) = base^{M_j} (b_{j+1}, 1/b_{j+1}; base)_{M_j}
                   / (base*b_j, base/b_j; base)_{M_j}.
    """
    pairs = _inverted(*as_params(params))
    levels = [_vwp_level((pairs[j],), (pairs[j - 1],), base) for j in range(1, len(pairs))]
    return _chain_sum(levels, order)


def rhs_products(params, order: int, base: ParamValue = Q) -> LaurentSeries:
    """The infinite-product side of the k-parameter identity.

    Implemented in the cancelled form

        sum_i A_{k,i} * prod_{j != i} (1-b_j)(1-1/b_j)
              * (base*b_k, base/b_k; base)_inf / (base*b_i, base/b_i; base)_inf,

    obtained by pushing the (1-b_i)(1-1/b_i) prefactors through
    (b_i, 1/b_i; base)_inf = (1-b_i)(1-1/b_i)(base*b_i, base/b_i; base)_inf.
    This is the unique form that stays regular when some b_i = 1 (the factors
    then vanish rather than divide by zero), which the x = 1 specializations
    genuinely need.  Each summand is one Term, its factors times A_{k,i}'s
    Cs; at i = k its Pochhammer powers cancel, but ZeroFactor is still
    raised, before any C is built, when (base*b_k, base/b_k; base)_inf
    vanishes.
    """
    pairs = _inverted(*as_params(params))
    prefix = _lifted(pairs[-1], base, 1)
    list(_powers(prefix))  # raises for a vanishing prefix, which cancels at i = k
    terms = [_merged(_d_term(*pairs[:i], *pairs[i + 1:]), prefix, _lifted(p, base, -1))
             for i, p in enumerate(pairs[:-1])]
    return _applied_a(terms + [_d_term(*pairs[:-1])], pairs, order)


# -- single / double sums in corollary shape -------------------------------------------


def vwp_single_sum(num: ParamValue, den: ParamValue, order: int,
                   base: ParamValue = Q) -> LaurentSeries:
    """sum_{n>=0} base^n (num, 1/num; base)_n / (base*den, base/den; base)_n."""
    num, den = _inverted(num, den)
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
    no, ni, do, di = _inverted(num_outer, num_inner, den_outer, den_inner)
    return _chain_sum([_vwp_level((no,), (do,), base), _vwp_level((ni,), (di,), base)], order)


def diagonal_sum(x: ParamValue, y: ParamValue, z: ParamValue, order: int,
                 base: ParamValue = Q) -> LaurentSeries:
    """sum_{m>=0} base^{2m} (y,1/y;base)_m (z,1/z;base)_m
    / ((base*x, base/x; base)_m (base*y, base/y; base)_m)."""
    x, y, z = _inverted(x, y, z)
    return _chain_sum([_vwp_level((y, z), (x, y), base, _param_mul(base, base))], order)


# -- the k=2 and k=3 corollaries --------------------------------------------------------


def corollary_k2(y: ParamValue, z: ParamValue, base: ParamValue,
                 order: int) -> LaurentSeries:
    """The closed form of the k=2 specialization

        sum_{n>=0} base^n (z,1/z;base)_n / (base*y, base/y; base)_n
        = C(z,y) ((1-y)(1-1/y) - (z,1/z;base)_inf / (base*y, base/y;base)_inf),

    trusted through ``order``, as two Terms; the sum side is
    ``vwp_single_sum(z, y)``.
    """
    y, z = _inverted(y, z)
    c = _c_term(z, y)
    quotient = _merged(Term(-1), _pochs(base, 1, *z), _lifted(y, base, -1))
    return _product_sum((_merged(c, _d_term(y)), _merged(c, quotient)), order)


def corollary_k3(x: ParamValue, y: ParamValue, z: ParamValue, base: ParamValue,
                 order: int) -> LaurentSeries:
    """The closed form of the k=3 specialization

        sum_{m,n>=0} base^{2m+n} (y,1/y;base)_m (z,1/z;base)_{m+n}
                     / ((base*x,base/x;base)_m (base*y,base/y;base)_{m+n})
        =   D(x,y) C(z,y) C(z,x)
          - D(x,z) C(z,y) C(y,x) (base*z,base/z;base)_inf/(base*y,base/y;base)_inf
          + D(y,z) C(z,y) (C(y,x) - C(z,x))
                           (base*z,base/z;base)_inf/(base*x,base/x;base)_inf,

    trusted through ``order``, as four Terms (the last summand split in two);
    the sum side is ``vwp_double_sum(y, z, x, y)``.
    """
    x, y, z = _inverted(x, y, z)
    czy, czx, cyx = _c_term(z, y), _c_term(z, x), _c_term(y, x)
    by_y = _merged(_lifted(z, base, 1), _lifted(y, base, -1))
    by_x = _merged(_lifted(z, base, 1), _lifted(x, base, -1))
    terms = (_merged(_d_term(x, y), czy, czx),
             _merged(Term(-1), _d_term(x, z), czy, cyx, by_y),
             _merged(_d_term(y, z), czy, cyx, by_x),
             _merged(Term(-1), _d_term(y, z), czy, czx, by_x))
    return _product_sum(terms, order)


# -- bilateral series and finite-N form ----------------------------------------------


def _poles(pairs, base: ParamValue) -> set:
    """The indices n >= 0 at which a factor of prod_i (1-b_i base^n)(1-base^n/b_i)
    vanishes, for the pairs (b_i, 1/b_i); a bilateral term over that
    denominator has poles at n and -n."""
    _check_base(base)
    hits = (_zero_factor_index(b, base) for pair in pairs for b in pair)
    return {n for n in hits if n is not None}


def _folded_sum(pairs, base: ParamValue, weight: ParamValue, first: Term, order: int,
                growth: ParamValue = ParamValue(ONE), num=(), den=()) -> tuple:
    """The kernel state, trusted below ``order``, of
    sum_{n>=0} (1 + base^n) t(n) - t(0), the sum of t(n) over all integers n
    when t(-n) = base^n t(n), for t(0) = first and the term ratio

        t(n+1)/t(n) = weight * growth^n * prod_num / prod_den * prod_i
                      (1-b_i base^n)(1-base^n/b_i) / ((1-b_i base^(n+1))(1-base^(n+1)/b_i)).

    The b_i come as the pairs (b_i, 1/b_i).  One level sums it from 2 t(0),
    with (1 + base^(n+1))/(1 + base^n) in its ratio, and -t(0) is one more
    kernel call, with that sum's state as its addend.
    """
    lv = _vwp_level(pairs, pairs, base, weight)
    minus_one = ParamValue(-1)
    level = Level(weight, lv.num + ((_param_mul(minus_one, base), base),) + num,
                  lv.den + ((minus_one, base),) + den, growth)
    total = _chain_state([level], order, replace(first, scalar=2 * first.scalar))
    minus_first = replace(first, scalar=-first.scalar)
    one = _one(order + _term_slack(first) - first.shift)
    return _required(_apply(minus_first, one, plus=total), order)


def f_bilateral(params, order: int, base: ParamValue = Q) -> LaurentSeries:
    """F_k = sum over all integers n of
        t(n) = (-1)^n base^(C(n+1,2) + (k-1)n) / prod_i (1-b_i base^n)(1-base^n/b_i),

    with the term ratio t(n+1)/t(n) = -base^(k+n) * prod_i (1-b_i base^n)(1-base^n/b_i)
    / ((1-b_i base^(n+1))(1-base^(n+1)/b_i)) and mirrored tails t(-n) = base^n t(n).
    ZeroFactor when some b_i is an integer power of base: terms n and -n have a pole.
    """
    return _built(_f_bilateral(_inverted(*as_params(params)), order, base))


def _f_bilateral(pairs, order: int, base: ParamValue) -> tuple:
    """The kernel state of F_k for the pairs (b_i, 1/b_i) of ``_inverted``."""
    if _poles(pairs, base):
        raise ZeroFactor("F_k: some b_i is a power of the base, a term has a pole")
    weight = _param_mul(ParamValue(-1), _param_pow(base, len(pairs)))
    first = Term(divs=tuple((b.coeff, b.exp) for pair in pairs for b in pair))
    return _folded_sum(pairs, base, weight, first, order, growth=base)


def f_consistency_rhs(params, order: int, base: ParamValue = Q) -> LaurentSeries:
    """(base;base)_inf^2 * sum_i A_{k,i} / (b_i, 1/b_i; base)_inf.

    The closed form of F_k implied by the recursion, one Term per A_{k,i};
    requires every b_i != 1 (the uncancelled denominators appear as stated).
    InvalidBase for a base without a positive q-power, before any C is built.
    """
    pairs = _inverted(*as_params(params))
    _check_base(base)
    euler = _pochs(base, 2, base)
    return _applied_a([_merged(euler, _pochs(base, -1, *pair)) for pair in pairs], pairs, order)


def l_finite_n(params, bigN: int, order: int, base: ParamValue = Q) -> LaurentSeries:
    """The finite truncation

        L_{k,N} = 1 + prod_i (1-b_i)(1-1/b_i) * sum_{n=1}^{N}
            (1 + base^n) base^{(k+N)n} (base^{-N}; base)_n
            / (prod_i (1-b_i base^n)(1-base^n/b_i) * (base^{N+1}; base)_n),

    which is sum_{n>=0} (1 + base^n) t(n) - t(0) for t(0) = 1 and the term ratio
    t(n+1)/t(n) = base^(k+N) * prod_i (1-b_i base^n)(1-base^n/b_i)
    / ((1-b_i base^(n+1))(1-base^(n+1)/b_i)) * (1-base^(n-N)) / (1-base^(N+1+n));
    its factor (1 - base^(n-N)) ends the sum at n = N.  ZeroFactor when some
    b_i = base^n with 1 <= |n| <= N: term |n| has a pole.  As bigN grows the
    coefficients below a fixed order stabilize to prod_i (1-b_i)(1-1/b_i) * F_k.
    """
    pairs = _inverted(*as_params(params))
    if _as_int(bigN, "count") < 0:
        raise ValueError("l_finite_n needs bigN >= 0")
    if any(0 < n <= bigN for n in _poles(pairs, base)):
        raise ZeroFactor("L_{k,N}: some b_i is a power of the base, a term has a pole")
    return _built(_folded_sum(pairs, base, _param_pow(base, len(params) + bigN), Term(), order,
                              num=((_param_pow(base, bigN).inv(), base),),
                              den=((_param_pow(base, bigN + 1), base),)))


def l_infinite(params, order: int, base: ParamValue = Q) -> LaurentSeries:
    """The bigN -> infinity limit: prod_i (1-b_i)(1-1/b_i) * F_k.

    F_k is summed to the order plus the negative exponents of the pairs, which
    a q-power parameter b brings down to q^-|b.exp|, so the product reaches
    ``order``.
    """
    params = as_params(params)
    if order is None:
        raise OrderExceeded("l_infinite is an infinite series; a finite order is required")
    pairs = _inverted(*params)
    d = _d_term(*pairs)
    f = _f_bilateral(pairs, order + _term_slack(d), base)
    return _built(_required(_apply(d, f), order))


# -- classical evaluations ----------------------------------------------------------


def bailey_3psi3_sum(b: ParamValue, order: int) -> LaurentSeries:
    """The sum side of the well-poised bilateral evaluation at c = 1/b, d -> infinity:

        sum over all integers n of t(n) = (b, 1/b; q)_n / (qb, q/b; q)_n * (-1)^n q^(n(n+1)/2)
        = (q;q)_inf^2 / (qb, q/b; q)_inf,

    with the term ratio t(n+1)/t(n) = -q^(n+1) (1-b q^n)(1-q^n/b) / ((1-b q^(n+1))(1-q^(n+1)/b))
    and, by (a;q)_{-n} = 1/(a q^{-n};q)_n, mirrored tails t(-n) = q^n t(n).  At
    b = 1 every term but t(0) = 1 vanishes.  With b = q^n, n != 0, the pole of
    term n lies within the a-priori bound at every order, so the driver
    raises ZeroFactor there.
    """
    return _built(_folded_sum(_inverted(b), Q, ParamValue(-1, 1), Term(), order, growth=Q))
