"""Truncated Laurent series in q over Q(w), plus q-Pochhammer products.

A series is stored densely over one common denominator: an integer
``offset`` (the exponent of the first stored coefficient, possibly negative),
two lists of Python ints ``a`` and ``b`` (the 1-parts and the w-parts of the
numerators), a positive int ``den``, and an ``order``.  The coefficient of
q^(offset + i) is

    (a[i] + b[i]*w) / den.

``order = N`` means the coefficients are trusted exactly for all exponents
< N and unknown from N on; ``order = None`` means the series is an exact
Laurent polynomial with no unknown tail.

The series kernels run in Z[w] on those integer lists, with the product rule

    (x + y*w)(u + v*w) = (xu - yv) + (xv + yu - yv)*w,

and touch no rational arithmetic.  A scalar c in Q(w) enters a kernel once,
split into integers (ca + cb*w) / cd.  ``CycRat`` (coeffring) stays the scalar
type at the API edge: the constructor, ``from_terms`` and ``monomial`` take
CycRat values, and ``coeff``, ``terms`` and the read-only ``coeffs`` view hand
them out, built from the backend's rationals on read.

Order bookkeeping under multiplication accounts for operand valuations:
a product coefficient at exponent e needs f up to e - val(g) and g up to
e - val(f), so

    order(f*g) = min(order(f) + val(g), order(g) + val(f)).

For ordinary power series (offset >= 0) this collapses to the usual
min(order, order), but for genuine Laurent operands (negative offsets, which
the identity right-hand sides here do produce) the naive min would silently
trust coefficients that depend on truncated ones.

The binomials (1 - c*q^e) do the heavy lifting for Pochhammer symbols and
chained sums, and one private kernel, ``_binomials``, is their only
implementation.  It takes a raw state, the tuple (offset, a, b, den, order)
of a series' fields, and applies a shift, a scalar and any number of
multiplications and divisions by binomials whose c arrives already split
into integers, normalizing once at the end:

    multiplying by (1 - c*q^e) is one pass over the data;
    dividing by it is the forward recurrence g[j] = f[j] + c*g[j-e],
    run entry by entry, also linear time.

``mul_one_minus`` and ``div_one_minus`` are one kernel call each, and so is
every Pochhammer builder: (a; q)_n, (a; q)_infinity and their inverses split
their factors once and normalize once, at O(n * order) instead of the
O(order^2) of repeated general multiplication.  The chained-sum driver in
``vwp`` steps raw states through the kernel on pre-split factors without
building a series per factor.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd, lcm
from operator import mul

from .coeffring import ZERO, ONE, CycRat, DivisionByZero, rat

_INF = float("inf")  # internal stand-in so min() works on mixed orders


class OrderExceeded(Exception):
    """A coefficient beyond the trusted truncation order was requested."""


class InvalidBase(ValueError):
    """A Pochhammer base with non-positive q-exponent was supplied."""


class ZeroFactor(ArithmeticError):
    """A Pochhammer factor (1 - a*base^j) is exactly zero.

    The product is then identically zero (or undefined in a denominator);
    callers that want the zero must handle it explicitly rather than have it
    propagate silently.
    """


@dataclass(frozen=True)
class ParamValue:
    """A monomial parameter c * q^e with c in Q(w), c != 0.

    These are the values substituted for the free parameters of the series
    identities: roots of unity, their negatives, and +/- powers of q.
    """

    coeff: CycRat
    exp: int = 0

    def __post_init__(self):
        if not isinstance(self.coeff, CycRat):
            object.__setattr__(self, "coeff", CycRat(self.coeff))
        if not self.coeff:
            raise ValueError("parameter value must be nonzero")

    def inv(self) -> "ParamValue":
        """The reciprocal parameter 1/(c*q^e) = c^{-1} * q^{-e}.

        Computed once per instance: the reciprocal is kept in the instance's
        ``__dict__``, not in a field, so eq, hash and repr ignore it, and it
        points back, so ``p.inv().inv() is p``.
        """
        inverse = self.__dict__.get("_inverse")
        if inverse is None:
            inverse = ParamValue(self.coeff.inverse(), -self.exp)
            inverse.__dict__["_inverse"] = self
            self.__dict__["_inverse"] = inverse
        return inverse

    def __str__(self):
        if self.exp == 0:
            return str(self.coeff)
        c = "" if self.coeff == ONE else f"({self.coeff})*"
        return f"{c}q^{self.exp}"


#: The base parameter q itself.
Q = ParamValue(ONE, 1)


def _norm_order(order):
    return _INF if order is None else order


def _denorm_order(order):
    return None if order == _INF else int(order)


# -- integer Z[w] helpers --------------------------------------------------------------


def _split(c) -> tuple[int, int, int]:
    """Integers (ca, cb, cd) with c = (ca + cb*w) / cd and cd > 0."""
    if not isinstance(c, CycRat):
        c = CycRat(c)
    da, db = int(c.a.denominator), int(c.b.denominator)
    cd = lcm(da, db)
    return int(c.a.numerator) * (cd // da), int(c.b.numerator) * (cd // db), cd


def _cyc(x: int, y: int, den: int) -> CycRat:
    """The scalar (x + y*w) / den."""
    return CycRat(rat(x, den), rat(y, den))


def _scaled(m: int, xs: list) -> list:
    """The list m*xs (xs itself when m is 1; lists are never mutated once stored)."""
    return xs if m == 1 else [m * x for x in xs]


def _times(ca: int, cb: int, xs: list, ys: list) -> tuple[list, list]:
    """Numerators of (ca + cb*w) * (x + y*w), entry by entry."""
    if not cb:
        return _scaled(ca, xs), _scaled(ca, ys)
    cab = ca - cb
    return ([ca * x - cb * y for x, y in zip(xs, ys)],
            [cb * x + cab * y for x, y in zip(xs, ys)])


class _Coeffs(Sequence):
    """Read-only view of a series' coefficients as CycRat values.

    ``len`` is O(1); an item is built only when it is read.
    """

    __slots__ = ("_series",)

    def __init__(self, series: "LaurentSeries"):
        self._series = series

    def __len__(self):
        return len(self._series._a)

    def __getitem__(self, i: int) -> CycRat:
        s = self._series
        return _cyc(s._a[i], s._b[i], s._den)

    def __iter__(self):
        s = self._series
        for x, y in zip(s._a, s._b):
            yield _cyc(x, y, s._den)


class LaurentSeries:
    """Dense truncated Laurent series over Q(w), on integer numerators.

    Internal invariant, which makes equal series store equal data: the
    numerator lists ``_a``, ``_b`` have no leading or trailing zero pair
    (the zero series has empty lists, offset 0 and denominator 1), the
    denominator ``_den`` is positive and gcd(_den, *_a, *_b) = 1, and every
    stored exponent is below ``order`` when the order is finite.  Stored
    lists are never mutated, so series share them freely.
    """

    __slots__ = ("offset", "order", "_a", "_b", "_den")

    def __init__(self, offset: int, coeffs, order: int | None = None):
        parts = [_split(c) for c in coeffs]
        den = lcm(*(cd for _, _, cd in parts))
        self._store(offset,
                    [ca * (den // cd) for ca, _, cd in parts],
                    [cb * (den // cd) for _, cb, cd in parts],
                    den, order)

    def _store(self, offset: int, a: list, b: list, den: int, order: int | None):
        """Normalize numerators ``a``, ``b`` over ``den`` into the invariant."""
        self.offset, self._a, self._b, self._den, self.order = _normal(
            offset, a, b, den, order)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_terms(cls, terms: dict[int, CycRat], order: int | None = None):
        """Series from an {exponent: coefficient} mapping."""
        if not terms:
            return cls(0, [], order)
        lo = min(terms)
        hi = max(terms)
        coeffs = [ZERO] * (hi - lo + 1)
        for e, c in terms.items():
            coeffs[e - lo] = c
        return cls(lo, coeffs, order)

    @classmethod
    def zero(cls, order: int | None = None):
        return _new(0, [], [], 1, order)

    @classmethod
    def one(cls, order: int | None = None):
        return _new(0, [1], [0], 1, order)

    @classmethod
    def monomial(cls, coeff, exp: int = 0, order: int | None = None):
        return cls(exp, [coeff], order)

    # -- queries ---------------------------------------------------------------

    @property
    def coeffs(self) -> _Coeffs:
        """The stored coefficients, lowest exponent first, as CycRat values."""
        return _Coeffs(self)

    def is_zero(self) -> bool:
        return not self._a

    def valuation(self) -> int:
        """Exponent of the lowest nonzero term (offset of the data)."""
        if not self._a:
            raise ValueError("the zero series has no valuation")
        return self.offset

    def coeff(self, exp: int) -> CycRat:
        """Coefficient of q^exp; OrderExceeded beyond the trusted range."""
        if self.order is not None and exp >= self.order:
            raise OrderExceeded(
                f"coefficient of q^{exp} requested, trusted only below q^{self.order}"
            )
        i = exp - self.offset
        if 0 <= i < len(self._a):
            return _cyc(self._a[i], self._b[i], self._den)
        return ZERO

    def terms(self):
        """Iterate (exponent, coefficient) over nonzero stored terms."""
        for i, (x, y) in enumerate(zip(self._a, self._b)):
            if x or y:
                yield self.offset + i, _cyc(x, y, self._den)

    # -- order management -------------------------------------------------------

    def truncate(self, order: int) -> "LaurentSeries":
        """Restrict to coefficients below ``order`` (order can only shrink)."""
        new_order = order if self.order is None else min(self.order, order)
        return _new(self.offset, self._a, self._b, self._den, new_order)

    def require_order(self, order: int) -> "LaurentSeries":
        """Assert the series is trusted through ``order`` and truncate to it."""
        if self.order is not None and self.order < order:
            raise OrderExceeded(
                f"series trusted only below q^{self.order}, need q^{order}"
            )
        return _new(self.offset, self._a, self._b, self._den, order)

    # -- linear structure --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return _new(*_plus(None, _raw(self), _raw(other)))

    def __neg__(self):
        return _new(self.offset, [-x for x in self._a], [-y for y in self._b],
                    self._den, self.order)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "LaurentSeries":
        """Multiply by a scalar from Q(w)."""
        ca, cb, cd = _split(c)
        if not ca and not cb:
            return _new(0, [], [], 1, self.order)
        a, b = _times(ca, cb, self._a, self._b)
        return _new(self.offset, a, b, self._den * cd, self.order)

    def shift(self, e: int) -> "LaurentSeries":
        """Multiply by the exact monomial q^e."""
        order = None if self.order is None else self.order + e
        return _new(self.offset + e, self._a, self._b, self._den, order)

    # -- multiplicative structure --------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order = _denorm_order(_product_order(self, other))
        offset = self.offset + other.offset
        fa, fb, ga, gb = self._a, self._b, other._a, other._b
        if len(fa) > len(ga):
            fa, fb, ga, gb = ga, gb, fa, fb
        size = len(fa) + len(ga) - 1
        if order is not None:
            size = min(size, order - offset)  # the rest is truncated anyway
        if not fa or size <= 0:
            return _new(0, [], [], 1, order)
        a = [0] * size
        b = [0] * size
        for i, (x, y) in enumerate(zip(fa, fb)):
            j = min(i + len(ga), size)
            if i >= j:
                break
            if x or y:
                a[i:j] = [s + x * u - y * v for s, u, v in zip(a[i:j], ga, gb)]
                b[i:j] = [s + x * v + y * (u - v) for s, u, v in zip(b[i:j], ga, gb)]
        return _new(offset, a, b, self._den * other._den, order)

    def mul_one_minus(self, c: CycRat, e: int) -> "LaurentSeries":
        """Multiply by the exact binomial (1 - c*q^e) in one pass."""
        return _new(*_binomials(_raw(self), muls=((*_split(c), e),)))

    def div_one_minus(self, c: CycRat, e: int, order: int | None = None) -> "LaurentSeries":
        """Divide by (1 - c*q^e) via the forward recurrence g[j] = f[j] + c*g[j-e].

        For e >= 1 the quotient is an honest power series times q^offset; for
        e <= -1 we first factor (1 - c*q^e) = (-c*q^e) * (1 - c^{-1} q^{-e}).
        The result needs a finite order: pass one, or the receiver must
        already carry one.
        """
        return _new(*_binomials(_raw(self), divs=((*_split(c), e),), cap=order))

    def inverse(self, order: int | None = None) -> "LaurentSeries":
        """Multiplicative inverse by forward substitution.

        If f = c*q^v*(1 + h) with h of positive valuation, the inverse is
        c^{-1} q^{-v} (1 + h)^{-1}.  Trusted range: order(f) - 2v (each side
        of the convolution shifts by the valuation).

        With F = den*f = sum F_i q^(v+i) and N = F_0*conj(F_0), the norm of
        the leading numerator, H_j = N^(j+1) * [q^(j-v)] F^{-1} satisfies

            H_0 = conj(F_0),  H_j = -conj(F_0) * sum_{i>=1} F_i N^(i-1) H_{j-i},

        all in Z[w]; the inverse is den * H_j / N^(j+1).
        """
        if not self._a:
            raise DivisionByZero("inverse of the zero series")
        v = self.offset
        my_order = _norm_order(self.order) - 2 * v
        target = min(my_order, _norm_order(order))
        if target == _INF:
            if len(self._a) != 1:
                raise OrderExceeded(
                    "inverse of a non-monomial polynomial is an infinite series; "
                    "a finite order is required"
                )
            target = None
        else:
            target = int(target)
            length = target + v  # result exponents run from -v up to target-1
            if length <= 0:
                return _new(0, [], [], 1, target)
        x0, y0 = self._a[0], self._b[0]
        norm = x0 * x0 - x0 * y0 + y0 * y0
        if len(self._a) == 1:  # (den / F_0) q^(-v), F_0^{-1} = (x0 - y0 - y0*w) / norm
            return _new(-v, [self._den * (x0 - y0)], [-self._den * y0], norm, target)
        pa, pb = y0 - x0, y0  # -conj(F_0)
        fa, fb = self._a[1:length], self._b[1:length]
        if norm != 1:
            powers = [norm ** i for i in range(len(fa))]
            fa = [p * x for p, x in zip(powers, fa)]
            fb = [p * y for p, y in zip(powers, fb)]
        ha, hb = [x0 - y0], [-y0]
        for j in range(1, length):
            ra, rb = ha[j - 1::-1], hb[j - 1::-1]
            yv = sum(map(mul, fb, rb))
            sa = sum(map(mul, fa, ra)) - yv
            sb = sum(map(mul, fa, rb)) + sum(map(mul, fb, ra)) - yv
            ha.append(pa * sa - pb * sb)
            hb.append(pb * sa + (pa - pb) * sb)
        den = self._den
        if norm != 1:
            powers = [norm ** (length - 1 - j) for j in range(length)]
            ha = [p * x for p, x in zip(powers, ha)]
            hb = [p * y for p, y in zip(powers, hb)]
        return _new(-v, _scaled(den, ha), _scaled(den, hb), norm ** length, target)

    def __truediv__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        hint = None
        if self.order is not None and not other.is_zero():
            vf = 0 if self.is_zero() else self.offset
            hint = self.order - other.valuation() - vf
        return self * other.inverse(hint)

    # -- comparison / rendering -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.offset == other.offset
            and self.order == other.order
            and self._den == other._den
            and self._a == other._a
            and self._b == other._b
        )

    def agrees_below(self, other: "LaurentSeries", order: int) -> int | None:
        """First exponent < order where the two differ, or None if they agree.

        Both series must be trusted through ``order``.
        """
        for s in (self, other):
            if s.order is not None and s.order < order:
                raise OrderExceeded(
                    f"series trusted only below q^{s.order}, cannot compare below q^{order}"
                )
        lo = [s.offset for s in (self, other) if s._a]
        if not lo:
            return None
        d1, d2 = self._den, other._den
        for e in range(min(lo), order):
            i = e - self.offset
            x, y = (self._a[i], self._b[i]) if 0 <= i < len(self._a) else (0, 0)
            j = e - other.offset
            u, v = (other._a[j], other._b[j]) if 0 <= j < len(other._a) else (0, 0)
            if x * d2 != u * d1 or y * d2 != v * d1:
                return e
        return None

    def __str__(self):
        parts = []
        for e, c in self.terms():
            cs = str(c)
            if not c.is_rational():
                cs = f"({cs})"
            parts.append(f"{cs}*q^{e}")
        body = " + ".join(parts) if parts else "0"
        if self.order is not None:
            body += f" + O(q^{self.order})"
        return body

    def __repr__(self):
        return f"<LaurentSeries offset={self.offset} terms={len(self._a)} order={self.order}>"


def _new(offset: int, a: list, b: list, den: int, order: int | None) -> LaurentSeries:
    """Series with numerators ``a``, ``b`` over ``den``, normalized."""
    s = object.__new__(LaurentSeries)
    s._store(offset, a, b, den, order)
    return s


# -- the binomial kernel ------------------------------------------------------------------
#
# A raw state (offset, a, b, den, order) is a series' fields as a plain tuple.
# Chained sums step and add raw states without building a LaurentSeries for
# every factor; the public binomial methods are one kernel call each.


def _raw(s: LaurentSeries) -> tuple:
    """The raw state of a series (its lists are shared, and never mutated)."""
    return s.offset, s._a, s._b, s._den, s.order


def _normal(offset: int, a: list, b: list, den: int, order: int | None) -> tuple:
    """A raw state in the series invariant: truncated, trimmed, reduced."""
    if order is not None and order - offset < len(a):
        keep = max(order - offset, 0)
        a, b = a[:keep], b[:keep]
    lo, hi = 0, len(a)
    while lo < hi and not a[lo] and not b[lo]:
        lo += 1
    while hi > lo and not a[hi - 1] and not b[hi - 1]:
        hi -= 1
    if hi == lo:
        return 0, [], [], 1, order
    if lo or hi < len(a):
        offset, a, b = offset + lo, a[lo:hi], b[lo:hi]
    if den != 1:
        g = gcd(den, *a, *b)
        if g != 1:
            den //= g
            a = [x // g for x in a]
            b = [y // g for y in b]
    return offset, a, b, den, order


def _plus(cap: int | None, *states) -> tuple:
    """The sum of raw states, trusted below the lowest of their orders and ``cap``."""
    order = min((o for o in (cap, *(s[4] for s in states)) if o is not None), default=None)
    parts = [s for s in states if s[1] and (order is None or s[0] < order)]
    if not parts:
        return 0, [], [], 1, order
    lo = min(s[0] for s in parts)
    hi = max(s[0] + len(s[1]) for s in parts)
    if order is not None:
        hi = min(hi, order)
    den = lcm(*(s[3] for s in parts))
    a, b = [0] * (hi - lo), [0] * (hi - lo)
    for offset, xs, ys, d, _ in parts:
        m, i = den // d, offset - lo
        j = min(i + len(xs), hi - lo)
        a[i:j] = [s + m * x for s, x in zip(a[i:j], xs)]
        b[i:j] = [s + m * y for s, y in zip(b[i:j], ys)]
    return _normal(lo, a, b, den, order)


def _binomials(state: tuple, muls=(), divs=(), cap: int | None = None,
               shift: int = 0, unit: tuple | None = None) -> tuple:
    """The raw state q^shift * unit * state * prod_muls (1 - c q^e) / prod_divs (1 - c q^e).

    Every factor comes split as (ca, cb, cd, e) with c = (ca + cb*w)/cd, and
    ``unit``, when given, as (ua, ub, ud).  The factors apply in turn, the
    multiplications first; a factor with c = 0 is 1.  The numerators stay
    over one growing denominator, and the result is normalized once.

    Multiplying by (1 - c q^e) with e > 0 truncates at the order; with e < 0
    it lowers the valuation and the order by -e; with e = 0 it scales by
    1 - c.  Dividing by it with e = 0 scales by 1/(1 - c), DivisionByZero
    when c = 1.  Otherwise the quotient is trusted below the lower of the
    order and ``cap``, and OrderExceeded is raised when both are None.  With
    e > 0 the recurrence g[j] = f[j] + c*g[j-e] runs entry by entry; with
    G_j = den * cd^(j // e) * g_j every step stays in Z[w]:

        G_j = cd^(j // e) * F_j + (ca + cb*w) * G_{j-e}.

    With e < 0 it first factors (1 - c q^e) = (-c q^e) * (1 - c^{-1} q^{-e}),
    which raises the valuation and the order by -e before the cap applies.
    """
    offset, a, b, den, order = state
    if shift:
        offset += shift
        if order is not None:
            order += shift
    if unit is not None:
        ua, ub, ud = unit
        a, b = _times(ua, ub, a, b) if ua or ub else ([], [])
        den *= ud
    for ca, cb, cd, e in muls:
        if not ca and not cb:
            continue
        if e == 0:  # the scalar (1 - c) = (cd - ca - cb*w) / cd
            ua, ub = cd - ca, -cb
            a, b = _times(ua, ub, a, b) if ua or ub else ([], [])
            den *= cd
            continue
        if e < 0 and order is not None:
            order += e  # the unknown tail times c*q^e reaches q^(order+e)
        if not a:
            continue
        n = len(a)
        fa, fb = _scaled(cd, a), _scaled(cd, b)  # f - c*q^e*f over den*cd
        if e > 0:
            size = n + e
            if order is not None:
                size = min(size, order - offset)
            k = size - e  # entries of c*q^e*f below the order
            na, nb = fa + [0] * (size - n), fb + [0] * (size - n)
            if k > 0:
                ta, tb = _times(ca, cb, a[:k], b[:k])
                na[e:] = [s - t for s, t in zip(na[e:], ta)]
                nb[e:] = [s - t for s, t in zip(nb[e:], tb)]
        else:
            ta, tb = _times(ca, cb, a, b)
            na, nb = [0] * (-e) + fa, [0] * (-e) + fb
            na[:n] = [s - t for s, t in zip(na, ta)]
            nb[:n] = [s - t for s, t in zip(nb, tb)]
            offset += e
            if order is not None and order - offset < len(na):
                na, nb = na[:order - offset], nb[:order - offset]
        a, b = na, nb
        den *= cd
    for ca, cb, cd, e in divs:
        if e == 0:  # the scalar cd / (x + y*w) = cd * (x - y - y*w) / norm
            x, y = cd - ca, -cb
            if not x and not y:
                raise DivisionByZero("division by the zero binomial (1 - 1)")
            a, b = _times(cd * (x - y), -cd * y, a, b)
            den *= x * x - x * y + y * y
            continue
        if not ca and not cb:
            continue
        if e < 0:
            # multiply by -1/c = -cd * (ca - cb - cb*w) / norm(c), then step by 1/c
            norm = ca * ca - ca * cb + cb * cb
            ca, cb, cd, e = cd * (ca - cb), -cd * cb, norm, -e
            a, b = _times(-ca, -cb, a, b)
            den *= cd
            offset += e
            if order is not None:
                order += e
        if order is None or (cap is not None and cap < order):
            order = cap
        if order is None:
            raise OrderExceeded(
                "dividing by (1 - c*q^e) yields an infinite series; a finite order is required"
            )
        length = order - offset
        if not a or length <= 0:
            a, b = [], []
            continue
        pad = [0] * (length - len(a))
        a, b = a[:length] + pad, b[:length] + pad
        cab = ca - cb
        if cd == 1 and not cb:
            for j in range(e, length):
                a[j] += ca * a[j - e]
                b[j] += ca * b[j - e]
        elif cd == 1:
            for j in range(e, length):
                x, y = a[j - e], b[j - e]
                a[j] += ca * x - cb * y
                b[j] += cb * x + cab * y
        else:
            top = (length - 1) // e
            powers = [cd ** k for k in range(top + 1)]
            for j in range(e, length):
                x, y, p = a[j - e], b[j - e], powers[j // e]
                a[j] = p * a[j] + ca * x - cb * y
                b[j] = p * b[j] + cb * x + cab * y
            a = [powers[top - j // e] * x for j, x in enumerate(a)]
            b = [powers[top - j // e] * y for j, y in enumerate(b)]
            den *= powers[top]
    return _normal(offset, a, b, den, order)


def _product_order(f: LaurentSeries, g: LaurentSeries):
    """Trusted order of f*g, accounting for valuations (see module docstring);
    a zero operand counts as valuation 0."""
    vf = 0 if f.is_zero() else f.offset
    vg = 0 if g.is_zero() else g.offset
    return min(_norm_order(f.order) + vg, _norm_order(g.order) + vf)


# -- q-Pochhammer products -----------------------------------------------------------


def _check_base(base: ParamValue):
    if base.exp < 1:
        raise InvalidBase(f"Pochhammer base must have positive q-exponent, got {base}")


def _zero_factor_index(a: ParamValue, base: ParamValue) -> int | None:
    """Index j >= 0 with a*base^j = 1 (the zero factor), or None.

    The factor exponent a.exp + j*base.exp must vanish, which pins down the
    only candidate j; then the accumulated coefficient must equal 1.
    """
    if a.exp > 0 or (-a.exp) % base.exp != 0:
        return None
    j = (-a.exp) // base.exp
    c = a.coeff
    if base.coeff != ONE:
        for _ in range(j):
            c = c * base.coeff
    return j if c == ONE else None


def _negative_slack(a: ParamValue, base: ParamValue, n: int | None = None) -> int:
    """Total of the negative exponents over the factors (1 - a*base^j), 0 <= j < n.

    All j >= 0 when n is None.  InvalidBase when base has no positive q-power:
    the family never leaves the negative exponents then.
    """
    _check_base(base)
    slack = 0
    e = a.exp
    j = 0
    while e < 0 and (n is None or j < n):
        slack -= e
        e += base.exp
        j += 1
    return slack


def _factors(a: ParamValue, base: ParamValue, count: int | None = None,
             below: int | None = None) -> list:
    """The factors (1 - a*base^j), j = 0, 1, ..., split for the kernel as
    (ca, cb, cd, e): the first ``count`` of them (all when None) that have
    e <= 0 or e < ``below``.  A coefficient is split again only when the
    base's coefficient changes it.  The base must have a positive q-power
    unless ``count`` is given."""
    out, c, e = [], a.coeff, a.exp
    part, step = _split(c), None if base.coeff == ONE else base.coeff
    while (count is None or len(out) < count) and (e <= 0 or below is None or e < below):
        out.append((*part, e))
        if step is not None:
            c = c * step
            part = _split(c)
        e += base.exp
    return out


def _poch(a: ParamValue, base: ParamValue, n: int | None, order: int | None,
          invert: bool) -> LaurentSeries:
    """(a; base)_n, or its inverse, in one kernel call; n None is the infinite
    product.  Only factors that touch exponents below ``order`` are applied:
    the leading factors with e < 0 move the valuation by the slack s, to -s
    for the product and to s for the inverse, and a later factor with e > 0
    changes nothing below e + valuation."""
    if order is None:
        if invert:
            raise OrderExceeded("an inverse Pochhammer product needs a finite truncation order")
        return _new(*_binomials(_raw(LaurentSeries.one()), muls=_factors(a, base, n)))
    slack = _negative_slack(a, base, n)
    if invert:
        state = _binomials(_raw(LaurentSeries.one(order)),
                           divs=_factors(a, base, n, order - slack), cap=order)
    else:
        state = _binomials(_raw(LaurentSeries.one(order + slack)),
                           muls=_factors(a, base, n, order + slack))
    return _new(*state).truncate(order)


def poch_finite(a: ParamValue, base: ParamValue, n: int,
                order: int | None = None) -> LaurentSeries:
    """The finite product (a; base)_n = prod_{j=0}^{n-1} (1 - a*base^j).

    Exact (order=None) unless an order is requested.  Raises ZeroFactor if
    some factor vanishes identically, i.e. a*base^j = 1 for some 0 <= j < n.
    """
    _check_base(base)
    if n < 0:
        raise ValueError("poch_finite needs n >= 0; negative ranges are handled upstream")
    j0 = _zero_factor_index(a, base)
    if j0 is not None and j0 < n:
        raise ZeroFactor(f"({a}; {base})_{n}: factor j={j0} is (1 - 1)")
    return _poch(a, base, n, order, invert=False)


def poch_finite_inv(a: ParamValue, base: ParamValue, n: int, order: int) -> LaurentSeries:
    """1 / (a; base)_n, truncated below ``order``.

    Raises ZeroFactor on a factor (1 - a*base^j) = 0 within range; factors
    with negative exponents are fine (they just shift the valuation).
    """
    _check_base(base)
    if n < 0:
        raise ValueError("poch_finite_inv needs n >= 0")
    j0 = _zero_factor_index(a, base)
    if j0 is not None and j0 < n:
        raise ZeroFactor(f"1/(({a}; {base})_{n}): factor j={j0} is (1 - 1)")
    return _poch(a, base, n, order, invert=True)


def poch_infinite(a: ParamValue, base: ParamValue, order: int) -> LaurentSeries:
    """The infinite product (a; base)_infinity, truncated below ``order``.

    Only factors that can touch exponents below ``order`` are multiplied in;
    with base exponent >= 1 that is finitely many.  Raises ZeroFactor when
    a*base^j = 1 for some j >= 0 (the product is then identically zero).
    """
    _check_base(base)
    if order is None:
        raise OrderExceeded("poch_infinite requires a finite truncation order")
    if _zero_factor_index(a, base) is not None:
        raise ZeroFactor(f"({a}; {base})_inf vanishes identically")
    return _poch(a, base, None, order, invert=False)


def poch_infinite_inv(a: ParamValue, base: ParamValue, order: int) -> LaurentSeries:
    """1 / (a; base)_infinity, truncated below ``order``."""
    _check_base(base)
    if _zero_factor_index(a, base) is not None:
        raise ZeroFactor(f"1/(({a}; {base})_inf) divides by an identically zero factor")
    return _poch(a, base, None, order, invert=True)
