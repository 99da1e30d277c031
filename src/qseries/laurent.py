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

and touch no rational arithmetic.  A scalar c in Q(w) enters a kernel as
the integers (ca + cb*w) / cd that ``CycRat`` (coeffring) stores, read off
as they are.  CycRat stays the scalar type at the API edge: the
constructor, ``from_terms`` and ``monomial`` take CycRat values, and
``coeff``, ``terms`` and the read-only ``coeffs`` view hand them out, each
built from a numerator pair and the denominator on read.

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
implementation.  It takes a series and applies a shift, a scalar and any
number of multiplications and divisions by binomials whose c arrives already
split into integers, working on the integer lists and building one
normalized series at the end:

    multiplying by (1 - c*q^e) is one pass over the data;
    dividing by it is the forward recurrence g[j] = f[j] + c*g[j-e],
    run entry by entry, also linear time.

The kernel works on the numerator lists it needs: the 1-parts alone while
the series and every binomial step so far are rational (the catalog's eta
quotients have only +-1 parameters), both lists from the first step with a
w-part on; the stored series always has both.  The scalars (the unit and
every factor with e = 0) fold into one and apply last, so scalars that are
rational in total keep a rational series on one list.  A factor that touches
nothing below the order is skipped, and the kernel can add a second series
to its result before normalizing, which is how the chained sums add.

The parameters of the paper's products come with their reciprocals, and at
a root of unity c the reciprocal is the conjugate, so w-factors meet their
conjugates at the same exponent.  ``_paired`` turns such a pair into
rational factors,

    (1 - c x)(1 - conj(c) x) = (1 - s x^3) / (1 - s x),   s = -(c + conj(c)),

once per product term or summation step, before the kernel sees it; the
kernel does no pairing of its own.

``mul_one_minus`` and ``div_one_minus`` are one kernel call each, and so is
every Pochhammer builder: (a; q)_n, (a; q)_infinity and their inverses are
thin wrappers over one checked builder, ``_poch``, which runs the base, range,
order and zero-factor checks once, splits the factors once and normalizes
once, at O(n * order) instead of the O(order^2) of repeated general
multiplication.  The facts about a family (1 - a*base^j) that the checks and
the order rule need, its vanishing factor and the slack of its negative
exponents, are read off the same split factors (``_factors``).  The
chained-sum driver in ``vwp`` steps its partial sums through the kernel on
pre-split factors, one series per kernel call rather than one per factor.

``inverse`` divides by a general series with plain forward substitution on
CycRat values.  The library divides only by binomials, so ``inverse`` is the
reference the tests hold the kernel's divisions to.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd, lcm
from operator import add, itemgetter, sub

from .coeffring import ZERO, ONE, CycRat, DivisionByZero, _reduced

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


def _lowest(*orders: int | None) -> int | None:
    """The lowest of the finite ``orders``; None (exact) when every one is None."""
    return min((o for o in orders if o is not None), default=None)


# -- integer Z[w] helpers --------------------------------------------------------------


def _split(c) -> tuple[int, int, int]:
    """Integers (ca, cb, cd) with c = (ca + cb*w) / cd, cd > 0 and gcd 1:
    the triple CycRat stores."""
    return (c if isinstance(c, CycRat) else CycRat(c))._xyd


def _scaled(m: int, xs: list) -> list:
    """The list m*xs (xs itself when m is 1; lists are never mutated once stored)."""
    return xs if m == 1 else [m * x for x in xs]


def _zw(x: int, y: int, u: int, v: int) -> tuple[int, int]:
    """The product (x + y*w)(u + v*w) in Z[w], as its two integer parts."""
    return x * u - y * v, x * v + y * u - y * v


def _times(ca: int, cb: int, parts: list) -> list:
    """Numerator lists of (ca + cb*w) * (x + y*w), entry by entry.

    ``parts`` is [xs] for a rational operand (every y is 0) or [xs, ys]; the
    result is one list only when both the operand and the scalar are rational.
    """
    if not cb:
        return parts if ca == 1 else [[ca * x for x in xs] for xs in parts]
    xs = parts[0]
    if len(parts) == 1:
        return [_scaled(ca, xs), _scaled(cb, xs)]
    cab = ca - cb
    return [[ca * x - cb * y for x, y in zip(xs, parts[1])],
            [cb * x + cab * y for x, y in zip(xs, parts[1])]]


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
        return _reduced(s._a[i], s._b[i], s._den)

    def __iter__(self):
        s = self._series
        for x, y in zip(s._a, s._b):
            yield _reduced(x, y, s._den)


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
        """Normalize numerators ``a``, ``b`` over ``den`` into the invariant:
        truncated at the order, trimmed of zero pairs, reduced."""
        if order is not None and order - offset < len(a):
            keep = max(order - offset, 0)
            a, b = a[:keep], b[:keep]
        lo, hi = 0, len(a)
        while lo < hi and not a[lo] and not b[lo]:
            lo += 1
        while hi > lo and not a[hi - 1] and not b[hi - 1]:
            hi -= 1
        if hi == lo:
            offset, a, b, den = 0, [], [], 1
        else:
            if lo or hi < len(a):
                offset, a, b = offset + lo, a[lo:hi], b[lo:hi]
            if den != 1:
                g = gcd(den, *a, *b)
                if g != 1:
                    den //= g
                    a = [x // g for x in a]
                    b = [y // g for y in b]
        self.offset, self._a, self._b, self._den, self.order = offset, a, b, den, order

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
            return _reduced(self._a[i], self._b[i], self._den)
        return ZERO

    def terms(self):
        """Iterate (exponent, coefficient) over nonzero stored terms."""
        for i, (x, y) in enumerate(zip(self._a, self._b)):
            if x or y:
                yield self.offset + i, _reduced(x, y, self._den)

    # -- order management -------------------------------------------------------

    def truncate(self, order: int) -> "LaurentSeries":
        """Restrict to coefficients below ``order`` (order can only shrink)."""
        return _new(self.offset, self._a, self._b, self._den, _lowest(self.order, order))

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
        return _plus(None, self, other)

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
        a, b = _times(ca, cb, [self._a, self._b])
        return _new(self.offset, a, b, self._den * cd, self.order)

    def shift(self, e: int) -> "LaurentSeries":
        """Multiply by the exact monomial q^e."""
        order = None if self.order is None else self.order + e
        return _new(self.offset + e, self._a, self._b, self._den, order)

    # -- multiplicative structure --------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order = _product_order(self, other)
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
        return _binomials(self, muls=((*_split(c), e),))

    def div_one_minus(self, c: CycRat, e: int, order: int | None = None) -> "LaurentSeries":
        """Divide by (1 - c*q^e) via the forward recurrence g[j] = f[j] + c*g[j-e].

        For e >= 1 the quotient is an honest power series times q^offset; for
        e <= -1 we first factor (1 - c*q^e) = (-c*q^e) * (1 - c^{-1} q^{-e}).
        The result needs a finite order: pass one, or the receiver must
        already carry one.
        """
        return _binomials(self, divs=((*_split(c), e),), cap=order)

    def inverse(self, order: int | None = None) -> "LaurentSeries":
        """Multiplicative inverse by forward substitution in Q(w).

        With f = q^v * sum_i F_i q^i and F_0 != 0, the inverse is
        q^(-v) * sum_j H_j q^j, where

            H_0 = 1/F_0,  H_j = -H_0 * sum_{i>=1} F_i H_{j-i}.

        Trusted range: order(f) - 2v (each side of the convolution shifts by
        the valuation), or ``order`` when that is lower.  A monomial has an
        exact inverse; any other exact series needs a finite order.

        The recurrence runs on CycRat values and skips the zero F_i.  It is a
        plain reference: the library divides only by binomials, in the kernel.
        """
        if not self._a:
            raise DivisionByZero("inverse of the zero series")
        v = self.offset
        target = _lowest(None if self.order is None else self.order - 2 * v, order)
        if target is None and len(self._a) != 1:
            raise OrderExceeded(
                "inverse of a non-monomial polynomial is an infinite series; "
                "a finite order is required"
            )
        n = 1 if target is None else target + v  # result exponents -v .. target-1
        f = list(self.coeffs)[:max(n, 1)]
        h = [f[0].inverse()]
        for j in range(1, n):
            s = sum((x * y for x, y in zip(f[1:j + 1], reversed(h)) if x), ZERO)
            h.append(-h[0] * s)
        return LaurentSeries(-v, h, target)

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


def _parts(s: LaurentSeries) -> list:
    """The numerator lists the kernel works on: [a] for a rational series, else [a, b]."""
    return [s._a, s._b] if any(s._b) else [s._a]


def _built(offset: int, parts: list, den: int, order: int | None) -> LaurentSeries:
    """The normalized series with numerator lists ``parts`` over ``den``."""
    a = parts[0]
    return _new(offset, a, parts[1] if len(parts) > 1 else [0] * len(a), den, order)


def _sum(order: int | None, pieces) -> LaurentSeries:
    """The sum of ``pieces`` (offset, parts, den) below ``order``, on one list when
    every piece is rational."""
    lo = hi = None
    den, width, kept = 1, 1, []
    for offset, parts, d in pieces:
        if parts[0] and (order is None or offset < order):
            end = offset + len(parts[0])
            lo, hi = (offset, end) if lo is None else (min(lo, offset), max(hi, end))
            den, width = lcm(den, d), max(width, len(parts))
            kept.append((offset, parts, d))
    if lo is None:
        return _new(0, [], [], 1, order)
    if order is not None:
        hi = min(hi, order)
    out = [[0] * (hi - lo) for _ in range(width)]
    for offset, parts, d in kept:
        m, i = den // d, offset - lo
        j = min(i + len(parts[0]), hi - lo)
        for acc, xs in zip(out, parts):
            acc[i:j] = map(add, acc[i:j], _scaled(m, xs))
    return _built(lo, out, den, order)


def _plus(cap: int | None, *terms: LaurentSeries) -> LaurentSeries:
    """The sum of ``terms``, trusted below the lowest of their orders and ``cap``.
    It adds the 1-parts alone when every term is rational."""
    return _sum(_lowest(cap, *(s.order for s in terms)),
                [(s.offset, _parts(s), s._den) for s in terms])


def _binomials(f: LaurentSeries, muls=(), divs=(), cap: int | None = None,
               shift: int = 0, unit: tuple | None = None,
               plus: LaurentSeries | None = None) -> LaurentSeries:
    """The series q^shift * unit * f * prod_muls (1 - c q^e) / prod_divs (1 - c q^e),
    plus the series ``plus`` when given.

    Every factor comes split as (ca, cb, cd, e) with c = (ca + cb*w)/cd, and
    ``unit``, when given, as (ua, ub, ud).  The binomial steps (e != 0) apply
    in turn, the multiplications first; a factor with c = 0 is 1.  The
    scalars (the unit and every factor with e = 0) fold into one Z[w]
    numerator over an integer denominator that multiplies the series after
    the steps, so a product of scalars that is rational in total (the C and
    D helpers of vwp) never gives the series a w-part.  The numerators stay
    over one growing denominator, and the result is normalized once, when
    the series is built.  They are one list, the 1-parts, while f and the
    steps so far are rational; the first step with a w-part adds the list of
    w-parts, and so does a scalar with one.

    Multiplying by (1 - c q^e) with e > 0 truncates at the order; with e < 0
    it lowers the valuation and the order by -e; with e = 0 it scales by
    1 - c, and a zero scalar makes the series 0 at once.  Dividing by it
    with e = 0 scales by 1/(1 - c), DivisionByZero when c = 1, raised where
    the factor stands among the divisions.  Otherwise the quotient is
    trusted below the lower of the order and ``cap``, and OrderExceeded is
    raised when both are None.  With e > 0 the recurrence
    g[j] = f[j] + c*g[j-e] runs entry by entry; with
    G_j = den * cd^(j // e) * g_j every step stays in Z[w]:

        G_j = cd^(j // e) * F_j + (ca + cb*w) * G_{j-e}.

    With e < 0 it first factors (1 - c q^e) = (-c q^e) * (1 - c^{-1} q^{-e}),
    which raises the valuation and the order by -e before the cap applies;
    the scalar takes the -1/c.  A factor that changes no coefficient below the
    order is skipped without copying a list: a multiplication with
    e >= order - offset, and a division whose e (positive once factored) is
    at least the length below the order.

    With ``plus`` the result is _plus(cap, plus, the product), summed before
    the product is normalized, so the pair is normalized once.
    """
    offset, den, order = f.offset, f._den, f.order
    parts = _parts(f)
    if shift:
        offset += shift
        if order is not None:
            order += shift
    sa, sb, sd = (1, 0, 1) if unit is None else unit  # the scalar (sa + sb*w) / sd
    if not sa and not sb:
        parts = [[]]
    for ca, cb, cd, e in muls:
        if not ca and not cb:
            continue
        if e == 0:  # the scalar (1 - c) = (cd - ca - cb*w) / cd
            if ca == cd and not cb:
                parts = [[]]
            sa, sb = _zw(sa, sb, cd - ca, -cb)
            sd *= cd
            continue
        if e < 0 and order is not None:
            order += e  # the unknown tail times c*q^e reaches q^(order+e)
        n = len(parts[0])
        if not n or (order is not None and e >= order - offset):
            continue  # every entry of c*q^e*f lies at or above the order
        # c*f: added when c = -1, else scaled (promoting a rational f) and subtracted
        terms, op = (parts, add) if ca == -1 and not cb else (_times(ca, cb, parts), sub)
        if len(terms) > len(parts):
            parts = [parts[0], [0] * n]
        if e > 0:
            pad = [0] * ((n + e if order is None else min(n + e, order - offset)) - n)
        new = []
        for xs, ts in zip(parts, terms):  # f - c*q^e*f over den*cd
            if e > 0:
                ys = _scaled(cd, xs) + pad
                ys[e:] = map(op, ys[e:], ts)
            else:
                ys = [0] * -e + _scaled(cd, xs)
                ys[:n] = map(op, ys, ts)
            new.append(ys)
        parts = new
        den *= cd
        if e < 0:
            offset += e
            if order is not None and order - offset < len(new[0]):
                parts = [ys[:order - offset] for ys in new]
    for ca, cb, cd, e in divs:
        if e == 0:  # the scalar cd / (x + y*w) = cd * (x - y - y*w) / norm
            x, y = cd - ca, -cb
            if not x and not y:
                raise DivisionByZero("division by the zero binomial (1 - 1)")
            sa, sb = _zw(sa, sb, cd * (x - y), -cd * y)
            sd *= x * x - x * y + y * y
            continue
        if not ca and not cb:
            continue
        if e < 0:
            # the scalar -1/c = -cd * (ca - cb - cb*w) / norm(c), then step by 1/c
            norm = ca * ca - ca * cb + cb * cb
            ca, cb, cd, e = cd * (ca - cb), -cd * cb, norm, -e
            sa, sb = _zw(sa, sb, -ca, -cb)
            sd *= cd
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
        n = len(parts[0])
        if not n or length <= 0:
            parts = [[]]
            continue
        if e >= length:
            continue  # g[j] = f[j] for every j below the order
        if cb and len(parts) == 1:
            parts = [parts[0], [0] * n]
        if cd != 1:
            top = (length - 1) // e
            powers = [cd ** k for k in range(top + 1)]
        pad, new = [0] * (length - n), []
        for xs in parts:
            xs = xs[:length] + pad
            if cd != 1:  # the cd^(j // e) * F_j of the recurrence
                xs = [powers[j // e] * x for j, x in enumerate(xs)]
            if not cb:  # a rational c steps each list on its own
                for j in range(e, length):
                    xs[j] += ca * xs[j - e]
            new.append(xs)
        if cb:
            a, b = new
            cab = ca - cb
            for j in range(e, length):
                x, y = a[j - e], b[j - e]
                a[j] += ca * x - cb * y
                b[j] += cb * x + cab * y
        parts = new
        if cd != 1:
            parts = [[powers[top - j // e] * x for j, x in enumerate(xs)] for xs in new]
            den *= powers[top]
    parts = _times(sa, sb, parts)
    den *= sd
    if plus is None:
        return _built(offset, parts, den, order)
    return _sum(_lowest(cap, plus.order, order),
                [(plus.offset, _parts(plus), plus._den), (offset, parts, den)])


#: The four roots c = w, w^2, -w, -w^2, split as (ca, cb, cd), each mapped to
#: its conjugate, split alike, and the sign s = -(c + conj(c)).
_CONJUGATES = {(0, 1, 1): ((-1, -1, 1), 1), (-1, -1, 1): ((0, 1, 1), 1),
               (0, -1, 1): ((1, 1, 1), -1), (1, 1, 1): ((0, -1, 1), -1)}


def _paired(muls, divs) -> tuple[list, list]:
    """Kernel factors ``muls`` and ``divs`` with each pair of conjugate roots of
    unity at the same exponent e != 0 made rational by

        (1 - c q^e)(1 - conj(c) q^e) = (1 - s q^(3e)) / (1 - s q^e):

    a pair of multiplications becomes the multiplication by (1 - s q^(3e))
    and the division by (1 - s q^e), a pair of divisions the reverse.  The
    first factor of a pair makes way for the factor at 3e, which keeps the
    place of the first division with e != 0, where the kernel raises
    OrderExceeded.  At e = 0 the pair is the scalar 3 or 1 and the quotient
    0/0, so those factors stay as they are; the kernel folds them into its
    scalar.

    The kernel takes the result to the same series below the same order
    when the operand has a finite order; its cap then applies also where
    only multiplications were paired.  An exact operand may take paired
    divisions only: a paired multiplication divides, which needs an order.
    """
    if not any(map(itemgetter(1), muls)) and not any(map(itemgetter(1), divs)):
        return muls, divs  # rational factors, the catalog's eta quotients
    new = ([], [])
    for kind, factors in enumerate((muls, divs)):
        same, other, waiting = new[kind], new[1 - kind], {}
        for factor in factors:
            conj = _CONJUGATES.get(factor[:3]) if factor[1] and factor[3] else None
            if conj is None:
                same.append(factor)
                continue
            partner, s = conj
            e = factor[3]
            open_ = waiting.get((partner, e))
            if open_:
                same[open_.pop()] = (s, 0, 1, 3 * e)
                other.append((s, 0, 1, e))
            else:
                waiting.setdefault((factor[:3], e), []).append(len(same))
                same.append(factor)
    return new


def _product_order(f: LaurentSeries, g: LaurentSeries) -> int | None:
    """Trusted order of f*g, accounting for valuations (see module docstring);
    a zero operand counts as valuation 0."""
    vf = 0 if f.is_zero() else f.offset
    vg = 0 if g.is_zero() else g.offset
    return _lowest(None if f.order is None else f.order + vg,
                   None if g.order is None else g.order + vf)


# -- q-Pochhammer products -----------------------------------------------------------


def _check_base(base: ParamValue):
    if base.exp < 1:
        raise InvalidBase(f"Pochhammer base must have positive q-exponent, got {base}")


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


def _zero_factor_index(a: ParamValue, base: ParamValue) -> int | None:
    """Index j >= 0 with a*base^j = 1 (the zero factor), or None.

    Only a factor at q^0 can vanish, and the factors with e <= 0 come first.
    Listing them needs a base with a positive q-power: InvalidBase otherwise.
    """
    if a.exp > 0:
        return None
    _check_base(base)
    return next((j for j, factor in enumerate(_factors(a, base, below=0))
                 if factor == (1, 0, 1, 0)), None)


def _negative_slack(a: ParamValue, base: ParamValue, n: int | None = None) -> int:
    """Total of the negative exponents over the factors (1 - a*base^j), 0 <= j < n.

    All j >= 0 when n is None.  InvalidBase when base has no positive q-power:
    the family never leaves the negative exponents then.
    """
    _check_base(base)
    if a.exp >= 0:
        return 0
    return -sum(e for *_, e in _factors(a, base, n, below=0))


def _poch(a: ParamValue, base: ParamValue, n: int | None, order: int | None,
          invert: bool) -> LaurentSeries:
    """(a; base)_n, or its inverse, in one kernel call; n None is the infinite
    product.  The checks run in turn: InvalidBase for the base, ValueError
    for n < 0, OrderExceeded for an infinite product without an order,
    ZeroFactor for a factor (1 - 1) among the n, OrderExceeded for an
    inverse without an order.

    Only factors that touch exponents below ``order`` are applied: the
    leading factors with e < 0 move the valuation by the slack s, to -s for
    the product and to s for the inverse, and a later factor with e > 0
    changes nothing below e + valuation."""
    _check_base(base)
    if n is not None and n < 0:
        raise ValueError(f"a finite Pochhammer product needs n >= 0, got n={n}")
    if order is None and n is None and not invert:
        raise OrderExceeded("an infinite Pochhammer product needs a finite truncation order")
    j0 = _zero_factor_index(a, base)
    if j0 is not None and (n is None or j0 < n):
        raise ZeroFactor(f"{'1/' if invert else ''}({a}; {base})_{'inf' if n is None else n}:"
                         f" factor j={j0} is (1 - 1)")
    if order is None:
        if invert:
            raise OrderExceeded("an inverse Pochhammer product needs a finite truncation order")
        return _binomials(LaurentSeries.one(), muls=_factors(a, base, n))
    slack = _negative_slack(a, base, n)
    if invert:
        return _binomials(LaurentSeries.one(order),
                          divs=_factors(a, base, n, order - slack), cap=order)
    return _binomials(LaurentSeries.one(order + slack),
                      muls=_factors(a, base, n, order + slack))


def poch_finite(a: ParamValue, base: ParamValue, n: int,
                order: int | None = None) -> LaurentSeries:
    """The finite product (a; base)_n = prod_{j=0}^{n-1} (1 - a*base^j).

    Exact (order=None) unless an order is requested.  Raises ZeroFactor if
    some factor vanishes identically, i.e. a*base^j = 1 for some 0 <= j < n.
    """
    return _poch(a, base, n, order, invert=False)


def poch_finite_inv(a: ParamValue, base: ParamValue, n: int, order: int) -> LaurentSeries:
    """1 / (a; base)_n, truncated below ``order``.

    Raises ZeroFactor on a factor (1 - a*base^j) = 0 within range; factors
    with negative exponents are fine (they just shift the valuation).
    """
    return _poch(a, base, n, order, invert=True)


def poch_infinite(a: ParamValue, base: ParamValue, order: int) -> LaurentSeries:
    """The infinite product (a; base)_infinity, truncated below ``order``.

    Only factors that can touch exponents below ``order`` are multiplied in;
    with base exponent >= 1 that is finitely many.  Raises ZeroFactor when
    a*base^j = 1 for some j >= 0 (the product is then identically zero).
    """
    return _poch(a, base, None, order, invert=False)


def poch_infinite_inv(a: ParamValue, base: ParamValue, order: int) -> LaurentSeries:
    """1 / (a; base)_infinity, truncated below ``order``."""
    return _poch(a, base, None, order, invert=True)
