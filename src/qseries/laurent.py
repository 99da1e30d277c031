"""Truncated Laurent series in q over Q(w), plus q-Pochhammer products.

A series is stored densely over one common denominator: an integer
``offset`` (the exponent of the first stored coefficient, possibly negative),
the numerator lists ``parts``, a positive int ``den``, and an ``order``.
``parts`` is [a] when every coefficient is rational and [a, b] otherwise,
lists of Python ints holding the 1-parts a and the w-parts b of the
numerators, so the coefficient of q^(offset + i) is

    (a[i] + b[i]*w) / den,   b[i] = 0 when there is no list b.

``order = N`` means the coefficients are trusted exactly for all exponents
< N and unknown from N on; ``order = None`` means the series is an exact
Laurent polynomial with no unknown tail.

The series kernels run in Z[w] on those integer lists, with the product rule

    (x + y*w)(u + v*w) = (xu - yv) + (xv + yu - yv)*w,

and touch no rational arithmetic.  A scalar c in Q(w) enters a kernel as
the integers (ca + cb*w) / cd that ``CycRat`` (coeffring) stores, read off
as they are; the Z[w] product and reciprocal of such integers are
coeffring's ``_zw`` and ``_reciprocal``.  CycRat stays the scalar type at
the API edge: the constructor, ``from_terms`` and ``monomial`` take CycRat
values, and ``coeff``, ``terms`` and ``coeffs`` (a tuple) hand them out,
each built from a numerator pair and the denominator on read.  An order is
an int or None and an exponent an int, checked where the series is stored,
a shift, a binomial or an order enters or a coefficient is read; a
Pochhammer length is an int count.  ``_as_int`` is the one check, for these
and for the counts, indices and weights of ``vwp`` and ``combinat``: a
TypeError names the kind expected and the type given.

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
implementation.  It takes a raw kernel state and applies a shift, a scalar
and any number of multiplications and divisions by binomials whose c arrives
already split into integers, working on the integer lists:

    multiplying by (1 - c*q^e) is one pass over the data;
    dividing by it is the forward recurrence g[j] = f[j] + c*g[j-e],
    run entry by entry, also linear time.

The kernel works on the numerator lists it needs: the 1-parts alone while
the series and every binomial step so far are rational (the catalog's eta
quotients have only +-1 parameters), both lists from the first step with a
w-part on.  The scalars (the unit and every factor with e = 0) fold into
one and apply last, so scalars that are rational in total keep a rational
series on one list.  A factor that touches nothing below the order is
skipped.

The kernel also applies powers of Euler's product (q^u; q^u)_inf, the eta
quotients that ``vwp`` rewrites the catalog's Pochhammer powers into.  By
the pentagonal theorem it is sum_k (-1)^k q^(u k(3k-1)/2), with about
2*sqrt(2N/3u) terms below q^N (``_pentagonal``): multiplying by it is one
shifted list add per term, and dividing by it is forward substitution over
those terms only, O(N^1.5) entry steps where its N/u binomials take
O(N^2/u).

A kernel state is the tuple (offset, parts, den, order) the kernel works
on, in the layout a series stores, and a series is a normalized state: the
kernel takes one (``_state`` reads a series' fields) and returns one, and
``_built`` normalizes a state into a series, dropping a list of w-parts
that came out zero.  A state is not normalized: it may carry zero entries
at either end, and its lists may run past an order that was lowered; only
its denominator is kept in lowest terms, so that the numbers stay as small
as a series' would.  The kernel can add a second state, the addend,
straight into the lists it has just built, padding them where the addend
starts lower or ends higher (``_added``), and that is the only way two
series are added: ``+``, ``-`` and ``agrees_below`` are one kernel call on
the other operand's state, the receiver's state as the addend.  The chained
sums and product sums of ``vwp`` step their partial sums through the kernel
as states, each step adding the previous partial sum in place.  ``_required``
sets a state's order after the check that ``require_order`` makes, so each
sum, like every other result, is built into a series once.

The parameters of the paper's products come with their reciprocals, and at
a root of unity c the reciprocal is the conjugate, so w-factors meet their
conjugates at the same exponent.  ``_paired`` turns such a pair into
rational factors,

    (1 - c x)(1 - conj(c) x) = (1 - s x^3) / (1 - s x),   s = -(c + conj(c)),

once per product term or summation step, before the kernel sees it; the
kernel does no pairing of its own.

``scale``, ``shift``, negation, ``mul_one_minus`` and ``div_one_minus`` are
one kernel call each, and so is every Pochhammer builder: (a; q)_n,
(a; q)_infinity and their inverses are thin wrappers over one checked
builder, ``_poch``, which runs the base, range, order and zero-factor checks
once, splits the factors once and normalizes once, at O(n * order) instead
of the O(order^2) of repeated general multiplication.  The facts about a
family (1 - a*base^j) that the checks and the order rule need, its
vanishing factor and the slack of its negative exponents, are read off the
same split factors (``_factors``).  Each of them still builds and returns a
normalized series.  They list every factor, so the tests hold the kernel's
sparse eta steps to them.

``inverse`` divides by a general series with plain forward substitution on
CycRat values.  The library divides only by binomials, so ``inverse`` is the
reference the tests hold the kernel's divisions to.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd, lcm
from operator import add, itemgetter, sub

from .coeffring import ZERO, ONE, CycRat, DivisionByZero, _reciprocal, _reduced, _zw

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


def _as_int(value, what: str) -> int:
    """``value`` as an int, an int subclass such as bool as its int; TypeError
    naming ``what`` and the type of anything else, so no float stands in for
    an exponent, an order, a count, an index or a weight.  The one int check
    of the package: an int comes back at once."""
    if type(value) is int:
        return value
    if not isinstance(value, int):
        raise TypeError(f"expected an int {what}, got {type(value).__name__}: {value!r}")
    return int(value)


def _as_order(order) -> int | None:
    """``order`` as an int (``_as_int``), or None for an exact series."""
    return None if order is None else _as_int(order, "order")


@dataclass(frozen=True)
class ParamValue:
    """A monomial parameter c * q^e with c in Q(w), c != 0.

    These are the values substituted for the free parameters of the series
    identities: roots of unity, their negatives, and +/- powers of q.
    """

    coeff: CycRat
    exp: int = 0

    def __post_init__(self):
        if type(self.exp) is not int:
            object.__setattr__(self, "exp", _as_int(self.exp, "exponent"))
        if not isinstance(self.coeff, CycRat):
            object.__setattr__(self, "coeff", CycRat(self.coeff))
        if not self.coeff:
            raise ValueError("parameter value must be nonzero")

    def inv(self) -> "ParamValue":
        """The reciprocal parameter 1/(c*q^e) = c^{-1} * q^{-e}, a new value
        computed on each call (one CycRat inverse)."""
        return ParamValue(self.coeff.inverse(), -self.exp)

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
    the triple CycRat stores, read off an int at once."""
    if type(c) is int:
        return c, 0, 1
    return (c if isinstance(c, CycRat) else CycRat(c))._xyd


def _scaled(m: int, xs: list) -> list:
    """The list m*xs (xs itself when m is 1; lists are never mutated once stored)."""
    return xs if m == 1 else [m * x for x in xs]


def _cancelled(den: int, parts) -> tuple:
    """``den`` and the numerator lists ``parts`` divided by their gcd."""
    g = gcd(den, *chain.from_iterable(parts))
    if g == 1:
        return den, parts
    return den // g, [[x // g for x in xs] for xs in parts]


def _times(ca: int, cb: int, parts: list) -> list:
    """Numerator lists of (ca + cb*w) * (x + y*w), entry by entry.

    ``parts`` is [xs] for a rational operand (every y is 0) or [xs, ys]; the
    result is one list only when both the operand and the scalar are rational.
    It is ``parts`` itself for the scalar 1 and new lists otherwise, none
    shared, so the kernel may add its addend into them.
    """
    if not cb:
        return parts if ca == 1 else [[ca * x for x in xs] for xs in parts]
    xs = parts[0]
    if len(parts) == 1:
        return [[ca * x for x in xs], [cb * x for x in xs]]
    cab = ca - cb
    return [[ca * x - cb * y for x, y in zip(xs, parts[1])],
            [cb * x + cab * y for x, y in zip(xs, parts[1])]]


class LaurentSeries:
    """Dense truncated Laurent series over Q(w), on integer numerators.

    Internal invariant, which makes equal series store equal data: the
    numerator lists ``_parts`` are [a] when every w-part is 0 and [a, b]
    otherwise, with no entry at either end that is zero in every list (the
    zero series has [[]], offset 0 and denominator 1), the denominator
    ``_den`` is positive and coprime to every numerator, and every stored
    exponent is below ``order`` when the order is finite.  Stored lists are
    never mutated, so series and kernel states share them freely.
    """

    __slots__ = ("offset", "order", "_parts", "_den")

    def __init__(self, offset: int, coeffs, order: int | None = None):
        split = [_split(c) for c in coeffs]
        den = lcm(*(cd for _, _, cd in split))
        self._store(offset,
                    [[ca * (den // cd) for ca, _, cd in split],
                     [cb * (den // cd) for _, cb, cd in split]],
                    den, order)

    def _store(self, offset: int, parts: list, den: int, order: int | None):
        """Normalize the numerator lists ``parts`` over ``den`` into the
        invariant: truncated at the order, a list of w-parts that is all zero
        dropped, trimmed of the entries zero in every list, reduced.  The
        offset and an order that is not None must be ints."""
        offset, order = _as_int(offset, "exponent"), _as_order(order)
        if order is not None and order - offset < len(parts[0]):
            keep = max(order - offset, 0)
            parts = [xs[:keep] for xs in parts]
        if len(parts) > 1 and not any(parts[1]):
            parts = parts[:1]
        nonzero = parts[0] if len(parts) == 1 else [x or y for x, y in zip(*parts)]
        lo, hi = 0, len(nonzero)
        while lo < hi and not nonzero[lo]:
            lo += 1
        while hi > lo and not nonzero[hi - 1]:
            hi -= 1
        if hi == lo:
            offset, parts, den = 0, [[]], 1
        else:
            if lo or hi < len(nonzero):
                offset, parts = offset + lo, [xs[lo:hi] for xs in parts]
            if den != 1:
                den, parts = _cancelled(den, parts)
        self.offset, self._parts, self._den, self.order = offset, parts, den, order

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_terms(cls, terms: dict[int, CycRat], order: int | None = None):
        """Series from an {exponent: coefficient} mapping; the exponents must be ints."""
        if not terms:
            return cls(0, [], order)
        exps = [_as_int(e, "exponent") for e in terms]
        lo = min(exps)
        coeffs = [ZERO] * (max(exps) - lo + 1)
        for e, c in zip(exps, terms.values()):
            coeffs[e - lo] = c
        return cls(lo, coeffs, order)

    @classmethod
    def zero(cls, order: int | None = None):
        return _built(_zero(order))

    @classmethod
    def one(cls, order: int | None = None):
        return _built(_one(order))

    @classmethod
    def monomial(cls, coeff, exp: int = 0, order: int | None = None):
        return cls(exp, [coeff], order)

    # -- queries ---------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[CycRat, ...]:
        """The stored coefficients, lowest exponent first, as CycRat values."""
        d, parts = self._den, self._parts
        if len(parts) == 1:
            return tuple(_reduced(x, 0, d) for x in parts[0])
        return tuple(_reduced(x, y, d) for x, y in zip(*parts))

    def is_zero(self) -> bool:
        return not self._parts[0]

    def valuation(self) -> int:
        """Exponent of the lowest nonzero term (offset of the data)."""
        if not self._parts[0]:
            raise ValueError("the zero series has no valuation")
        return self.offset

    def coeff(self, exp: int) -> CycRat:
        """Coefficient of q^exp, an int; OrderExceeded beyond the trusted range."""
        exp = _as_int(exp, "exponent")
        if self.order is not None and exp >= self.order:
            raise OrderExceeded(
                f"coefficient of q^{exp} requested, trusted only below q^{self.order}"
            )
        i, parts = exp - self.offset, self._parts
        if 0 <= i < len(parts[0]):
            return _reduced(parts[0][i], parts[1][i] if len(parts) > 1 else 0, self._den)
        return ZERO

    def terms(self):
        """Iterate (exponent, coefficient) over nonzero stored terms."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.offset + i, c

    # -- order management -------------------------------------------------------

    def truncate(self, order: int) -> "LaurentSeries":
        """Restrict to coefficients below ``order`` (order can only shrink)."""
        return _built((self.offset, self._parts, self._den, _lowest(self.order, _as_order(order))))

    def require_order(self, order: int) -> "LaurentSeries":
        """Assert the series is trusted through ``order`` and truncate to it."""
        return _built(_required(_state(self), order))

    # -- linear structure --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return _built(_binomials(_state(other), plus=_state(self)))

    def __neg__(self):
        return _built(_binomials(_state(self), unit=(-1, 0, 1)))

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return _built(_binomials(_state(other), unit=(-1, 0, 1), plus=_state(self)))

    def scale(self, c) -> "LaurentSeries":
        """Multiply by a scalar from Q(w)."""
        return _built(_binomials(_state(self), unit=_split(c)))

    def shift(self, e: int) -> "LaurentSeries":
        """Multiply by the exact monomial q^e; e must be an int."""
        return _built(_binomials(_state(self), shift=_as_int(e, "exponent")))

    # -- multiplicative structure --------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order = _product_order(self, other)
        offset = self.offset + other.offset
        f, g = self._parts, other._parts
        if len(f[0]) > len(g[0]):
            f, g = g, f
        size = len(f[0]) + len(g[0]) - 1
        if order is not None:
            size = min(size, order - offset)  # the rest is truncated anyway
        if not f[0] or size <= 0:
            return _built(_zero(order))
        # both operands on two lists, a rational one with zero w-parts; _built
        # drops the w-list of a product that comes out rational
        (fa, fb), (ga, gb) = (p if len(p) > 1 else (p[0], [0] * len(p[0])) for p in (f, g))
        a = [0] * size
        b = [0] * size
        for i, (x, y) in enumerate(zip(fa, fb)):
            j = min(i + len(ga), size)
            if i >= j:
                break
            if x or y:
                a[i:j] = [s + x * u - y * v for s, u, v in zip(a[i:j], ga, gb)]
                b[i:j] = [s + x * v + y * (u - v) for s, u, v in zip(b[i:j], ga, gb)]
        return _built((offset, [a, b], self._den * other._den, order))

    def mul_one_minus(self, c: CycRat, e: int) -> "LaurentSeries":
        """Multiply by the exact binomial (1 - c*q^e) in one pass; e must be an int."""
        return _built(_binomials(_state(self), muls=((*_split(c), _as_int(e, "exponent")),)))

    def div_one_minus(self, c: CycRat, e: int, order: int | None = None) -> "LaurentSeries":
        """Divide by (1 - c*q^e) via the forward recurrence g[j] = f[j] + c*g[j-e].

        For e >= 1 the quotient is an honest power series times q^offset; for
        e <= -1 we first factor (1 - c*q^e) = (-c*q^e) * (1 - c^{-1} q^{-e}).
        The result needs a finite order: pass one, or the receiver must
        already carry one.  e must be an int.
        """
        return _built(_binomials(_state(self), divs=((*_split(c), _as_int(e, "exponent")),),
                                 cap=order))

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
        order = _as_order(order)
        if not self._parts[0]:
            raise DivisionByZero("inverse of the zero series")
        v = self.offset
        target = _lowest(None if self.order is None else self.order - 2 * v, order)
        if target is None and len(self._parts[0]) != 1:
            raise OrderExceeded(
                "inverse of a non-monomial polynomial is an infinite series; "
                "a finite order is required"
            )
        n = 1 if target is None else target + v  # result exponents -v .. target-1
        f = self.coeffs[:max(n, 1)]
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
            and self._parts == other._parts
        )

    def agrees_below(self, other: "LaurentSeries", order: int) -> int | None:
        """First exponent < order where the two differ, or None if they agree.

        Both series must be trusted through ``order``.  The answer is the
        valuation of their difference below ``order``.
        """
        for s in (self, other):
            if s.order is not None and s.order < order:
                raise OrderExceeded(
                    f"series trusted only below q^{s.order}, cannot compare below q^{order}"
                )
        difference = _built(_binomials(_state(other), cap=order, unit=(-1, 0, 1),
                                       plus=_state(self)))
        return None if difference.is_zero() else difference.offset

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
        terms = len(self._parts[0])
        return f"<LaurentSeries offset={self.offset} terms={terms} order={self.order}>"


# -- the binomial kernel ------------------------------------------------------------------


def _state(s: LaurentSeries) -> tuple:
    """The kernel state of ``s``: its fields (offset, parts, den, order)."""
    return s.offset, s._parts, s._den, s.order


def _zero(order: int | None) -> tuple:
    """The kernel state of 0 trusted below ``order``, an int or None."""
    return 0, [[]], 1, _as_order(order)


def _one(order: int | None) -> tuple:
    """The kernel state of the constant 1 trusted below ``order``, an int or None."""
    return 0, [[1]], 1, _as_order(order)


def _built(state: tuple) -> LaurentSeries:
    """The series of a kernel state, normalized."""
    s = object.__new__(LaurentSeries)
    s._store(*state)
    return s


def _added(state: tuple, g: tuple, order: int | None) -> tuple:
    """The kernel state ``state`` plus the state ``g``, trusted below ``order``.

    g's entries below the order are added into the lists of ``state`` in
    place, so those lists must be the caller's own, shared with nothing.
    They take zeros where g starts lower or ends higher and a list of
    w-parts when g has one, and are cut at the order; both sides come over
    the lcm of their denominators.  The sum is not normalized.
    """
    offset, parts, den, _ = state
    go, gparts, gd, _ = g
    n = len(gparts[0]) if order is None else min(len(gparts[0]), order - go)
    if n > 0:
        if not parts[0]:
            offset, den = go, gd
        d = lcm(den, gd)
        if d != den:
            parts = [_scaled(d // den, xs) for xs in parts]
            den = d
        if len(gparts) > len(parts):
            parts = [parts[0], [0] * len(parts[0])]
        if go < offset:
            pad = [0] * (offset - go)
            for xs in parts:
                xs[:0] = pad
            offset = go
        i = go - offset
        grow = i + n - len(parts[0])
        if grow > 0:
            for xs in parts:
                xs.extend([0] * grow)
        m = d // gd
        for xs, ys in zip(parts, gparts):
            xs[i:i + n] = map(add, xs[i:i + n], _scaled(m, ys))
    if order is not None and len(parts[0]) > order - offset:
        keep = max(order - offset, 0)
        parts = [xs[:keep] for xs in parts]
    return offset, parts, den, order


def _required(state: tuple, order: int) -> tuple:
    """The kernel state ``state`` trusted below ``order``; OrderExceeded when
    it is trusted only below a lower order."""
    offset, parts, den, below = state
    if below is not None and below < order:
        raise OrderExceeded(f"series trusted only below q^{below}, need q^{order}")
    return offset, parts, den, order


def _pentagonal(u: int, length: int) -> list:
    """The terms (d, sign) of (q^u; q^u)_inf below q^length other than its 1, in
    increasing d: by Euler's pentagonal theorem the product is
    sum_k (-1)^k q^(u k(3k-1)/2) over all integers k."""
    out, k = [], 1
    while (d := u * k * (3 * k - 1) // 2) < length:
        sign = -1 if k % 2 else 1
        out.append((d, sign))
        if d + u * k < length:
            out.append((d + u * k, sign))
        k += 1
    return out


def _binomials(f: tuple, muls=(), divs=(), cap: int | None = None,
               shift: int = 0, unit: tuple | None = None,
               plus: tuple | None = None, etas=()) -> tuple:
    """The kernel state of q^shift * unit * f * prod_muls (1 - c q^e) / prod_divs (1 - c q^e)
    * prod_etas (q^u; q^u)_inf^m, plus ``plus`` when given, for kernel states f and ``plus``.

    Every factor comes split as (ca, cb, cd, e) with c = (ca + cb*w)/cd, and
    ``unit``, when given, as (ua, ub, ud).  The binomial steps (e != 0) apply
    in turn, the multiplications first; a factor with c = 0 is 1.  The
    scalars (the unit, every factor with e = 0 and the scalar part of every
    factor with e < 0, below) fold into one Z[w] numerator over an integer
    denominator that multiplies the series after the steps, so a product of
    scalars that is rational in total (the C and D helpers of vwp) never
    gives the series a w-part.  The numerators stay over one growing
    denominator, which the returned state has in lowest terms; nothing else
    is normalized.  They are one list, the 1-parts, while f and the steps so
    far are rational; the first step with a w-part adds the list of w-parts,
    and so does a scalar with one.

    A factor with e < 0 is first factored as

        (1 - c q^e) = (-c q^e) * (1 - c^{-1} q^{-e}),

    so the scalar takes -c for a multiplication and -1/c for a division, the
    shift q^e or q^-e moves the valuation and the order, and the step runs
    with 1/c at -e > 0.  Multiplying by (1 - c q^e) with e > 0 truncates at
    the order; with e = 0 it scales by 1 - c, and a zero scalar makes the
    series 0 at once.  Dividing by it with e = 0 scales by 1/(1 - c),
    DivisionByZero when c = 1, raised where the factor stands among the
    divisions.  Otherwise the quotient is trusted below the lower of the
    order (moved by the shift) and ``cap`` (an int or None), and
    OrderExceeded is raised when both are None.  With e > 0 the recurrence
    g[j] = f[j] + c*g[j-e] runs entry by entry; with
    G_j = den * cd^(j // e) * g_j every step stays in Z[w]:

        G_j = cd^(j // e) * F_j + (ca + cb*w) * G_{j-e}.

    A factor that changes no coefficient below the order is skipped without
    copying a list: a multiplication whose e (positive once factored) is at
    least order - offset, and a division whose e is at least the length
    below the order.

    ``etas`` holds pairs (u, m), u >= 1 and m != 0: the powers
    (q^u; q^u)_inf^m, applied in turn after the binomials as the sparse
    series ``_pentagonal`` lists.  Each needs a finite order, and a division
    (m < 0) takes ``cap`` as a binomial division does.

    With ``plus`` the result is the state of plus + the product, trusted
    below the lowest of ``cap``, the addend's order and the product's order:
    the addend's entries below that order are added in place into the lists
    the steps built for the product (``_added``), every list of the addend,
    its w-parts included, over the lcm of the two denominators.  When no step
    built a list the product's lists are f's, and they are copied first, so
    the lists of f and ``plus`` are never changed and states share them
    freely.
    """
    cap = _as_order(cap)
    offset, parts, den, order = f
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
        if e < 0:  # the scalar -c and the shift q^e, then step by 1/c at -e
            sa, sb = _zw(sa, sb, -ca, -cb)
            sd *= cd
            ca, cb, cd, e = *_reciprocal(ca, cb, cd), -e
            offset -= e
            if order is not None:
                order -= e
        n = len(parts[0])
        if not n or (order is not None and e >= order - offset):
            continue  # every entry of c*q^e*f lies at or above the order
        # c*f: added when c = -1, else scaled (promoting a rational f) and subtracted
        terms, op = (parts, add) if ca == -1 and not cb else (_times(ca, cb, parts), sub)
        if len(terms) > len(parts):
            parts = [parts[0], [0] * n]
        pad = [0] * ((n + e if order is None else min(n + e, order - offset)) - n)
        new = []
        for xs, ts in zip(parts, terms):  # f - c*q^e*f over den*cd
            ys = _scaled(cd, xs) + pad
            ys[e:] = map(op, ys[e:], ts)
            new.append(ys)
        parts = new
        den *= cd
    for ca, cb, cd, e in divs:
        if e == 0:  # the scalar 1/(1 - c) = cd / (cd - ca - cb*w)
            ra, rb, rd = _reciprocal(cd - ca, -cb, cd)
            if not rd:
                raise DivisionByZero("division by the zero binomial (1 - 1)")
            sa, sb = _zw(sa, sb, ra, rb)
            sd *= rd
            continue
        if not ca and not cb:
            continue
        if e < 0:  # the scalar -1/c and the shift q^-e, then step by 1/c at -e
            ca, cb, cd, e = *_reciprocal(ca, cb, cd), -e
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
    for u, m in etas:
        if m < 0 and (order is None or (cap is not None and cap < order)):
            order = cap
        if order is None:
            raise OrderExceeded("(q^u; q^u)_inf is an infinite product; an order is required")
        length, n = order - offset, len(parts[0])
        if not n or length <= 0:
            parts = [[]]
            continue
        terms = _pentagonal(u, length)
        if not terms:
            continue  # (q^u; q^u)_inf is 1 below the order
        ends = [d for d, _ in terms[1:]] + [length]
        pad, new = [0] * (length - n), []
        for xs in parts:
            xs = xs[:length] + pad
            for _ in range(abs(m)):
                if m > 0:  # f * (1 + sum sign*q^d): f added at each d
                    ys = xs[:]
                    for d, sign in terms:
                        ys[d:] = map(add if sign > 0 else sub, ys[d:], xs)
                    xs = ys
                    continue
                # g[j] = f[j] - sum sign*g[j - d] over the terms with d <= j, in
                # place: from each term's d to the next one's, those terms are fixed
                ups, downs = [], []
                for (d, sign), end in zip(terms, ends):
                    (ups if sign < 0 else downs).append(d)
                    for j in range(d, end):
                        x = xs[j]
                        for i in ups:
                            x += xs[j - i]
                        for i in downs:
                            x -= xs[j - i]
                        xs[j] = x
            new.append(xs)
        parts = new
    parts = _times(sa, sb, parts)
    den *= sd
    if plus is not None:
        if parts is f[1]:  # no step built lists: copy f's before adding into them
            parts = [xs[:] for xs in parts]
        offset, parts, den, order = _added((offset, parts, den, order), plus,
                                           _lowest(cap, plus[3], order))
    if den != 1:
        den, parts = _cancelled(den, parts)
    return offset, parts, den, order


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
    product.  The checks run in turn: InvalidBase for the base, TypeError
    for an n that is not an int, ValueError for n < 0, OrderExceeded for an
    infinite product without an order, ZeroFactor for a factor (1 - 1)
    among the n, OrderExceeded for an inverse without an order.

    Only factors that touch exponents below ``order`` are applied: the
    leading factors with e < 0 move the valuation by the slack s, to -s for
    the product and to s for the inverse, and a later factor with e > 0
    changes nothing below e + valuation."""
    _check_base(base)
    if n is not None and _as_int(n, "count") < 0:
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
        return _built(_binomials(_one(None), muls=_factors(a, base, n)))
    slack = _negative_slack(a, base, n)
    if invert:
        return _built(_binomials(_one(order), divs=_factors(a, base, n, order - slack),
                                 cap=order))
    return _built(_binomials(_one(order + slack), muls=_factors(a, base, n, order + slack)))


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
