"""Truncated Laurent series in q over Q(w), plus q-Pochhammer products.

A series is stored densely: an integer ``offset`` (the exponent of the first
stored coefficient, possibly negative), a list of CycRat coefficients, and an
``order``.  ``order = N`` means the coefficients are trusted exactly for all
exponents < N and unknown from N on; ``order = None`` means the series is an
exact Laurent polynomial with no unknown tail.

Order bookkeeping under multiplication accounts for operand valuations:
a product coefficient at exponent e needs f up to e - val(g) and g up to
e - val(f), so

    order(f*g) = min(order(f) + val(g), order(g) + val(f)).

For ordinary power series (offset >= 0) this collapses to the usual
min(order, order), but for genuine Laurent operands (negative offsets, which
the identity right-hand sides here do produce) the naive min would silently
trust coefficients that depend on truncated ones.

The two binomial primitives do the heavy lifting for Pochhammer symbols:

    mul_one_minus(c, e): multiply by (1 - c*q^e), two passes over the data;
    div_one_minus(c, e): divide by it via the forward recurrence
                         g[j] = f[j] + c*g[j-e], also linear time.

Building (a; q)_n or (a; q)_infinity this way costs O(n * order) instead of
the O(order^2) of repeated general multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeffring import ZERO, ONE, CycRat, DivisionByZero

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
        """The reciprocal parameter 1/(c*q^e) = c^{-1} * q^{-e}."""
        return ParamValue(self.coeff.inverse(), -self.exp)

    def scaled(self, base: "ParamValue", j: int) -> tuple[CycRat, int]:
        """Coefficient and exponent of self * base^j (as a plain pair)."""
        c = self.coeff
        bc = base.coeff
        if bc != ONE:
            step = bc if j >= 0 else bc.inverse()
            for _ in range(abs(j)):
                c = c * step
        return c, self.exp + j * base.exp

    def is_one(self) -> bool:
        return self.exp == 0 and self.coeff == ONE

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


class LaurentSeries:
    """Dense truncated Laurent series over Q(w).

    Internal invariant: ``coeffs`` has no leading or trailing zeros (the zero
    series is the empty list with offset 0), and every stored exponent is
    below ``order`` when the order is finite.
    """

    __slots__ = ("offset", "coeffs", "order")

    def __init__(self, offset: int, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        if order is not None:
            keep = order - offset
            if keep < len(coeffs):
                del coeffs[max(keep, 0):]
        lo = 0
        hi = len(coeffs)
        while lo < hi and not coeffs[lo]:
            lo += 1
        while hi > lo and not coeffs[hi - 1]:
            hi -= 1
        self.offset = offset + lo if hi > lo else 0
        self.coeffs = coeffs[lo:hi]
        self.order = order

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
            if not isinstance(c, CycRat):
                c = CycRat(c)
            coeffs[e - lo] = c
        return cls(lo, coeffs, order)

    @classmethod
    def zero(cls, order: int | None = None):
        return cls(0, [], order)

    @classmethod
    def one(cls, order: int | None = None):
        return cls(0, [ONE], order)

    @classmethod
    def monomial(cls, coeff, exp: int = 0, order: int | None = None):
        if not isinstance(coeff, CycRat):
            coeff = CycRat(coeff)
        return cls(exp, [coeff], order)

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int:
        """Exponent of the lowest nonzero term (offset of the data)."""
        if not self.coeffs:
            raise ValueError("the zero series has no valuation")
        return self.offset

    def coeff(self, exp: int) -> CycRat:
        """Coefficient of q^exp; OrderExceeded beyond the trusted range."""
        if self.order is not None and exp >= self.order:
            raise OrderExceeded(
                f"coefficient of q^{exp} requested, trusted only below q^{self.order}"
            )
        i = exp - self.offset
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return ZERO

    def terms(self):
        """Iterate (exponent, coefficient) over nonzero stored terms."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.offset + i, c

    # -- order management -------------------------------------------------------

    def truncate(self, order: int) -> "LaurentSeries":
        """Restrict to coefficients below ``order`` (order can only shrink)."""
        new_order = order if self.order is None else min(self.order, order)
        return LaurentSeries(self.offset, self.coeffs, new_order)

    def require_order(self, order: int) -> "LaurentSeries":
        """Assert the series is trusted through ``order`` and truncate to it."""
        if self.order is not None and self.order < order:
            raise OrderExceeded(
                f"series trusted only below q^{self.order}, need q^{order}"
            )
        return LaurentSeries(self.offset, self.coeffs, order)

    # -- linear structure --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order = min(_norm_order(self.order), _norm_order(other.order))
        if not self.coeffs:
            return LaurentSeries(other.offset, other.coeffs, _denorm_order(order))
        if not other.coeffs:
            return LaurentSeries(self.offset, self.coeffs, _denorm_order(order))
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        out = [ZERO] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            out[self.offset - lo + i] = c
        for i, c in enumerate(other.coeffs):
            j = other.offset - lo + i
            out[j] = out[j] + c
        return LaurentSeries(lo, out, _denorm_order(order))

    def __neg__(self):
        return LaurentSeries(self.offset, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "LaurentSeries":
        """Multiply by a scalar from Q(w)."""
        if not isinstance(c, CycRat):
            c = CycRat(c)
        if not c:
            return LaurentSeries(0, [], self.order)
        return LaurentSeries(self.offset, [c * v for v in self.coeffs], self.order)

    def shift(self, e: int) -> "LaurentSeries":
        """Multiply by the exact monomial q^e."""
        order = None if self.order is None else self.order + e
        return LaurentSeries(self.offset + e, self.coeffs, order)

    # -- multiplicative structure --------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            order = _product_order(self, other)
            return LaurentSeries(0, [], _denorm_order(order))
        order = _product_order(self, other)
        f, g = self.coeffs, other.coeffs
        if len(f) > len(g):
            f, g = g, f
        out = [ZERO] * (len(f) + len(g) - 1)
        for i, ci in enumerate(f):
            if not ci:
                continue
            for j, cj in enumerate(g):
                if cj:
                    out[i + j] = out[i + j] + ci * cj
        return LaurentSeries(self.offset + other.offset, out, _denorm_order(order))

    def mul_one_minus(self, c: CycRat, e: int) -> "LaurentSeries":
        """Multiply by the exact binomial (1 - c*q^e) in one pass."""
        if not isinstance(c, CycRat):
            c = CycRat(c)
        if not c:
            return self
        if not self.coeffs:
            # the unknown tail from q^order on, times c*q^e, reaches q^(order+e)
            if e < 0 and self.order is not None:
                return LaurentSeries(0, [], self.order + e)
            return self
        if e == 0:
            return self.scale(ONE - c)
        n = len(self.coeffs)
        if e > 0:
            out = self.coeffs + [ZERO] * e
            for i, v in enumerate(self.coeffs):
                if v:
                    out[i + e] = out[i + e] - c * v
            return LaurentSeries(self.offset, out, self.order)
        out = [ZERO] * (-e) + self.coeffs
        for i, v in enumerate(self.coeffs):
            if v:
                out[i] = out[i] - c * v
        order = None if self.order is None else self.order + e
        return LaurentSeries(self.offset + e, out, order)

    def div_one_minus(self, c: CycRat, e: int, order: int | None = None) -> "LaurentSeries":
        """Divide by (1 - c*q^e) via the forward recurrence g[j] = f[j] + c*g[j-e].

        For e >= 1 the quotient is an honest power series times q^offset; for
        e <= -1 we first factor (1 - c*q^e) = (-c*q^e) * (1 - c^{-1} q^{-e}).
        The result needs a finite order: pass one, or the receiver must
        already carry one.
        """
        if not isinstance(c, CycRat):
            c = CycRat(c)
        if e == 0:
            unit = ONE - c
            if not unit:
                raise DivisionByZero("division by the zero binomial (1 - 1)")
            return self.scale(unit.inverse())
        if not c:
            return self
        if e < 0:
            cinv = c.inverse()
            return (self.scale(-cinv).shift(-e)).div_one_minus(cinv, -e, order)
        my_order = _norm_order(self.order)
        target = min(my_order, _norm_order(order))
        if target == _INF:
            raise OrderExceeded(
                "dividing by (1 - c*q^e) yields an infinite series; a finite order is required"
            )
        target = int(target)
        if not self.coeffs:
            return LaurentSeries(0, [], target)
        length = target - self.offset
        if length <= 0:
            return LaurentSeries(0, [], target)
        out = [ZERO] * length
        for i, v in enumerate(self.coeffs[:length]):
            out[i] = v
        for j in range(e, length):
            prev = out[j - e]
            if prev:
                out[j] = out[j] + c * prev
        return LaurentSeries(self.offset, out, target)

    def inverse(self, order: int | None = None) -> "LaurentSeries":
        """Multiplicative inverse by forward substitution.

        If f = c*q^v*(1 + h) with h of positive valuation, the inverse is
        c^{-1} q^{-v} (1 + h)^{-1}.  Trusted range: order(f) - 2v (each side
        of the convolution shifts by the valuation).
        """
        if not self.coeffs:
            raise DivisionByZero("inverse of the zero series")
        v = self.offset
        lead = self.coeffs[0]
        my_order = _norm_order(self.order) - 2 * v
        target = min(my_order, _norm_order(order))
        if target == _INF:
            if len(self.coeffs) == 1:
                return LaurentSeries(-v, [lead.inverse()], None)
            raise OrderExceeded(
                "inverse of a non-monomial polynomial is an infinite series; "
                "a finite order is required"
            )
        target = int(target)
        length = target + v  # result exponents run from -v up to target-1
        if length <= 0:
            return LaurentSeries(0, [], target)
        inv_lead = lead.inverse()
        f = self.coeffs
        out = [ZERO] * length
        out[0] = inv_lead
        for j in range(1, length):
            # coefficient of q^{j-v} in the inverse
            acc = ZERO
            for i in range(1, min(j, len(f) - 1) + 1):
                fi = f[i]
                if fi:
                    acc = acc + fi * out[j - i]
            if acc:
                out[j] = -inv_lead * acc
        return LaurentSeries(-v, out, target)

    def __truediv__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        hint = None
        if self.order is not None and other.coeffs:
            vf = self.offset if self.coeffs else 0
            hint = self.order - other.valuation() - vf
        return self * other.inverse(hint)

    # -- comparison / rendering -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.offset == other.offset
            and self.order == other.order
            and self.coeffs == other.coeffs
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
        lo = []
        if self.coeffs:
            lo.append(self.offset)
        if other.coeffs:
            lo.append(other.offset)
        if not lo:
            return None
        for e in range(min(lo), order):
            i = e - self.offset
            a = self.coeffs[i] if 0 <= i < len(self.coeffs) else ZERO
            j = e - other.offset
            b = other.coeffs[j] if 0 <= j < len(other.coeffs) else ZERO
            if a != b:
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
        return f"<LaurentSeries offset={self.offset} terms={len(self.coeffs)} order={self.order}>"


def _product_order(f: LaurentSeries, g: LaurentSeries):
    """Trusted order of f*g, accounting for valuations (see module docstring)."""
    of = _norm_order(f.order)
    og = _norm_order(g.order)
    if of == _INF and og == _INF:
        return _INF
    vf = f.offset if f.coeffs else 0
    vg = g.offset if g.coeffs else 0
    terms = []
    if of != _INF:
        terms.append(of + vg)
    if og != _INF:
        terms.append(og + vf)
    return min(terms)


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
    """Total downward order shift from factors (1 - c*q^e) with e < 0."""
    slack = 0
    e = a.exp
    j = 0
    while e < 0 and (n is None or j < n):
        slack -= e
        e += base.exp
        j += 1
    return slack


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
    if order is None:
        out = LaurentSeries.one()
    else:
        out = LaurentSeries.one(order + _negative_slack(a, base, n))
    c, e = a.coeff, a.exp
    bc, be = base.coeff, base.exp
    for _ in range(n):
        if order is not None and e > 0 and out.coeffs and e + out.valuation() >= order:
            break  # later factors only touch exponents >= order
        out = out.mul_one_minus(c, e)
        c = c * bc if bc != ONE else c
        e += be
    return out if order is None else out.truncate(order)


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
    out = LaurentSeries.one(order)
    c, e = a.coeff, a.exp
    bc, be = base.coeff, base.exp
    for _ in range(n):
        if e > 0 and out.coeffs and e + out.valuation() >= order:
            break
        out = out.div_one_minus(c, e)
        c = c * bc if bc != ONE else c
        e += be
    return out.truncate(order)


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
    out = LaurentSeries.one(order + _negative_slack(a, base))
    c, e = a.coeff, a.exp
    bc, be = base.coeff, base.exp
    while True:
        if e > 0 and (not out.coeffs or e + out.valuation() >= order):
            break
        out = out.mul_one_minus(c, e)
        c = c * bc if bc != ONE else c
        e += be
    return out.truncate(order)


def poch_infinite_inv(a: ParamValue, base: ParamValue, order: int) -> LaurentSeries:
    """1 / (a; base)_infinity, truncated below ``order``."""
    _check_base(base)
    if _zero_factor_index(a, base) is not None:
        raise ZeroFactor(f"1/(({a}; {base})_inf) divides by an identically zero factor")
    out = LaurentSeries.one(order)
    c, e = a.coeff, a.exp
    bc, be = base.coeff, base.exp
    # Dividing by (1 - c*q^e) with e > 0 only changes coefficients at
    # exponents >= e + valuation; stop once e is out of range.
    while True:
        if e > 0 and (not out.coeffs or e + out.valuation() >= order):
            break
        out = out.div_one_minus(c, e)
        c = c * bc if bc != ONE else c
        e += be
    return out.truncate(order)
