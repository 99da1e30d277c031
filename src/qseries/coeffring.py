"""Exact arithmetic in the field Q(w), where w is a primitive cube root of unity.

Every coefficient that appears anywhere in this package lives in Q(w) with
w^2 + w + 1 = 0.  Elements are stored on the basis {1, w}:

    x = a + b*w,   a, b rational.

Since w^2 = -1 - w, the product rule on this basis is

    (a + b*w)(c + d*w) = (ac - bd) + (ad + bc - bd)*w,

which we evaluate with three big-rational multiplications instead of four
(Karatsuba style: ad + bc = (a+b)(c+d) - ac - bd).

The complex conjugate swaps w and w^2, i.e. conj(a + b*w) = (a - b) - b*w,
and the norm x * conj(x) = a^2 - a*b + b^2 is rational, which gives exact
inversion.  No floating point is used anywhere.

Rationals are gmpy2.mpq when available and fractions.Fraction otherwise; both
share the numerator/denominator protocol so everything downstream is agnostic.
CycRat is the scalar type at the API edge only: the series kernels in
``laurent`` run on integer Z[w] numerators and never touch these rationals,
so the backend matters only for scalar work (parameters, term-ratio tests,
reading coefficients out of a series).
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq

    def rat(num=0, den=1):
        """Exact rational from integers (or anything gmpy2.mpq accepts)."""
        return _mpq(num, den)

except ImportError:  # pragma: no cover - exercised only without gmpy2
    def rat(num=0, den=1):
        """Exact rational from integers (stdlib fallback)."""
        return Fraction(num, den)

#: The rational zero and one in the active backend.
RAT_ZERO = rat(0)
RAT_ONE = rat(1)


class DivisionByZero(ZeroDivisionError):
    """Raised on exact division by zero (scalar or series)."""


_RAT = type(RAT_ONE)


def _as_rat(value):
    """Coerce an int / Fraction / backend rational to the active backend."""
    if type(value) is _RAT:
        return value
    if isinstance(value, int):
        return rat(value)
    if isinstance(value, Fraction):
        return rat(value.numerator, value.denominator)
    return value


class CycRat:
    """An element a + b*w of Q(w), with a and b exact rationals.

    Instances are immutable in practice (nothing mutates .a / .b after
    construction) and hashable, so they can key caches and sit in frozen
    dataclasses.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _as_rat(a))
        object.__setattr__(self, "b", _as_rat(b))

    def __setattr__(self, name, value):
        raise AttributeError("CycRat is immutable")

    def __reduce__(self):  # pickle and copy rebuild through __init__, since __setattr__ refuses
        return CycRat, (self.a, self.b)

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def is_rational(self):
        """True when the w-component vanishes."""
        return not self.b

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycRat(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycRat(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycRat(other.a - self.a, other.b - self.b)

    def __neg__(self):
        return CycRat(-self.a, -self.b)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.a, self.b
        c, d = other.a, other.b
        # Fast paths: purely rational factors dominate in the series code.
        if not b:
            if not a:
                return ZERO
            return CycRat(a * c, a * d)
        if not d:
            if not c:
                return ZERO
            return CycRat(a * c, b * c)
        ac = a * c
        bd = b * d
        return CycRat(ac - bd, (a + b) * (c + d) - ac - 2 * bd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def conjugate(self):
        """Swap the two primitive cube roots: w -> w^2 = -1 - w."""
        return CycRat(self.a - self.b, -self.b)

    def norm(self):
        """x * conj(x) = a^2 - a*b + b^2, an exact rational (>= 0)."""
        return self.a * (self.a - self.b) + self.b * self.b

    def inverse(self):
        """Exact multiplicative inverse; DivisionByZero on zero."""
        n = self.norm()
        if not n:
            raise DivisionByZero("inverse of 0 in Q(w)")
        return CycRat((self.a - self.b) / n, -self.b / n)

    # -- comparison / hashing / rendering ------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __str__(self):
        a, b = self.a, self.b
        if not b:
            return str(a)
        if b == 1:
            w_part = "w"
        elif b == -1:
            w_part = "-w"
        else:
            w_part = f"{b}*w"
        if not a:
            return w_part
        sign = "-" if w_part.startswith("-") else "+"
        return f"{a}{sign}{w_part.lstrip('-')}"

    def __repr__(self):
        return f"CycRat({self.a!r}, {self.b!r})"


def _coerce(value):
    if isinstance(value, CycRat):
        return value
    if isinstance(value, (int, Fraction)) or type(value) is _RAT:
        return CycRat(value)
    return NotImplemented


#: Handy constants.  OMEGA_BAR is the other primitive cube root, w^2 = -1 - w,
#: which is also 1/w and conj(w).
ZERO = CycRat(0, 0)
ONE = CycRat(1, 0)
OMEGA = CycRat(0, 1)
OMEGA_BAR = CycRat(-1, -1)

