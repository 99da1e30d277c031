"""Exact arithmetic in the field Q(w), where w is a primitive cube root of unity.

Every coefficient that appears anywhere in this package lives in Q(w) with
w^2 + w + 1 = 0.  An element is stored as three Python ints, integer Z[w]
numerators over one denominator:

    (x + y*w) / d,   d > 0,   gcd(x, y, d) = 1,

so equal elements store equal triples (zero is (0, 0, 1)).  This is the
format the series kernels in ``laurent`` work in, which read the triple as
it is.  Since w^2 = -1 - w, the product rule is

    (x + y*w)(u + v*w) = (xu - yv) + (xv + yu - yv)*w,

four int products over the product of the denominators, with no rational
arithmetic in between; a sum goes over the product too, or over the shared
denominator when the two agree.  Every result is reduced by one gcd of the
three ints, skipped when its denominator is 1.

The complex conjugate swaps w and w^2, i.e. conj(x + y*w) = (x - y) - y*w,
and the norm x * conj(x) = (x^2 - xy + y^2) / d^2 is rational and positive
off zero, which gives exact inversion:

    1 / ((x + y*w)/d) = d * ((x - y) - y*w) / (x^2 - xy + y^2).

No floating point is used anywhere.

The arithmetic above is on ints alone.  A rational is handed out only by
``CycRat.a``, ``CycRat.b`` and ``norm()``, built on read, and by ``rat``;
each is a ``fractions.Fraction``.  The constructor takes any exact rational:
an int, a Fraction or any registered ``numbers.Rational`` (gmpy2's mpz and
mpq among them).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Rational


def rat(num=0, den=1) -> Fraction:
    """Exact rational from integers."""
    return Fraction(num, den)


#: The rational one.
RAT_ONE = rat(1)


class DivisionByZero(ZeroDivisionError):
    """Raised on exact division by zero (scalar or series)."""


def _num_den(value) -> tuple[int, int]:
    """Numerator and denominator, as ints, of an exact rational (int, Fraction,
    any ``numbers.Rational``); TypeError for anything else."""
    if isinstance(value, int):
        return int(value), 1  # int() drops bool and other int subclasses
    if isinstance(value, (Fraction, Rational)):  # Fraction first: the ABC check is slowest
        return int(value.numerator), int(value.denominator)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}: {value!r}")


class CycRat:
    """An element a + b*w of Q(w), with a and b exact rationals.

    Stored as the reduced triple (x, y, d) of ints with a = x/d and b = y/d
    (see the module docstring), in the one slot ``_xyd``, which the kernels
    in ``laurent`` read directly.  ``a`` and ``b`` are read-only views that
    build Fractions.  Instances are immutable and hashable, so they can key
    caches and sit in frozen dataclasses; a rational element hashes as the
    rational it equals.
    """

    __slots__ = ("_xyd",)

    def __init__(self, a=0, b=0):
        an, ad = _num_den(a)
        bn, bd = _num_den(b)
        if ad == bd:
            x, y, d = an, bn, ad
        else:
            x, y, d = an * bd, bn * ad, ad * bd
        g = gcd(x, y, d)
        if d < 0:  # a numbers.Rational need not keep its denominator positive
            g = -g
        _set(self, (x // g, y // g, d // g))

    def __setattr__(self, name, value):
        raise AttributeError("CycRat is immutable")

    def __reduce__(self):  # pickle and copy rebuild through __init__, since __setattr__ refuses
        return CycRat, (self.a, self.b)

    @property
    def a(self):
        """The rational part, a Fraction."""
        x, _, d = self._xyd
        return rat(x, d)

    @property
    def b(self):
        """The coefficient of w, a Fraction."""
        _, y, d = self._xyd
        return rat(y, d)

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        x, y, _ = self._xyd
        return bool(x or y)

    def is_rational(self):
        """True when the w-component vanishes."""
        return not self._xyd[1]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y, d = self._xyd
        u, v, e = other._xyd
        if d == e:
            return _reduced(x + u, y + v, d)
        return _reduced(x * e + u * d, y * e + v * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y, d = self._xyd
        u, v, e = other._xyd
        if d == e:
            return _reduced(x - u, y - v, d)
        return _reduced(x * e - u * d, y * e - v * d, d * e)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        x, y, d = self._xyd
        return _reduced(-x, -y, d)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y, d = self._xyd
        u, v, e = other._xyd
        if not y:
            if not v:  # rational factors dominate in the series code
                return _reduced(x * u, 0, d * e)
            return _reduced(x * u, x * v, d * e)
        if not v:
            return _reduced(x * u, y * u, d * e)
        yv = y * v
        return _reduced(x * u - yv, x * v + y * u - yv, d * e)

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
        x, y, d = self._xyd
        return _reduced(x - y, -y, d)

    def norm(self):
        """x * conj(x) = a^2 - a*b + b^2, a Fraction (>= 0)."""
        x, y, d = self._xyd
        return rat(x * (x - y) + y * y, d * d)

    def inverse(self):
        """Exact multiplicative inverse; DivisionByZero on zero."""
        x, y, d = self._xyd
        n = x * (x - y) + y * y
        if not n:
            raise DivisionByZero("inverse of 0 in Q(w)")
        return _reduced(d * (x - y), -d * y, n)

    # -- comparison / hashing / rendering ------------------------------------

    def __eq__(self, other):
        if type(other) is not CycRat:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._xyd == other._xyd

    def __hash__(self):
        x, y, d = self._xyd
        if y:
            return hash(self._xyd)
        return hash(x) if d == 1 else hash(rat(x, d))  # as the int or rational it equals

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


_set = CycRat._xyd.__set__  # the slot's own setter, past the refusing __setattr__
_new = object.__new__


def _reduced(x: int, y: int, d: int) -> CycRat:
    """The CycRat (x + y*w)/d for ints with d > 0, reduced."""
    if d != 1:
        g = gcd(x, y, d)
        if g != 1:
            x, y, d = x // g, y // g, d // g
    c = _new(CycRat)
    _set(c, (x, y, d))
    return c


def _coerce(value):
    if isinstance(value, CycRat):
        return value
    if type(value) is int:
        return _reduced(value, 0, 1)
    if isinstance(value, (int, Fraction)):
        return CycRat(value)
    return NotImplemented


#: Handy constants.  OMEGA_BAR is the other primitive cube root, w^2 = -1 - w,
#: which is also 1/w and conj(w).
ZERO = CycRat(0, 0)
ONE = CycRat(1, 0)
OMEGA = CycRat(0, 1)
OMEGA_BAR = CycRat(-1, -1)
