"""Registry of exact q-series identities and their verification machinery.

Each entry carries two independent builders.  A sum side is data: a first
term and one term ratio per summation index, transcribed from the stated sum
and summed by vwp's chained term-ratio driver.  A product side is data too: a
list of terms scalar * q^a * prod (1 - c q^e)^{+-1} * prod (c q^e; q^s)_inf^k,
in the style of Garvan's etaq, each expanded by one kernel call that applies
its powers as eta quotients, Euler's sparse pentagonal series.
Verification expands both to a truncation order and compares coefficients
exactly; nothing is ever checked numerically in floating point.

Entries that arose by specializing the two-parameter or three-parameter
corollaries also record that specialization (base, parameter values, and the
eta-quotient prefactor, one term), so ``derivation_check`` can re-derive the
sum side from the corollary's closed form and confirm it against the direct
builder.  The closed form minus the first row is one sum of vwp's Terms, in
which the Terms with the same eta quotient share one kernel call, and the
prefactor applies to its state in one more.

The identity families:

- ``A1-*``/``A2-*``: single sums of shape
  sum_{n>=1} q^n (s1 q^n;q)_inf (s2 q^{n+1};q)_inf^2 (s1 q^3;q^3)_{n-1}
  (and their reciprocal variants) evaluated by eta-quotients;
- ``Bprime-*``: the odd/even-split analogues at base q^2;
- ``DS1-*``..``DS4-*``: double sums of corollary shape with the first row
  removed;
- ``Cor-a``/``Cor-b``: the two corollaries themselves at representative
  parameter points;
- ``KL-relation``: the double-sum exchange relation;
- ``Bailey-3psi3``: the classical bilateral evaluation used by the bilateral
  companion series.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial
from types import MappingProxyType
from typing import Callable

from .coeffring import CycRat, DivisionByZero, OMEGA, OMEGA_BAR, ONE, rat
from .laurent import (
    InvalidBase,
    LaurentSeries,
    OrderExceeded,
    ParamValue,
    Q,
    ZeroFactor,
    _as_int,
    _built,
    _required,
)
from . import vwp
from .vwp import DegenerateC, Level, Term, _apply, _chain_sum, _product_sum, _term_slack


class UnknownIdentity(KeyError):
    """An identity id that is not in the registry."""


class MissingSpecialization(LookupError):
    """derivation_check was asked for an entry with no recorded specialization."""


#: Library exceptions that become ``status="error"`` reports.
_EXPANSION_ERRORS = (ZeroFactor, DegenerateC, OrderExceeded, DivisionByZero, InvalidBase)


@dataclass(frozen=True)
class FirstMismatch:
    exponent: int
    lhs: CycRat
    rhs: CycRat


@dataclass(frozen=True)
class VerifyReport:
    id: str
    order: int
    status: str  # "equal" | "mismatch" | "error"
    first_mismatch: FirstMismatch | None
    elapsed: float  # seconds
    message: str | None = None


@dataclass(frozen=True)
class Specialization:
    """How an entry arises from a corollary: base, parameters, prefactor.

    ``params`` is (y, z) for single-sum entries (two-parameter corollary) and
    (x, y, z) for double-sum entries (three-parameter corollary).  The
    prefactor is the eta-quotient multiplier in front of the corollary's right
    side, as one product term.
    """

    base: ParamValue
    params: tuple[ParamValue, ...]
    prefactor: Term


@dataclass(frozen=True)
class IdentityEntry:
    id: str
    statement: str
    lhs: Callable[[int], LaurentSeries]
    rhs: Callable[[int], LaurentSeries]
    specialization: Specialization | None = None


DEFAULT_ORDER = 50

# frequently used parameter values
_P1 = ParamValue(ONE, 0)
_M1 = ParamValue(CycRat(-1), 0)
_W = ParamValue(OMEGA, 0)
_MW = ParamValue(-OMEGA, 0)
_Q2 = ParamValue(ONE, 2)


def _r(num: int, den: int = 1) -> CycRat:
    return CycRat(rat(num, den))


def _lv(weight: int, num=(), den=()) -> Level:
    """A summation level: term ratio q^weight * prod_num / prod_den, with each
    binomial (c, a, b) standing for (1 - c q^{a*M + b}) at index M >= 0."""
    def factors(bins):
        return tuple((ParamValue(c, b), ParamValue(ONE, a)) for c, a, b in bins)

    return Level(ParamValue(ONE, weight), factors(num), factors(den))


def _sum_side(first: Term, *levels: Level) -> Callable[[int], LaurentSeries]:
    return partial(_chain_sum, levels, first=first)


def _product_side(*terms: Term) -> Callable[[int], LaurentSeries]:
    return partial(_product_sum, terms)


def _const(num: int, den: int) -> Term:
    return Term(_r(num, den))


# -- the stated sums, as data -----------------------------------------------------------
#
# Single sums over n >= 1 use M = n - 1.  Double sums over m >= 1, n >= 0 use
# M_1 = m - 1 <= M_2 = m + n - 1: the inner ratio is level 2's, and the step
# from row m to row m + 1 is level 1's ratio times level 2's.  A first term
# Term(scalar, shift, muls, divs, pochs) is the summand at the smallest indices.

_LHS = {
    "A1-a": _sum_side(Term(shift=1, pochs=((1, 1, 1, 1), (-1, 2, 1, 2))),
                      _lv(1, num=[(1, 3, 3)], den=[(1, 1, 1), (-1, 1, 2), (-1, 1, 2)])),
    "A1-b": _sum_side(Term(shift=1, pochs=((1, 1, 1, 1), (1, 2, 1, 2))),
                      _lv(1, num=[(1, 3, 3)], den=[(1, 1, 1), (1, 1, 2), (1, 1, 2)])),
    "A1-c": _sum_side(Term(shift=1, pochs=((-1, 1, 1, 1), (-1, 2, 1, 2))),
                      _lv(1, num=[(-1, 3, 3)], den=[(-1, 1, 1), (-1, 1, 2), (-1, 1, 2)])),
    "A1-d": _sum_side(Term(shift=1, pochs=((-1, 1, 1, 1), (1, 2, 1, 2))),
                      _lv(1, num=[(-1, 3, 3)], den=[(-1, 1, 1), (1, 1, 2), (1, 1, 2)])),

    "A2-a": _sum_side(Term(shift=1, divs=((1, 3),), pochs=((1, 2, 1, -1), (-1, 1, 1, -2))),
                      _lv(1, num=[(1, 1, 2), (-1, 1, 1), (-1, 1, 1)], den=[(1, 3, 6)])),
    "A2-b": _sum_side(Term(shift=1, divs=((-1, 3),), pochs=((-1, 2, 1, -1), (-1, 1, 1, -2))),
                      _lv(1, num=[(-1, 1, 2), (-1, 1, 1), (-1, 1, 1)], den=[(-1, 3, 6)])),
    "A2-c": _sum_side(Term(shift=1, divs=((-1, 3),), pochs=((1, 1, 1, 1), (-1, 2, 1, -1))),
                      _lv(1, num=[(1, 3, 3), (-1, 1, 2)], den=[(1, 1, 1), (-1, 3, 6)])),
    "A2-d": _sum_side(Term(shift=1, divs=((1, 3),), pochs=((-1, 1, 1, 1), (1, 2, 1, -1))),
                      _lv(1, num=[(-1, 3, 3), (1, 1, 2)], den=[(-1, 1, 1), (1, 3, 6)])),

    "Bprime-a": _sum_side(Term(shift=1, pochs=((1, 3, 2, 1), (1, 2, 2, 1), (1, 5, 2, 1))),
                          _lv(2, num=[(1, 6, 6)], den=[(1, 2, 3), (1, 2, 2), (1, 2, 5)])),
    "Bprime-b": _sum_side(Term(shift=1, pochs=((1, 3, 2, 1), (-1, 2, 2, 1), (1, 5, 2, 1))),
                          _lv(2, num=[(-1, 6, 6)], den=[(1, 2, 3), (-1, 2, 2), (1, 2, 5)])),
    "Bprime-c": _sum_side(
        Term(shift=1, divs=((1, 6),), pochs=((1, 1, 2, -1), (1, 3, 2, -1), (1, 4, 2, -1))),
        _lv(2, num=[(1, 2, 1), (1, 2, 3), (1, 2, 4)], den=[(1, 6, 12)])),
    "Bprime-d": _sum_side(
        Term(shift=1, divs=((-1, 6),), pochs=((1, 1, 2, -1), (1, 3, 2, -1), (-1, 4, 2, -1))),
        _lv(2, num=[(1, 2, 1), (1, 2, 3), (-1, 2, 4)], den=[(-1, 6, 12)])),

    "DS1-a": _sum_side(Term(shift=2, divs=((1, 1), (1, 3))),
                       _lv(1, num=[(1, 3, 3)], den=[(1, 1, 1), (1, 1, 2), (1, 1, 2)]),
                       _lv(1, num=[(1, 1, 2), (-1, 3, 3)], den=[(-1, 1, 1), (1, 3, 6)])),
    "DS1-b": _sum_side(Term(shift=2, muls=((-1, 1),), divs=((1, 1), (1, 1), (-1, 3))),
                       _lv(1, num=[(-1, 3, 3)], den=[(-1, 1, 1), (1, 1, 2), (1, 1, 2)]),
                       _lv(1, num=[(-1, 1, 2), (1, 3, 3)], den=[(1, 1, 1), (-1, 3, 6)])),
    "DS1-c": _sum_side(Term(shift=2, muls=((1, 1),), divs=((-1, 1), (-1, 1), (1, 3))),
                       _lv(1, num=[(1, 3, 3)], den=[(1, 1, 1), (-1, 1, 2), (-1, 1, 2)]),
                       _lv(1, num=[(1, 1, 2), (-1, 3, 3)], den=[(-1, 1, 1), (1, 3, 6)])),
    "DS1-d": _sum_side(Term(shift=2, divs=((-1, 1), (-1, 3))),
                       _lv(1, num=[(-1, 3, 3)], den=[(-1, 1, 1), (-1, 1, 2), (-1, 1, 2)]),
                       _lv(1, num=[(-1, 1, 2), (1, 3, 3)], den=[(1, 1, 1), (-1, 3, 6)])),

    "DS2-a": _sum_side(Term(shift=2, divs=((-1, 1), (-1, 3))),
                       _lv(1, num=[(-1, 1, 2), (-1, 1, 1), (-1, 1, 1)], den=[(-1, 3, 6)]),
                       _lv(1, num=[(1, 3, 3)], den=[(1, 1, 1), (-1, 1, 2), (-1, 1, 2)])),
    "DS2-b": _sum_side(Term(shift=2, muls=((1, 1),), divs=((1, 3), (-1, 1), (-1, 1))),
                       _lv(1, num=[(1, 1, 2), (-1, 1, 1), (-1, 1, 1)], den=[(1, 3, 6)]),
                       _lv(1, num=[(-1, 3, 3)], den=[(-1, 1, 1), (-1, 1, 2), (-1, 1, 2)])),
    "DS2-c": _sum_side(Term(shift=2, muls=((-1, 1), (1, 1)), divs=((-1, 3), (1, 3))),
                       _lv(1, num=[(1, 3, 3), (-1, 1, 2)], den=[(1, 1, 1), (-1, 3, 6)]),
                       _lv(1, num=[(-1, 1, 1), (-1, 1, 1), (1, 1, 2)], den=[(1, 3, 6)])),
    "DS2-d": _sum_side(Term(shift=2, muls=((-1, 1), (1, 1)), divs=((-1, 3), (1, 3))),
                       _lv(1, num=[(-1, 3, 3), (1, 1, 2)], den=[(-1, 1, 1), (1, 3, 6)]),
                       _lv(1, num=[(-1, 1, 1), (-1, 1, 1), (-1, 1, 2)], den=[(-1, 3, 6)])),

    "DS3-a": _sum_side(Term(shift=2, divs=((1, 1), (1, 1), (-1, 1), (-1, 1))),
                       _lv(1, num=[(-1, 1, 1), (-1, 1, 1)], den=[(1, 1, 2), (1, 1, 2)]),
                       _lv(1, num=[(1, 3, 3)], den=[(-1, 1, 2), (-1, 1, 2), (1, 1, 1)])),
    "DS3-b": _sum_side(Term(shift=2, divs=((1, 1), (1, 3))),
                       _lv(1, num=[(1, 3, 3)], den=[(1, 1, 1), (1, 1, 2), (1, 1, 2)]),
                       _lv(1, num=[(-1, 1, 1), (-1, 1, 1), (1, 1, 2)], den=[(1, 3, 6)])),
    "DS3-c": _sum_side(Term(shift=2, divs=((1, 1), (1, 1), (-1, 1), (-1, 1))),
                       _lv(1, num=[(-1, 1, 1), (-1, 1, 1)], den=[(1, 1, 2), (1, 1, 2)]),
                       _lv(1, num=[(-1, 3, 3)], den=[(-1, 1, 2), (-1, 1, 2), (-1, 1, 1)])),
    "DS3-d": _sum_side(Term(shift=2, muls=((-1, 1),), divs=((1, 1), (1, 1), (-1, 3))),
                       _lv(1, num=[(-1, 3, 3)], den=[(-1, 1, 1), (1, 1, 2), (1, 1, 2)]),
                       _lv(1, num=[(-1, 1, 1), (-1, 1, 1), (-1, 1, 2)], den=[(-1, 3, 6)])),

    # base q^2: rows step by q^4 and the inner index by q^2
    "DS4-a": _sum_side(Term(shift=4, muls=((1, -1),), divs=((1, 2), (1, 2), (1, 3))),
                       _lv(2, num=[(1, 2, 3), (1, 2, 1)], den=[(1, 2, 4), (1, 2, 4)]),
                       _lv(2, num=[(1, 6, 6)], den=[(1, 2, 2), (1, 2, 5), (1, 2, 3)])),
    "DS4-b": _sum_side(Term(shift=4, muls=((1, -1),), divs=((1, 2), (1, 2), (1, 3))),
                       _lv(2, num=[(1, 2, 3), (1, 2, 1)], den=[(1, 2, 4), (1, 2, 4)]),
                       _lv(2, num=[(-1, 6, 6)], den=[(-1, 2, 2), (1, 2, 5), (1, 2, 3)])),
    "DS4-c": _sum_side(
        Term(shift=4, muls=((1, 1), (1, -1), (-1, 2)), divs=((1, 2), (1, 2), (-1, 6))),
        _lv(2, num=[(-1, 6, 6)], den=[(-1, 2, 2), (1, 2, 4), (1, 2, 4)]),
        _lv(2, num=[(1, 2, 3), (1, 2, 1), (-1, 2, 4)], den=[(-1, 6, 12)])),
    "DS4-d": _sum_side(Term(shift=4, muls=((1, 1), (1, -1)), divs=((1, 2), (1, 6))),
                       _lv(2, num=[(1, 6, 6)], den=[(1, 2, 2), (1, 2, 4), (1, 2, 4)]),
                       _lv(2, num=[(1, 2, 3), (1, 2, 1), (1, 2, 4)], den=[(1, 6, 12)])),
}


# -- the stated product sides, as data ----------------------------------------------------
#
# (q;q)_inf is (1, 1, 1, 1), (-q;q)_inf is (-1, 1, 1, 1), (q^3;q^3)_inf is
# (1, 3, 3, 1) and so on; 1/(1+q+q^2) = (1-q)/(1-q^3) and
# 1/(1-q+q^2) = (1+q)/(1+q^3) are binomials.

_THIRD = ((1, 1),), ((1, 3),)  # muls, divs of 1/(1+q+q^2)
_SIXTH = ((-1, 1),), ((-1, 3),)  # muls, divs of 1/(1-q+q^2)

_RHS = {
    "A1-a": (Term(pochs=((1, 2, 2, 1), (1, 1, 2, -1))), Term(-1, pochs=((1, 3, 3, 1),))),
    "A1-b": (Term(_r(1, 3), pochs=((1, 3, 3, 1),)), Term(_r(-1, 3), pochs=((1, 1, 1, 3),))),
    "A1-c": (Term(_r(1, 3), pochs=((-1, 1, 1, 3),)), Term(_r(-1, 3), pochs=((-1, 3, 3, 1),))),
    "A1-d": (Term(pochs=((-1, 3, 3, 1),)), Term(-1, pochs=((-1, 1, 1, 1), (1, 1, 1, 2)))),
    "A2-a": (Term(pochs=((1, 3, 3, -1),)), Term(-1, pochs=((1, 1, 2, 1), (1, 2, 2, -1)))),
    "A2-b": (Term(_r(1, 3), pochs=((-1, 3, 3, -1),)),
             Term(_r(-1, 3), pochs=((-1, 1, 1, -3),))),
    "A2-c": (Term(_r(1, 2), pochs=((1, 3, 3, 1), (-1, 3, 3, -1))),
             Term(_r(-1, 2), pochs=((1, 1, 1, 1), (-1, 1, 1, -1)))),
    "A2-d": (Term(_r(-1, 2), pochs=((-1, 3, 3, 1), (1, 3, 3, -1))),
             Term(_r(1, 2), pochs=((-1, 1, 1, 1), (1, 1, 1, -1)))),
    "DS1-a": (Term(_r(1, 3), pochs=((-1, 3, 3, 1), (-1, 1, 1, -1), (1, 1, 1, -2))),
              Term(_r(1, 6), pochs=((-1, 3, 3, 1), (1, 1, 1, 1), (1, 3, 3, -1),
                                    (-1, 1, 1, -1))),
              Term(_r(-1, 2))),
    "DS1-b": (Term(_r(1, 3), pochs=((1, 3, 3, 1), (1, 1, 1, -3))),
              Term(_r(-1, 2), pochs=((1, 3, 3, 1), (-1, 1, 1, 1), (-1, 3, 3, -1),
                                     (1, 1, 1, -1))),
              Term(_r(1, 6))),
    "DS1-c": (Term(_r(1, 3), pochs=((-1, 3, 3, 1), (-1, 1, 1, -3))),
              Term(_r(-1, 2), pochs=((-1, 3, 3, 1), (1, 1, 1, 1), (1, 3, 3, -1),
                                     (-1, 1, 1, -1))),
              Term(_r(1, 6))),
    "DS1-d": (Term(_r(1, 3), pochs=((1, 3, 3, 1), (-1, 1, 1, -1), (1, 2, 2, -1))),
              Term(_r(1, 6), pochs=((1, 3, 3, 1), (-1, 1, 1, 1), (-1, 3, 3, -1),
                                    (1, 1, 1, -1))),
              Term(_r(-1, 2))),
    "DS2-a": (Term(_r(1, 6), pochs=((-1, 1, 1, 1), (1, 3, 3, 1), (1, 1, 1, -1),
                                    (-1, 3, 3, -1))),
              Term(_r(1, 3), pochs=((1, 3, 3, 1), (-1, 1, 1, -1), (1, 2, 2, -1))),
              Term(_r(-1, 2))),
    "DS2-b": (Term(_r(-1, 2), pochs=((1, 1, 1, 1), (-1, 3, 3, 1), (-1, 1, 1, -1),
                                     (1, 3, 3, -1))),
              Term(_r(1, 3), pochs=((-1, 3, 3, 1), (-1, 1, 1, -3))),
              Term(_r(1, 6))),
    "DS2-c": (Term(_r(1, 6), pochs=((-1, 1, 1, 3), (-1, 3, 3, -1))),
              Term(_r(-1, 2), pochs=((-1, 1, 1, 1), (1, 2, 2, 1), (1, 3, 3, -1))),
              Term(_r(1, 3))),
    "DS2-d": (Term(_r(-1, 2), pochs=((-1, 1, 1, 1), (1, 2, 2, 1), (1, 3, 3, -1))),
              Term(_r(1, 6), pochs=((-1, 1, 1, 3), (-1, 3, 3, -1))),
              Term(_r(1, 3))),
    "DS3-a": (Term(_r(1, 12), pochs=((1, 3, 3, 1), (1, 1, 1, -3))),
              Term(_r(1, 4), pochs=((1, 3, 3, 1), (1, 1, 1, -1), (-1, 1, 1, -2))),
              Term(_r(-1, 3))),
    "DS3-b": (Term(_r(1, 12), pochs=((-1, 1, 1, 2), (1, 1, 1, -2))),
              Term(_r(-1, 3), pochs=((-1, 1, 1, 2), (1, 1, 1, 1), (1, 3, 3, -1))),
              Term(_r(1, 4))),
    "DS3-c": (Term(_r(1, 4), pochs=((-1, 3, 3, 1), (-1, 1, 1, -1), (1, 1, 1, -2))),
              Term(_r(1, 12), pochs=((-1, 3, 3, 1), (-1, 1, 1, -3))),
              Term(_r(-1, 3))),
    "DS3-d": (Term(_r(1, 4), pochs=((-1, 1, 1, 2), (1, 1, 1, -2))),
              Term(_r(-1, 3), pochs=((-1, 1, 1, 3), (-1, 3, 3, -1))),
              Term(_r(1, 12))),
    "Bprime-a": (Term(muls=_THIRD[0], divs=_THIRD[1], pochs=((1, 6, 6, 1),)),
                 Term(-1, divs=((1, 3),), pochs=((1, 2, 2, 1), (1, 1, 2, 2)))),
    "Bprime-b": (Term(muls=_SIXTH[0], divs=_SIXTH[1], pochs=((-1, 6, 6, 1),)),
                 Term(-1, muls=_SIXTH[0], divs=_SIXTH[1],
                      pochs=((-1, 2, 2, 1), (1, 3, 2, 1), (1, 1, 2, 1)))),
    "Bprime-c": (Term(muls=((1, 1),) + _THIRD[0], divs=_THIRD[1],
                      pochs=((1, 1, 2, -2), (1, 2, 2, -1))),
                 Term(-1, muls=_THIRD[0], divs=_THIRD[1], pochs=((1, 6, 6, -1),))),
    "Bprime-d": (Term(muls=_SIXTH[0], divs=_SIXTH[1],
                      pochs=((-1, 2, 2, -1), (1, 3, 2, -1), (1, 1, 2, -1))),
                 Term(-1, muls=_SIXTH[0], divs=_SIXTH[1], pochs=((-1, 6, 6, -1),))),
    "DS4-a": (Term(_r(1, 3), pochs=((1, 6, 6, 1), (1, 2, 2, -3))),
              Term(-1, shift=1, divs=((1, 3),),
                   pochs=((1, 6, 6, 1), (1, 2, 2, -1), (1, 3, 2, -2))),
              Term(_r(-1, 3), muls=((1, 1), (1, 1)) + _THIRD[0], divs=_THIRD[1])),
    "DS4-b": (Term(pochs=((-1, 6, 6, 1), (-1, 2, 2, -1), (1, 2, 2, -2))),
              Term(-1, shift=1, muls=_SIXTH[0], divs=_SIXTH[1],
                   pochs=((-1, 6, 6, 1), (-1, 2, 2, -1), (1, 3, 2, -1), (1, 1, 2, -1))),
              Term(-1, muls=((1, 1), (1, 1)) + _SIXTH[0], divs=_SIXTH[1])),
    "DS4-c": (Term(pochs=((1, 1, 2, 1), (1, 3, 2, 1), (1, 2, 2, -2))),
              Term(shift=1, muls=_SIXTH[0], divs=_SIXTH[1],
                   pochs=((-1, 2, 2, 1), (1, 1, 2, 1), (1, -1, 2, 1), (-1, 6, 6, -1))),
              Term(-1, shift=1, muls=_SIXTH[0], divs=_SIXTH[1])),
    "DS4-d": (Term(_r(1, 3), pochs=((1, 1, 2, 1), (1, 3, 2, 1), (1, 2, 2, -2))),
              Term(_r(1, 3), shift=1, muls=_THIRD[0], divs=_THIRD[1],
                   pochs=((1, 1, 1, 1), (1, -1, 2, 1), (1, 6, 6, -1))),
              Term(-1, shift=1, muls=_THIRD[0], divs=_THIRD[1])),
}


# -- corollary / relation entries ------------------------------------------------------


def kl_relation(x: ParamValue, y: ParamValue, z: ParamValue):
    """Builders (lhs, rhs) of the double-sum exchange relation

        K(x,y,z) = F(x,y) F(y,z) - L(x,y,z) + diagonal(x,y,z)

    where K is the corollary-shaped double sum, L its index-exchanged dual,
    F(a,b) the single sum with numerator b over denominator a, and the
    diagonal ties the two orderings together.  No C(.,.) helper is formed, so
    z = y never degenerates here; the caller excludes it by precondition.
    All five series are expanded independently.
    """
    def lhs(order: int) -> LaurentSeries:
        return vwp.vwp_double_sum(y, z, x, y, order, Q)

    def rhs(order: int) -> LaurentSeries:
        f_xy = vwp.vwp_single_sum(y, x, order, Q)
        f_yz = vwp.vwp_single_sum(z, y, order, Q)
        big_l = vwp.vwp_double_sum(z, y, y, x, order, Q)
        diag = vwp.diagonal_sum(x, y, z, order, Q)
        return (f_xy * f_yz - big_l + diag).require_order(order)

    return lhs, rhs


# -- the registry -----------------------------------------------------------------------


def _ds_statement(den: int, params, base: str = "") -> str:
    x, y, z = params
    if base:
        return (f"(1/{den}) * [corollary double sum at {base},"
                f" (x,y,z)=({x},{y},{z}), with the m=0 row removed], as an eta-quotient")
    return (f"(1/{den}) * [corollary double sum at (x,y,z)=({x},{y},{z})"
            f" with the m=0 row removed], as an eta-quotient")


def _build_registry() -> dict[str, IdentityEntry]:
    kl_lhs, kl_rhs = kl_relation(_P1, _M1, _W)
    entries = [
        IdentityEntry(
            "Cor-a",
            "sum_{n>=0} q^n (z,1/z;q)_n/(qy,q/y;q)_n = C(z,y)((1-y)(1-1/y)"
            " - (z,1/z;q)_inf/(qy,q/y;q)_inf) at (z,y)=(w,-1)",
            lambda order: vwp.vwp_single_sum(_W, _M1, order, Q),
            lambda order: vwp.corollary_k2(_M1, _W, Q, order),
        ),
        IdentityEntry(
            "Cor-b",
            "sum_{m,n>=0} q^{2m+n} (y,1/y;q)_m (z,1/z;q)_{m+n}"
            "/((qx,q/x;q)_m (qy,q/y;q)_{m+n}) = D(x,y)C(z,y)C(z,x)"
            " - D(x,z)C(z,y)C(y,x)(qz,q/z;q)_inf/(qy,q/y;q)_inf"
            " + D(y,z)C(z,y)(C(y,x)-C(z,x))(qz,q/z;q)_inf/(qx,q/x;q)_inf"
            " at (x,y,z)=(1,w,-w)",
            lambda order: vwp.vwp_double_sum(_W, _MW, _P1, _W, order, Q),
            lambda order: vwp.corollary_k3(_P1, _W, _MW, Q, order),
        ),
    ]

    # (id, statement, base, corollary parameters, prefactor)
    sums = [
        ("A1-a",
         "sum_{n>=1} q^n (q^n;q)_inf (-q^{n+1};q)_inf^2 (q^3;q^3)_{n-1}"
         " = (q^2;q^2)_inf/(q;q^2)_inf - (q^3;q^3)_inf",
         Q, (_M1, _W), Term(_r(1, 3), pochs=((1, 1, 1, 1), (-1, 1, 1, 2)))),
        ("A1-b",
         "sum_{n>=1} q^n (q^n;q)_inf (q^{n+1};q)_inf^2 (q^3;q^3)_{n-1}"
         " = (1/3)((q^3;q^3)_inf - (q;q)_inf^3)",
         Q, (_P1, _W), Term(_r(1, 3), pochs=((1, 1, 1, 3),))),
        ("A1-c",
         "sum_{n>=1} q^n (-q^n;q)_inf (-q^{n+1};q)_inf^2 (-q^3;q^3)_{n-1}"
         " = (1/3)((-q;q)_inf^3 - (-q^3;q^3)_inf)",
         Q, (_M1, _MW), Term(pochs=((-1, 1, 1, 3),))),
        ("A1-d",
         "sum_{n>=1} q^n (-q^n;q)_inf (q^{n+1};q)_inf^2 (-q^3;q^3)_{n-1}"
         " = (-q^3;q^3)_inf - (-q;q)_inf (q;q)_inf^2",
         Q, (_P1, _MW), Term(pochs=((-1, 1, 1, 1), (1, 1, 1, 2)))),
        ("A2-a",
         "sum_{n>=1} q^n / ((q^{n+1};q)_inf (-q^n;q)_inf^2 (q^3;q^3)_n)"
         " = 1/(q^3;q^3)_inf - (q;q^2)_inf/(q^2;q^2)_inf",
         Q, (_W, _M1), Term(_r(1, 4), pochs=((1, 1, 1, -1), (-1, 1, 1, -2)))),
        ("A2-b",
         "sum_{n>=1} q^n / ((-q^{n+1};q)_inf (-q^n;q)_inf^2 (-q^3;q^3)_n)"
         " = (1/3)(1/(-q^3;q^3)_inf - 1/(-q;q)_inf^3)",
         Q, (_MW, _M1), Term(_r(1, 4), pochs=((-1, 1, 1, -3),))),
        ("A2-c",
         "sum_{n>=1} q^n (q^n;q)_inf (q^3;q^3)_{n-1} / ((-q^{n+1};q)_inf (-q^3;q^3)_n)"
         " = (1/2)((q^3;q^3)_inf/(-q^3;q^3)_inf - (q;q)_inf/(-q;q)_inf)",
         Q, (_MW, _W), Term(_r(1, 3), pochs=((1, 1, 1, 1), (-1, 1, 1, -1)))),
        ("A2-d",
         "sum_{n>=1} q^n (-q^n;q)_inf (-q^3;q^3)_{n-1} / ((q^{n+1};q)_inf (q^3;q^3)_n)"
         " = (-1/2)((-q^3;q^3)_inf/(q^3;q^3)_inf - (-q;q)_inf/(q;q)_inf)",
         Q, (_W, _MW), Term(pochs=((-1, 1, 1, 1), (1, 1, 1, -1)))),
    ]
    ds = [
        ("DS1-a", 3, (_P1, _W, _MW)), ("DS1-b", 3, (_P1, _MW, _W)),
        ("DS1-c", 3, (_M1, _W, _MW)), ("DS1-d", 3, (_M1, _MW, _W)),
        ("DS2-a", 12, (_MW, _M1, _W)), ("DS2-b", 4, (_W, _M1, _MW)),
        ("DS2-c", 12, (_MW, _W, _M1)), ("DS2-d", 4, (_W, _MW, _M1)),
        ("DS3-a", 12, (_P1, _M1, _W)), ("DS3-b", 12, (_P1, _W, _M1)),
        ("DS3-c", 4, (_P1, _M1, _MW)), ("DS3-d", 4, (_P1, _MW, _M1)),
    ]
    sums += [(i, _ds_statement(den, p), Q, p, _const(1, den)) for i, den, p in ds]
    sums += [
        ("Bprime-a",
         "sum_{n>=1} q^{2n-1} (q^{2n+1};q^2)_inf (q^{2n};q^2)_inf"
         " (q^{2n+3};q^2)_inf (q^6;q^6)_{n-1}"
         " = (q^6;q^6)_inf/(1+q+q^2) - (q^2;q^2)_inf (q;q^2)_inf^2/(1-q^3)",
         _Q2, (Q, _W),
         Term(_r(1, 3), shift=-1, divs=((1, 1),), pochs=((1, 2, 2, 1), (1, 1, 2, 2)))),
        ("Bprime-b",
         "sum_{n>=1} q^{2n-1} (q^{2n+1};q^2)_inf (-q^{2n};q^2)_inf"
         " (q^{2n+3};q^2)_inf (-q^6;q^6)_{n-1}"
         " = ((-q^6;q^6)_inf - (-q^2,q^3,q;q^2)_inf)/(1-q+q^2)",
         _Q2, (Q, _MW), Term(shift=-1, divs=((1, 1),), pochs=((1, 1, 2, 2), (-1, 2, 2, 1)))),
        ("Bprime-c",
         "sum_{n>=1} q^{2n-1} / ((q^{2n-1};q^2)_inf (q^{2n+1};q^2)_inf"
         " (q^{2n+2};q^2)_inf (q^6;q^6)_n)"
         " = ((1-q)/((q;q^2)_inf^2 (q^2;q^2)_inf) - 1/(q^6;q^6)_inf)/(1+q+q^2)",
         _Q2, (_W, Q), Term(-1, divs=((1, 1),), pochs=((1, 1, 2, -2), (1, 2, 2, -1)))),
        ("Bprime-d",
         "sum_{n>=1} q^{2n-1} / ((q^{2n-1};q^2)_inf (q^{2n+1};q^2)_inf"
         " (-q^{2n+2};q^2)_inf (-q^6;q^6)_n)"
         " = (1/(-q^2,q^3,q;q^2)_inf - 1/(-q^6;q^6)_inf)/(1-q+q^2)",
         _Q2, (_MW, Q), Term(-1, divs=((1, 1),), pochs=((1, 1, 2, -2), (-1, 2, 2, -1)))),
    ]
    ds4 = [
        ("DS4-a", 3, (_P1, Q, _W), ""), ("DS4-b", 1, (_P1, Q, _MW), ""),
        ("DS4-c", 1, (_P1, _MW, Q), ""),
        ("DS4-d", 3, (_P1, _W, Q),
         " = (1/3)(q,q^3;q^2)_inf/(q^2;q^2)_inf^2"
         " + q(q;q)_inf(q^-1;q^2)_inf/(3(1+q+q^2)(q^6;q^6)_inf)"
         " - q/(1+q+q^2), middle term read as a quotient"),
    ]
    sums += [(i, _ds_statement(den, p, "base q^2") + extra, _Q2, p, _const(1, den))
             for i, den, p, extra in ds4]

    for identity, statement, base, params, prefactor in sums:
        entries.append(IdentityEntry(identity, statement, _LHS[identity],
                                     _product_side(*_RHS[identity]),
                                     Specialization(base, params, prefactor)))

    entries.append(IdentityEntry(
        "KL-relation",
        "K(x,y,z) = F(x,y)F(y,z) - L(x,y,z) + sum_{m>=0} q^{2m}"
        " (y,1/y;q)_m (z,1/z;q)_m/((qx,q/x;q)_m (qy,q/y;q)_m)"
        " at (x,y,z)=(1,-1,w), where L exchanges the index roles of K",
        kl_lhs,
        kl_rhs,
    ))
    entries.append(IdentityEntry(
        "Bailey-3psi3",
        "sum_{n in Z} (b,1/b;q)_n/(qb,q/b;q)_n (-1)^n q^{n(n+1)/2}"
        " = (q;q)_inf^2/(qb,q/b;q)_inf at b=w",
        lambda order: vwp.bailey_3psi3_sum(_W, order),
        _product_side(Term(pochs=((1, 1, 1, 2), (OMEGA, 1, 1, -1), (OMEGA_BAR, 1, 1, -1)))),
    ))
    return {e.id: e for e in entries}


_REGISTRY = _build_registry()


def registry() -> MappingProxyType:
    """The identity registry, keyed by id, in canonical order."""
    return MappingProxyType(_REGISTRY)


def _get(identity_id: str) -> IdentityEntry:
    try:
        return _REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentity(identity_id) from None


def _compare(identity_id: str, order: int, sides) -> VerifyReport:
    """Build (lhs, rhs) = sides() and compare them below ``order``.

    Every library exception raised on the way becomes an error report that
    names the exception type; an order that is not an int raises TypeError,
    one below 1 ValueError.
    """
    order = _as_int(order, "order")
    if order < 1:
        raise ValueError(f"{identity_id}: order must be >= 1, got {order}")
    start = time.perf_counter()
    try:
        lhs, rhs = sides()
        exponent = lhs.agrees_below(rhs, order)
    except _EXPANSION_ERRORS as exc:
        return VerifyReport(identity_id, order, "error", None,
                            time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if exponent is None:
        return VerifyReport(identity_id, order, "equal", None, elapsed)
    fm = FirstMismatch(exponent, lhs.coeff(exponent), rhs.coeff(exponent))
    return VerifyReport(identity_id, order, "mismatch", fm, elapsed)


def verify(identity_id: str, order: int = DEFAULT_ORDER) -> VerifyReport:
    """Expand both sides of one identity to ``order`` and compare exactly."""
    entry = _get(identity_id)
    return _compare(entry.id, order, lambda: (entry.lhs(order), entry.rhs(order)))


def verify_all(order: int = DEFAULT_ORDER) -> list[VerifyReport]:
    """Verify every registry entry; reports come back in registry order."""
    return [verify(i, order) for i in _REGISTRY]


def _derived(sp: Specialization, order: int) -> LaurentSeries:
    """prefactor * (corollary RHS - first row) at the recorded parameters.

    The first row is the constant 1 for single sums and the two-parameter
    corollary RHS for double sums.  The parameters are inverted once, and
    the difference is one product sum (``vwp._product_state``): the
    corollary's Terms and the first row's, negated, with the Terms that
    differ only in their scalar collected into one kernel call.  At roots
    of unity the C, D and A factors are scalars, and the first row's
    quotient (z, 1/z; base)_inf / (base*y, base/y; base)_inf is written as
    D(z) times the three-parameter corollary's (base*z, base/z; base)_inf
    / (base*y, base/y; base)_inf, so the six Terms of a double sum take
    three calls.  The prefactor applies to that state in one more, so a
    prefactor that lowers the valuation or the order needs the closed form
    that much beyond ``order``.  Only the prefactor's state is cut to
    ``order`` and built into a series.
    """
    work = order + _term_slack(sp.prefactor)
    pairs = vwp._inverted(*sp.params)
    if len(pairs) == 2:
        terms = vwp._k2_terms(*pairs, sp.base) + (Term(-1),)
    else:
        first = vwp._k2_terms(*pairs[1:], sp.base)
        terms = vwp._k3_terms(*pairs, sp.base) + tuple(replace(t, scalar=-t.scalar)
                                                       for t in first)
    return _built(_required(_apply(sp.prefactor, vwp._product_state(terms, work)), order))


def derivation_check(identity_id: str, order: int = DEFAULT_ORDER) -> VerifyReport:
    """Re-derive an entry's sum side from its recorded corollary specialization
    and compare it against the entry's directly-summed LHS."""
    entry = _get(identity_id)
    sp = entry.specialization
    if sp is None:
        raise MissingSpecialization(identity_id)
    return _compare(entry.id, order, lambda: (entry.lhs(order), _derived(sp, order)))
