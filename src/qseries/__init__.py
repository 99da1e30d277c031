"""Exact q-series engine for very-well-poised multisum identities.

The package is layered bottom-up:

- ``coeffring``: the coefficient field Q(w), w a primitive cube root of unity;
- ``laurent``: truncated Laurent series over Q(w) and q-Pochhammer products;
- ``vwp``: the very-well-poised multisum machinery (multisum/product sides,
  bilateral companions, finite truncations, rational helper coefficients);
- ``catalog``: the registry of concrete identities with exact verification;
- ``combinat``: overpartition-pair enumeration and the matching generating
  functions;
- ``cli``: the ``qseries`` command-line front end.

Everything is exact: coefficients are arbitrary-precision elements of Q(w),
series comparisons are coefficient-by-coefficient through a truncation order,
and no floating point enters any computation.
"""

from .coeffring import CycRat, OMEGA, OMEGA_BAR, ONE, ZERO, rat
from .laurent import LaurentSeries, ParamValue, Q
from .vwp import (
    DegenerateC,
    a_coeff,
    c_helper,
    corollary_k2,
    corollary_k3,
    d_helper,
    f_bilateral,
    l_finite_n,
    lhs_multisum,
    rhs_products,
)
from .catalog import (
    IdentityEntry,
    UnknownIdentity,
    VerifyReport,
    derivation_check,
    registry,
    verify,
    verify_all,
)
from .combinat import (
    AStats,
    Overpartition,
    OverpartitionPair,
    a_stats,
    count_series,
    enumerate_pairs_A,
    gf_check_Adblprime,
    gf_check_Aprime,
)

__all__ = [
    "AStats",
    "CycRat",
    "DegenerateC",
    "IdentityEntry",
    "LaurentSeries",
    "Overpartition",
    "OverpartitionPair",
    "ParamValue",
    "Q",
    "OMEGA",
    "OMEGA_BAR",
    "ONE",
    "UnknownIdentity",
    "VerifyReport",
    "ZERO",
    "a_coeff",
    "a_stats",
    "c_helper",
    "corollary_k2",
    "corollary_k3",
    "count_series",
    "d_helper",
    "derivation_check",
    "enumerate_pairs_A",
    "f_bilateral",
    "gf_check_Adblprime",
    "gf_check_Aprime",
    "l_finite_n",
    "lhs_multisum",
    "rat",
    "registry",
    "rhs_products",
    "verify",
    "verify_all",
]

__version__ = "0.1.0"
