"""Overpartition pairs, their statistics, and generating-function cross-checks.

An overpartition may overline the first occurrence of any part value, so a
part is a (value, overlined) pair and overlined parts are automatically
distinct.  "Distinct parts" additionally forbids repeated plain values; a
plain copy of an overlined value is still allowed (e.g. 2~,2 is fine).

``enumerate_pairs_A`` lists the pairs (lambda1, lambda2) of weight n with
both components in distinct parts where the smallest part s of lambda1 is
overlined, every overlined part of lambda2 exceeds s, and every plain part
of lambda2 is a multiple of 3 below 3s.  ``a_stats`` splits the count by the
parity of the number of plain parts (A0/A1) and of all parts (A2/A3); the
signed counts A' = A0 - A1 and A'' = A3 - A2 have single-sum generating
functions, the sum sides of catalog entries A1-a and A1-b, which
``gf_check_Aprime``/``gf_check_Adblprime`` verify against the counts,
coefficient by coefficient.

The counts never touch the series engine, on purpose: each gf check
compares two independent computations.  ``a_stats`` reads the parity
statistics off three signed counts, since a pair's sign is the product of
its parts' signs: each is a sum, over the smallest part, of products of
binomials (1 +- x^k) on integer lists.  ``enumerate_pairs_A`` builds every
pair as validated ``Overpartition`` objects and is the reference those
counts are tested against.  Listing pairs is capped at weight 30
(``ENUMERATION_CAP``), counting them at weight 200 (``STATS_CAP``).
``count_table`` expands the four plain counting families on integer lists
too: (-q;q)_inf from binomial passes, a division by (q;q)_inf, and three
squares.  It self-validates them against listed counts below weight 15:
distinct parts beside distinct parts or unrestricted partitions, listed as
plain tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .coeffring import CycRat
from .laurent import LaurentSeries, _as_int, _built
from .catalog import VerifyReport, _compare, registry

ENUMERATION_CAP = 30  # weight cap of enumerate_pairs_A, which builds every pair
STATS_CAP = 200  # weight cap of a_stats and the gf checks, which count pairs

FAMILIES = ("overpartitions", "overpartitions_distinct", "pairs", "pairs_distinct")


Part = tuple[int, bool]  # (value, overlined)


def _canon(parts) -> tuple[Part, ...]:
    # descending by value, overlined before plain at equal value
    return tuple(sorted(parts, key=lambda p: (-p[0], not p[1])))


@dataclass(frozen=True)
class Overpartition:
    """Parts in canonical order (descending, overlined first at ties)."""

    parts: tuple[Part, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", _canon(self.parts))
        seen = set()
        for value, overlined in self.parts:
            if value < 1:
                raise ValueError(f"part values must be positive, got {value}")
            if overlined:
                if value in seen:
                    raise ValueError(f"overlined part {value} repeated")
                seen.add(value)

    @classmethod
    def of(cls, overlined=(), plain=()) -> "Overpartition":
        return cls(tuple((v, True) for v in overlined)
                   + tuple((v, False) for v in plain))

    @property
    def weight(self) -> int:
        return sum(v for v, _ in self.parts)

    @property
    def n_parts(self) -> int:
        return len(self.parts)

    @property
    def n_plain(self) -> int:
        return sum(1 for _, ov in self.parts if not ov)

    def has_distinct_parts(self) -> bool:
        plain = [v for v, ov in self.parts if not ov]
        return len(plain) == len(set(plain))

    def render(self) -> str:
        return ",".join(f"{v}~" if ov else str(v) for v, ov in self.parts)

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class OverpartitionPair:
    first: Overpartition
    second: Overpartition

    @property
    def weight(self) -> int:
        return self.first.weight + self.second.weight

    @property
    def n_parts(self) -> int:
        return self.first.n_parts + self.second.n_parts

    @property
    def n_plain(self) -> int:
        return self.first.n_plain + self.second.n_plain

    def render(self) -> str:
        return self.first.render() + "|" + self.second.render()

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class AStats:
    """Counts of ``enumerate_pairs_A(n)`` split by the two parity statistics.

    A0/A1 split by the parity of the number of plain (non-overlined) parts
    across both components; A2/A3 by the parity of the total number of parts.
    A = A0 + A1 = A2 + A3, Aprime = A0 - A1, Adblprime = A3 - A2.
    """

    n: int
    A: int
    A0: int
    A1: int
    A2: int
    A3: int
    Aprime: int
    Adblprime: int


# -- raw part-list generators ------------------------------------------------------------


def _distinct_parts(total: int, min_part: int) -> Iterator[tuple[int, ...]]:
    """Tuples of distinct parts >= min_part summing to total, descending."""
    if total == 0:
        yield ()
        return
    for s in range(min_part, total + 1):
        for rest in _distinct_parts(total - s, s + 1):
            yield rest + (s,)


def _partitions(total: int, min_part: int) -> Iterator[tuple[int, ...]]:
    """Unrestricted partitions with parts >= min_part, descending."""
    if total == 0:
        yield ()
        return
    for s in range(min_part, total + 1):
        for rest in _partitions(total - s, s):
            yield rest + (s,)


def _mult3_below(total: int, s: int) -> Iterator[tuple[int, ...]]:
    """Distinct multiples of 3 below 3s summing to total, descending."""
    if total % 3 != 0:
        return
    if total == 0:
        yield ()
        return
    for t in _distinct_parts(total // 3, 1):
        if t and t[0] > s - 1:
            continue
        yield tuple(3 * v for v in t)


# -- the A family ------------------------------------------------------------------------


def _check_weight(caller: str, n: int, cap: int) -> None:
    if _as_int(n, "weight") < 1:
        raise ValueError(f"{caller} needs n >= 1, got {n}")
    if n > cap:
        raise ValueError(
            f"{caller}: weight is capped at n <= {cap} (got {n});"
            " use the series coefficients beyond that")


def _firsts(s: int, w: int) -> list[Overpartition]:
    """lambda1s in distinct parts of weight s + w whose smallest part s is overlined."""
    return [Overpartition.of((s,) + o1, n1)
            for j in range(w + 1)
            for o1 in _distinct_parts(j, s + 1)
            for n1 in _distinct_parts(w - j, s)]


def _seconds(s: int, w: int) -> list[Overpartition]:
    """lambda2s in distinct parts of weight w that may go with smallest part s.

    Overlined parts exceed s; plain parts are multiples of 3 below 3s.
    """
    return [Overpartition.of(o2, n2)
            for j in range(w + 1)
            for o2 in _distinct_parts(j, s + 1)
            for n2 in _mult3_below(w - j, s)]


def enumerate_pairs_A(n: int) -> list[OverpartitionPair]:
    """All pairs of weight n counted by the A statistic, canonically sorted.

    lambda1 and lambda2 both have distinct parts; the smallest part s of
    lambda1 is overlined; lambda2's overlined parts are > s and its plain
    parts are multiples of 3 below 3s.
    """
    _check_weight("enumerate_pairs_A", n, ENUMERATION_CAP)
    pairs: list[OverpartitionPair] = []
    for s in range(1, n + 1):
        for w1 in range(n - s + 1):
            seconds = _seconds(s, n - s - w1)
            pairs.extend(OverpartitionPair(f, g) for f in _firsts(s, w1) for g in seconds)
    pairs.sort(key=lambda p: (p.first.parts, p.second.parts))
    return pairs


def _times_binomial(poly: list[int], k: int, sign: int) -> None:
    """Multiply ``poly`` in place by 1 + sign * x^k, truncated to its length."""
    for t in range(len(poly) - 1, k - 1, -1):
        poly[t] += sign * poly[t - k]


def _signed_counts(n: int, over: int, plain: int) -> list[int]:
    """Coefficients of x^0..x^n in S = sum_{s>=1} over x^s P_s R_s.

    P_s = prod_{k>s} (1 + over x^k)^2 prod_{k>=s} (1 + plain x^k) and
    R_s = prod_{1<=j<s} (1 + plain x^{3j}).  A pair with smallest part s of
    lambda1 is the overlined s, lambda1's overlined parts > s and plain
    parts >= s, lambda2's overlined parts > s and plain parts 3j with j < s;
    so S counts each pair once with sign over^(overlined parts) *
    plain^(plain parts).  P_s is built as s falls and R_s as s rises.
    """
    prefixes = []  # R_s for s = 1..n, as (exponent, coefficient) up to x^(n - s)
    prefix = [1] + [0] * n
    for s in range(1, n + 1):
        prefixes.append([(e, c) for e, c in enumerate(prefix[:n - s + 1]) if c])
        _times_binomial(prefix, 3 * s, plain)
    out = [0] * (n + 1)
    suffix = [1] + [0] * n
    for s in range(n, 0, -1):
        _times_binomial(suffix, s, plain)
        for e, c in prefixes[s - 1]:
            lo = s + e
            out[lo:] = [a + over * c * b for a, b in zip(out[lo:], suffix)]
        _times_binomial(suffix, s, over)
        _times_binomial(suffix, s, over)
    return out


_A_STATS: tuple[AStats, ...] = ()  # a_stats(m) for m = 1, 2, ..., the one table kept


def _a_stats_upto(n: int) -> tuple[AStats, ...]:
    """``a_stats(m)`` for m = 1..n, read off the one table kept.

    A table shorter than n is rebuilt to twice its length, at most
    ``STATS_CAP`` rows, or to n rows if that is more; calls for n = 1, 2, ...
    in turn then rebuild it about log2(n) times instead of n times.
    """
    global _A_STATS
    if n > len(_A_STATS):
        _A_STATS = _a_stats_table(max(n, min(2 * len(_A_STATS), STATS_CAP)))
    return _A_STATS[:n]


def _a_stats_table(n: int) -> tuple[AStats, ...]:
    """``a_stats(m)`` for m = 1..n from three signed counts.

    Signs multiply, so each parity statistic is one signed count:
    A = S_{1,1}, A' = S_{1,-1} (sign of the plain parts) and
    A'' = -S_{-1,-1} (sign of all parts, odd counted positive).
    """
    total = _signed_counts(n, 1, 1)
    aprime = _signed_counts(n, 1, -1)
    adbl = [-c for c in _signed_counts(n, -1, -1)]
    return tuple(AStats(n=m, A=a, A0=(a + ap) // 2, A1=(a - ap) // 2,
                        A2=(a - ad) // 2, A3=(a + ad) // 2, Aprime=ap, Adblprime=ad)
                 for m, a, ap, ad in zip(range(1, n + 1), total[1:], aprime[1:], adbl[1:]))


def a_stats(n: int) -> AStats:
    """Parity-split counts of the pairs ``enumerate_pairs_A(n)`` lists.

    The pairs are counted, not built: see ``_a_stats_table``.
    """
    _check_weight("a_stats", n, STATS_CAP)
    return _a_stats_upto(n)[-1]


def _gf_report(check_id: str, order: int, counted, identity: str) -> VerifyReport:
    """Counts ``counted(AStats)`` against registry entry ``identity``'s sum side below
    order, reported by ``catalog._compare``: a library exception while expanding
    the sum side is an error report, as in every catalog check."""
    order = _as_int(order, "order")
    if order < 2:
        raise ValueError(f"{check_id} needs order >= 2, got {order}")
    if order - 1 > STATS_CAP:
        raise ValueError(
            f"{check_id}: counts are capped at n <= {STATS_CAP},"
            f" so order must be <= {STATS_CAP + 1} (got {order})")

    def sides():
        counts = {s.n: CycRat(counted(s)) for s in _a_stats_upto(order - 1)}
        return LaurentSeries.from_terms(counts, order), registry()[identity].lhs(order)

    return _compare(check_id, order, sides)


def gf_check_Aprime(order: int) -> VerifyReport:
    """Counted A'(n) against its single-sum series for all n < order.

    The series is sum_{n>=1} q^n (q^n;q)_inf (-q^{n+1};q)_inf^2 (q^3;q^3)_{n-1},
    the sum side of catalog entry A1-a: overlined-part generators carry no
    sign, so it tracks the parity of the plain parts.
    """
    return _gf_report("gen-Aprime", order, lambda s: s.Aprime, "A1-a")


def gf_check_Adblprime(order: int) -> VerifyReport:
    """Counted A''(n) against its single-sum series for all n < order.

    The series is sum_{n>=1} q^n (q^n;q)_inf (q^{n+1};q)_inf^2 (q^3;q^3)_{n-1},
    the sum side of catalog entry A1-b: every part alternates, so it tracks
    the parity of all parts.
    """
    return _gf_report("gen-Adblprime", order, lambda s: s.Adblprime, "A1-b")


# -- plain counting families -------------------------------------------------------------


def _size(tuples: Iterator[tuple[int, ...]]) -> int:
    return sum(1 for _ in tuples)


@lru_cache(maxsize=None)
def _listed(m: int, distinct: bool) -> int:
    """How many partitions of m there are, in distinct parts if ``distinct``; listed."""
    return _size((_distinct_parts if distinct else _partitions)(m, 1))


@lru_cache(maxsize=None)
def _component_count(n: int, distinct: bool) -> int:
    """Overpartitions of n, with distinct plain parts if ``distinct``.

    An overpartition is a tuple of distinct overlined parts from D(j, 1)
    beside a tuple of plain parts of n - j: any partition, or one in
    distinct parts when ``distinct`` is set.  Both halves are listed, once
    per size.
    """
    return sum(_listed(j, True) * _listed(n - j, distinct) for j in range(n + 1))


def _family_count(family: str, n: int) -> int:
    if family == "overpartitions":
        return _component_count(n, False)
    if family == "overpartitions_distinct":
        return _component_count(n, True)
    distinct = family == "pairs_distinct"
    return sum(_component_count(k, distinct) * _component_count(n - k, distinct)
               for k in range(n + 1))


def _over_one_minus(poly: list[int], k: int) -> None:
    """Divide ``poly`` in place by 1 - x^k, truncated to its length."""
    for t in range(k, len(poly)):
        poly[t] += poly[t - k]


def _square(poly: list[int]) -> list[int]:
    """``poly`` squared, truncated to its length; every entry must be >= 0.

    Kronecker substitution: the entries are packed as bytes into one integer,
    little end first, in slots wide enough for any entry of the square, so
    one big-integer product does the whole convolution.
    """
    size = len(poly)
    width = (2 * max(poly).bit_length() + size.bit_length()) // 8 + 1
    packed = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in poly), "little")
    square = (packed * packed).to_bytes(2 * size * width, "little")
    return [int.from_bytes(square[i:i + width], "little")
            for i in range(0, size * width, width)]


def count_table(order: int) -> dict[str, list[int]]:
    """Coefficients of q^0..q^(order-1) of every family's counting series.

    overpartitions: (-q;q)_inf/(q;q)_inf; overpartitions_distinct:
    (-q;q)_inf^2; pairs and pairs_distinct square those.  (-q;q)_inf is
    built by binomial passes (1 + x^k) and divided by (1 - x^k) for
    overpartitions, all on integer lists.  Coefficients below min(order, 15)
    are checked against the listed counts before returning, so a wrong table
    cannot come back quietly.
    """
    order = _as_int(order, "order")
    if order < 1:
        raise ValueError(f"count_table needs order >= 1, got {order}")
    distinct = [1] + [0] * (order - 1)  # (-q;q)_inf
    for k in range(1, order):
        _times_binomial(distinct, k, 1)
    single = list(distinct)
    for k in range(1, order):
        _over_one_minus(single, k)
    single_distinct = _square(distinct)
    table = {"overpartitions": single,
             "overpartitions_distinct": single_distinct,
             "pairs": _square(single),
             "pairs_distinct": _square(single_distinct)}
    for family, counts in table.items():
        for n in range(min(order, 15)):
            want = _family_count(family, n)
            if counts[n] != want:
                raise RuntimeError(
                    f"count_table: {family} series coefficient at q^{n} is"
                    f" {counts[n]} but the listing counts {want}")
    return table


def count_series(family: str, order: int) -> LaurentSeries:
    """One family's counting series below order: ``count_table(order)[family]`` as a series."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if _as_int(order, "order") < 1:
        raise ValueError(f"count_series needs order >= 1, got {order}")
    counts = count_table(order)[family]
    return _built((0, [counts], 1, order))
