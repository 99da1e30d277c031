"""Integer-only expansions of the four overpartition counting series.

Written independently of qseries (no import of it) so the ``counts`` workload
can check every row of ``qseries counts`` against numbers the package did not
compute:

    overpartitions           (-q;q)_inf / (q;q)_inf
    overpartitions_distinct  (-q;q)_inf^2
    pairs                    the square of overpartitions
    pairs_distinct           the square of overpartitions_distinct
"""

from __future__ import annotations


def _times_one_plus(a: list[int], n: int) -> None:
    """a <- a * (1 + q^n), in place, truncated to len(a)."""
    for i in range(len(a) - 1, n - 1, -1):
        a[i] += a[i - n]


def _over_one_minus(a: list[int], n: int) -> None:
    """a <- a / (1 - q^n), in place, truncated to len(a)."""
    for i in range(n, len(a)):
        a[i] += a[i - n]


def _square(a: list[int]) -> list[int]:
    size = len(a)
    return [sum(a[k] * a[i - k] for k in range(i + 1)) for i in range(size)]


def count_table(size: int) -> dict[str, list[int]]:
    """Coefficients of q^0 .. q^(size-1) of each family, keyed like qseries.combinat.FAMILIES."""
    minus_q = [1] + [0] * (size - 1)  # (-q;q)_inf
    for n in range(1, size):
        _times_one_plus(minus_q, n)
    over = list(minus_q)
    for n in range(1, size):
        _over_one_minus(over, n)
    distinct = _square(minus_q)
    return {
        "overpartitions": over,
        "overpartitions_distinct": distinct,
        "pairs": _square(over),
        "pairs_distinct": _square(distinct),
    }
