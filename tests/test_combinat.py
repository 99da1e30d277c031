"""Overpartition-pair enumeration, statistics, and generating functions."""

import itertools
import pathlib

import pytest

from qseries.coeffring import CycRat
from qseries.combinat import (
    ENUMERATION_CAP,
    FAMILIES,
    Overpartition,
    OverpartitionPair,
    _a_stats_upto,
    _component_count,
    _distinct_parts,
    _partitions,
    a_stats,
    count_series,
    count_table,
    enumerate_pairs_A,
    gf_check_Adblprime,
    gf_check_Aprime,
)

DATA = pathlib.Path(__file__).parent / "data"


# -- Overpartition basics ---------------------------------------------------------


def test_overpartition_construction():
    p = Overpartition.of(overlined=(1, 2), plain=(2,))
    assert p.weight == 5
    assert p.n_parts == 3
    assert p.n_plain == 1
    assert p.render() == "2~,2,1~"
    assert str(p) == "2~,2,1~"
    assert p.has_distinct_parts()


def test_overpartition_validation():
    with pytest.raises(ValueError):
        Overpartition.of(overlined=(2, 2))  # overlined values must be distinct
    with pytest.raises(ValueError):
        Overpartition.of(plain=(0,))
    with pytest.raises(ValueError):
        Overpartition.of(overlined=(-1,))


def test_overpartition_distinctness_flag():
    assert not Overpartition.of(plain=(3, 3)).has_distinct_parts()
    assert Overpartition.of(overlined=(3,), plain=(3,)).has_distinct_parts()


def test_empty_overpartition():
    p = Overpartition.of()
    assert p.weight == 0
    assert p.n_parts == 0
    assert p.render() == ""


def test_pair_render():
    pair = OverpartitionPair(Overpartition.of(overlined=(1,)),
                             Overpartition.of())
    assert pair.render() == "1~|"
    assert pair.weight == 1


# -- the A family -------------------------------------------------------------------


def test_enumerate_n1():
    pairs = enumerate_pairs_A(1)
    assert [p.render() for p in pairs] == ["1~|"]


def test_enumerate_bounds():
    with pytest.raises(ValueError):
        enumerate_pairs_A(0)
    with pytest.raises(ValueError):
        enumerate_pairs_A(ENUMERATION_CAP + 1)


@pytest.mark.parametrize("func", [enumerate_pairs_A, a_stats])
@pytest.mark.parametrize("n", [0, ENUMERATION_CAP + 1])
def test_bounds_error_names_the_caller(func, n):
    with pytest.raises(ValueError, match=rf"^{func.__name__}\b"):
        func(n)


def test_enumerate_n5_golden():
    golden = (DATA / "a5_pairs.txt").read_text().split()
    pairs = enumerate_pairs_A(5)
    assert sorted(p.render() for p in pairs) == sorted(golden)


def test_a_stats_n5():
    s = a_stats(5)
    assert (s.A, s.A0, s.A1, s.A2, s.A3) == (14, 7, 7, 7, 7)
    assert s.Aprime == 0
    assert s.Adblprime == 0


@pytest.mark.parametrize("n", range(1, 17))
def test_stats_invariants(n):
    s = a_stats(n)
    assert s.n == n
    assert s.A0 + s.A1 == s.A
    assert s.A2 + s.A3 == s.A
    assert s.Aprime == s.A0 - s.A1
    assert s.Adblprime == s.A3 - s.A2


@pytest.mark.parametrize("n", range(1, 15))
def test_a_stats_matches_enumeration(n):
    # the listing stays the reference for the product-rule counts
    pairs = enumerate_pairs_A(n)
    s = a_stats(n)
    assert s.A == len(pairs)
    assert s.A0 == sum(1 for p in pairs if p.n_plain % 2 == 0)
    assert s.A2 == sum(1 for p in pairs if p.n_parts % 2 == 0)


def test_a_stats_golden_to_cap():
    # rows "n A A0 A2" for n = 1..30, recorded from a tally of validated
    # Overpartition objects
    golden = [tuple(map(int, line.split()))
              for line in (DATA / "a_stats_30.txt").read_text().splitlines()]
    assert [row[0] for row in golden] == list(range(1, ENUMERATION_CAP + 1))
    upto = _a_stats_upto(ENUMERATION_CAP)
    assert [(s.n, s.A, s.A0, s.A2) for s in upto] == golden
    assert a_stats(ENUMERATION_CAP) == upto[-1]


@pytest.mark.parametrize("n", range(1, 13))
def test_enumeration_satisfies_definition(n):
    pairs = enumerate_pairs_A(n)
    renders = [p.render() for p in pairs]
    assert len(set(renders)) == len(renders)  # no duplicates
    for pair in pairs:
        assert pair.weight == n
        first, second = pair.first, pair.second
        assert first.has_distinct_parts()
        assert second.has_distinct_parts()
        s = min(v for v, _ in first.parts)
        assert (s, True) in first.parts  # smallest part overlined
        for value, overlined in second.parts:
            if overlined:
                assert value > s
            else:
                assert value % 3 == 0 and value < 3 * s


# -- generating functions --------------------------------------------------------------


@pytest.mark.parametrize("order", [15, ENUMERATION_CAP + 1])
def test_gf_check_Aprime(order):
    report = gf_check_Aprime(order)
    assert report.status == "equal"


@pytest.mark.parametrize("order", [15, ENUMERATION_CAP + 1])
def test_gf_check_Adblprime(order):
    report = gf_check_Adblprime(order)
    assert report.status == "equal"


@pytest.mark.parametrize("order", [1, ENUMERATION_CAP + 2])
def test_gf_check_order_bounds(order):
    with pytest.raises(ValueError):
        gf_check_Aprime(order)


# -- counting series --------------------------------------------------------------------


def _overpartitions(n, distinct):
    """Overlined parts D(j, 1) beside plain parts of n - j, as validated objects."""
    for j in range(n + 1):
        for ov in _distinct_parts(j, 1):
            plains = _distinct_parts(n - j, 1) if distinct else _partitions(n - j, 1)
            for pl in plains:
                yield Overpartition.of(ov, pl)


def _overlined_subsets(n):
    """Every overpartition of n: a partition with any set of its values overlined."""
    def partitions(total, largest):
        if total == 0:
            yield ()
        for v in range(min(total, largest), 0, -1):
            for rest in partitions(total - v, v):
                yield (v,) + rest

    for parts in partitions(n, n):
        values = sorted(set(parts))
        for k in range(len(values) + 1):
            for chosen in itertools.combinations(values, k):
                plain = list(parts)
                for v in chosen:
                    plain.remove(v)
                yield Overpartition.of(chosen, plain)


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("n", range(15))
def test_component_count_matches_listing(n, distinct):
    listed = list(_overpartitions(n, distinct))
    renders = {p.render() for p in listed}
    assert len(renders) == len(listed)
    assert all(p.weight == n for p in listed)
    want = {p.render() for p in _overlined_subsets(n)
            if not distinct or p.has_distinct_parts()}
    assert renders == want
    assert _component_count(n, distinct) == len(listed)


def test_count_series_overpartitions():
    s = count_series("overpartitions", 8)
    got = [int(s.coeff(n).a) for n in range(8)]
    assert got == [1, 2, 4, 8, 14, 24, 40, 64]


def test_count_series_pairs():
    s = count_series("pairs", 6)
    assert s.coeff(0) == CycRat(1)
    assert s.coeff(1) == CycRat(4)


def test_count_series_distinct_families():
    sd = count_series("overpartitions_distinct", 6)
    assert sd.coeff(0) == CycRat(1)
    assert sd.coeff(1) == CycRat(2)
    spd = count_series("pairs_distinct", 6)
    assert spd.coeff(0) == CycRat(1)
    assert spd.coeff(1) == CycRat(4)


def test_count_series_validation():
    with pytest.raises(ValueError):
        count_series("nope", 5)
    with pytest.raises(ValueError):
        count_series("pairs", 0)
    with pytest.raises(ValueError, match=r"^count_table needs order >= 1"):
        count_table(0)
    assert set(FAMILIES) == {
        "overpartitions", "overpartitions_distinct", "pairs", "pairs_distinct",
    }
