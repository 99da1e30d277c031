"""Overpartition-pair enumeration, statistics, and generating functions."""

import dataclasses
import itertools
import math
import pathlib

import pytest

from qseries import catalog, combinat
from qseries.coeffring import ONE, CycRat
from qseries.combinat import (
    ENUMERATION_CAP,
    FAMILIES,
    STATS_CAP,
    AStats,
    Overpartition,
    OverpartitionPair,
    _a_stats_table,
    _a_stats_upto,
    _component_count,
    _distinct_parts,
    _mult3_below,
    _partitions,
    _square,
    a_stats,
    count_series,
    count_table,
    enumerate_pairs_A,
    gf_check_Adblprime,
    gf_check_Aprime,
)
from qseries.laurent import Q, ParamValue, ZeroFactor, poch_infinite, poch_infinite_inv

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


@pytest.mark.parametrize("func, n", [
    pytest.param(func, n, id=f"{n}-{func.__name__}")
    for func, cap in ((enumerate_pairs_A, ENUMERATION_CAP), (a_stats, STATS_CAP))
    for n in (0, cap + 1)])
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


def _parity_tally(tuples):
    """(count, how many have an even number of parts) of one listed class."""
    count = even = 0
    for t in tuples:
        count += 1
        even += len(t) % 2 == 0
    return count, even


def _joined(overlined, plain):
    """Tally of the components whose halves come from paired classes.

    ``overlined[j]`` and ``plain[j]`` are (count, even) tallies of the classes
    the overlined and the plain half are chosen from for split j.  Returns
    (count, how many have an even number of plain parts, how many have an
    even number of parts), summed over the splits; by the product rule a
    part count is even when both halves' parities agree.
    """
    count = plain_even = parts_even = 0
    for (co, eo), (cp, ep) in zip(overlined, plain):
        count += co * cp
        plain_even += co * ep
        parts_even += eo * ep + (co - eo) * (cp - ep)
    return count, plain_even, parts_even


def _listed_a_stats(n):
    """``a_stats(m)`` for m = 1..n from parity tallies of listed classes of parts.

    D(t, p) holds the tuples of distinct parts >= p summing to t and M(t, s)
    the distinct multiples of 3 below 3s summing to t.  Each D(t, 1) is
    listed once and bucketed by smallest part, so the parity tally of D(t, p)
    is a suffix sum over p; each M(t, s) is listed once and tallied.  A
    lambda1 of weight s + w is the overlined s, an overlined half from
    D(j, s + 1) and a plain half from D(w - j, s); a lambda2 of weight w has
    an overlined half from D(j, s + 1) and a plain half from M(w - j, s).  A
    pair of weight m splits as s + w1 + w2 with its two components chosen
    independently, so each split contributes the product of the two classes'
    counts, and a parity of the pair is even when both components' parities
    agree.
    """
    dist = {}
    for t in range(n + 1):
        least = [[] for _ in range(n + 2)]  # D(t, 1) by smallest part, () last
        for parts in _distinct_parts(t, 1):
            least[parts[-1] if parts else n + 1].append(parts)
        count = even = 0
        for p in range(n + 1, 0, -1):  # D(t, p): the tuples whose parts are all >= p
            c, e = _parity_tally(least[p])
            count, even = count + c, even + e
            dist[t, p] = count, even
    mult3 = {(t, s): _parity_tally(_mult3_below(t, s))
             for t in range(n + 1) for s in range(1, n + 1)}
    firsts, seconds = {}, {}
    for s in range(1, n + 1):
        for w in range(n - s + 1):
            overlined = [dist[j, s + 1] for j in range(w + 1)]
            c1, plain1, parts1 = _joined(overlined, [dist[w - j, s] for j in range(w + 1)])
            # the overlined s is one more part of lambda1, flipping its parity
            firsts[s, w] = (c1, plain1, c1 - parts1)
            seconds[s, w] = _joined(overlined, [mult3[w - j, s] for j in range(w + 1)])
    out = []
    for m in range(1, n + 1):
        a = a0 = a2 = 0
        for s in range(1, m + 1):
            for w1 in range(m - s + 1):
                c1, plain1, parts1 = firsts[s, w1]
                c2, plain2, parts2 = seconds[s, m - s - w1]
                a += c1 * c2
                a0 += plain1 * plain2 + (c1 - plain1) * (c2 - plain2)
                a2 += parts1 * parts2 + (c1 - parts1) * (c2 - parts2)
        out.append(AStats(n=m, A=a, A0=a0, A1=a - a0, A2=a2, A3=a - a2,
                          Aprime=2 * a0 - a, Adblprime=a - 2 * a2))
    return tuple(out)


def test_signed_counts_match_class_listing_to_60():
    # the parity tallies of listed classes are the reference for the signed products
    assert _a_stats_upto(60) == _listed_a_stats(60)


def _triangular(n):
    """j if n = j(j + 1)/2, else None."""
    j = (math.isqrt(8 * n + 1) - 1) // 2
    return j if j * (j + 1) // 2 == n else None


def _euler_q3(n):
    """Coefficient of q^n in (q^3;q^3)_inf = sum_{k in Z} (-1)^k q^(3k(3k-1)/2)."""
    if n % 3:
        return 0
    m = n // 3
    for k in range(-m - 1, m + 2):
        if k * (3 * k - 1) // 2 == m:
            return (-1) ** (k % 2)
    return 0


def _jacobi_cube(n):
    """Coefficient of q^n in (q;q)_inf^3 = sum_{j>=0} (-1)^j (2j + 1) q^(j(j+1)/2)."""
    j = _triangular(n)
    return 0 if j is None else (-1) ** (j % 2) * (2 * j + 1)


def test_signed_counts_match_closed_forms_to_200():
    # A1-a's product side by Gauss and Euler, A1-b's by Euler and Jacobi;
    # these share no code with the counts or the series engine
    stats = _a_stats_upto(200)
    assert [s.n for s in stats] == list(range(1, 201))
    assert a_stats(STATS_CAP) == stats[-1]
    for s in stats:
        assert s.Aprime == (_triangular(s.n) is not None) - _euler_q3(s.n), s.n
        assert 3 * s.Adblprime == _euler_q3(s.n) - _jacobi_cube(s.n), s.n
    assert [_euler_q3(n) for n in range(16)] == [1, 0, 0, -1, 0, 0, -1, 0, 0, 0, 0, 0,
                                                 0, 0, 0, 1]


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


@pytest.mark.parametrize("order", [15, ENUMERATION_CAP + 1, STATS_CAP + 1])
def test_gf_check_Aprime(order):
    report = gf_check_Aprime(order)
    assert report.status == "equal"


@pytest.mark.parametrize("order", [15, ENUMERATION_CAP + 1, STATS_CAP + 1])
def test_gf_check_Adblprime(order):
    report = gf_check_Adblprime(order)
    assert report.status == "equal"


@pytest.mark.parametrize("order", [1, STATS_CAP + 2])
def test_gf_check_order_bounds(order):
    with pytest.raises(ValueError):
        gf_check_Aprime(order)


def test_gf_check_reports_a_library_exception(monkeypatch):
    # like every catalog check, an expansion that raises is an error report
    def vanishing(order):
        raise ZeroFactor("a factor vanishes")

    entry = catalog.registry()["A1-a"]
    monkeypatch.setitem(catalog._REGISTRY, "A1-a", dataclasses.replace(entry, lhs=vanishing))
    report = gf_check_Aprime(15)
    assert (report.id, report.order, report.status) == ("gen-Aprime", 15, "error")
    assert report.first_mismatch is None
    assert report.message == "ZeroFactor: a factor vanishes"


def _counting_signed_counts(monkeypatch):
    """Start from no table; the returned list gets n of every _signed_counts(n, ...)."""
    calls, signed_counts = [], combinat._signed_counts

    def counted(n, over, plain):
        calls.append(n)
        return signed_counts(n, over, plain)

    monkeypatch.setattr(combinat, "_signed_counts", counted)
    monkeypatch.setattr(combinat, "_A_STATS", ())
    return calls


def test_a_stats_share_one_table(monkeypatch):
    reference = _a_stats_table(STATS_CAP)
    calls = _counting_signed_counts(monkeypatch)
    rows = [a_stats(n) for n in range(1, STATS_CAP + 1)]
    # one table, doubled up to the cap: three signed counts per rebuild
    assert calls == [n for n in (1, 2, 4, 8, 16, 32, 64, 128, STATS_CAP) for _ in range(3)]
    assert tuple(rows) == reference
    assert _a_stats_upto(STATS_CAP) == reference and len(calls) == 27


def test_gf_check_counts_only_the_rows_it_reads(monkeypatch):
    reference = _a_stats_table(30)[-1]
    calls = _counting_signed_counts(monkeypatch)
    assert gf_check_Aprime(26).status == "equal"
    assert gf_check_Adblprime(26).status == "equal"
    assert calls == [25] * 3  # the second check reuses the first one's rows
    assert a_stats(30) == reference
    assert calls == [25] * 3 + [50] * 3  # doubled, not grown to 30


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


def _series_table(order):
    """The counting series as Pochhammer products multiplied in the series engine."""
    minus_q = poch_infinite(ParamValue(CycRat(-1), 1), Q, order)
    single = minus_q * poch_infinite_inv(ParamValue(ONE, 1), Q, order)
    single_distinct = minus_q * minus_q
    return {"overpartitions": single,
            "overpartitions_distinct": single_distinct,
            "pairs": single * single,
            "pairs_distinct": single_distinct * single_distinct}


def test_count_table_matches_series_products():
    # the series-built table is the reference for the integer passes
    table = count_table(150)
    reference = _series_table(150)
    assert list(table) == list(FAMILIES)
    for family, series in reference.items():
        assert table[family] == [int(series.coeff(n).a) for n in range(150)], family
        assert all(series.coeff(n) == CycRat(series.coeff(n).a) for n in range(150))


@pytest.mark.parametrize("order", [1, 2, 15, 61])
@pytest.mark.parametrize("family", FAMILIES)
def test_count_series_matches_series_products(family, order):
    series = count_series(family, order)
    reference = _series_table(order)[family]
    assert series == reference
    stored = [(s.offset, s.order, s._den, s._parts) for s in (series, reference)]
    assert stored[0] == stored[1]  # the same stored data


@pytest.mark.parametrize("bits", [0, 1, 8, 9, 64])
@pytest.mark.parametrize("size", [1, 2, 300])
def test_square_matches_convolution(size, bits):
    # every entry at the widest value of its bit length, so every slot of
    # the packed square is as full as it can get
    poly = [(1 << bits) - 1] * size
    want = [sum(poly[i] * poly[n - i] for i in range(n + 1)) for n in range(size)]
    assert _square(poly) == want


def _times(dense, sparse):
    """``dense`` times the {exponent: coefficient} series ``sparse``, truncated."""
    out = [0] * len(dense)
    for e, c in sparse.items():
        for n in range(e, len(dense)):
            out[n] += c * dense[n - e]
    return out


def _gauss(order):
    """(q;q)_inf/(-q;q)_inf = sum_{k in Z} (-1)^k q^(k^2), below order."""
    return {k * k: 2 * (-1) ** k if k else 1 for k in range(math.isqrt(order - 1) + 1)}


def _euler(order, step):
    """(q^step;q^step)_inf = sum_{k in Z} (-1)^k q^(step k(3k-1)/2), below order."""
    terms = {}
    k = 0
    while step * k * (3 * k - 1) // 2 < order:
        for j in {k, -k}:
            if step * j * (3 * j - 1) // 2 < order:
                terms[step * j * (3 * j - 1) // 2] = (-1) ** (k % 2)
        k += 1
    return terms


def test_count_table_matches_closed_forms_to_400():
    # Gauss: overpartitions * (q;q)/(-q;q) = 1.  Euler at q and q^2, with
    # (-q;q)_inf = (q^2;q^2)_inf/(q;q)_inf: overpartitions_distinct * (q;q)^2
    # = (q^2;q^2)^2.  The pair families are the squares.  These share no code
    # with combinat or the series engine.
    order = 400
    table = count_table(order)
    one = [1] + [0] * (order - 1)
    gauss, euler, euler2 = _gauss(order), _euler(order, 1), _euler(order, 2)
    assert _times(table["overpartitions"], gauss) == one
    assert _times(_times(table["pairs"], gauss), gauss) == one
    distinct_rhs = _times(_times(one, euler2), euler2)
    assert _times(_times(table["overpartitions_distinct"], euler), euler) == distinct_rhs
    pairs_lhs = table["pairs_distinct"]
    for _ in range(4):
        pairs_lhs = _times(pairs_lhs, euler)
    assert pairs_lhs == _times(_times(distinct_rhs, euler2), euler2)
    assert [euler.get(n, 0) for n in range(16)] == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0,
                                                   -1, 0, 0, -1]
    assert [gauss.get(n, 0) for n in range(10)] == [1, -2, 0, 0, 2, 0, 0, 0, 0, -2]


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
