"""Identity registry: canonical contents, verification, derivation checks."""

from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

from qseries import catalog, combinat, laurent, vwp
from qseries.catalog import (
    FirstMismatch,
    IdentityEntry,
    MissingSpecialization,
    UnknownIdentity,
    VerifyReport,
    derivation_check,
    registry,
    verify,
    verify_all,
)
from qseries.coeffring import CycRat, DivisionByZero, OMEGA, ONE
from qseries.laurent import InvalidBase, LaurentSeries, OrderExceeded, ParamValue, ZeroFactor
from qseries.vwp import Term

EXPECTED_IDS = [
    "Cor-a", "Cor-b",
    "A1-a", "A1-b", "A1-c", "A1-d",
    "A2-a", "A2-b", "A2-c", "A2-d",
    "DS1-a", "DS1-b", "DS1-c", "DS1-d",
    "DS2-a", "DS2-b", "DS2-c", "DS2-d",
    "DS3-a", "DS3-b", "DS3-c", "DS3-d",
    "Bprime-a", "Bprime-b", "Bprime-c", "Bprime-d",
    "DS4-a", "DS4-b", "DS4-c", "DS4-d",
    "KL-relation", "Bailey-3psi3",
]


def test_registry_contents():
    reg = registry()
    assert list(reg) == EXPECTED_IDS
    for key, entry in reg.items():
        assert entry.id == key
        assert entry.statement  # every entry states what it claims


def test_registry_read_only():
    with pytest.raises(TypeError):
        registry()["Cor-a"] = None


@pytest.mark.parametrize("identity_id", [
    "Cor-a", "A1-a", "A2-b", "DS2-c", "Bprime-d", "DS4-d", "KL-relation",
    "Bailey-3psi3",
])
def test_verify_representatives(identity_id):
    report = verify(identity_id, 24)
    assert report.status == "equal"
    assert report.first_mismatch is None
    assert report.id == identity_id
    assert report.order == 24
    assert report.elapsed >= 0.0


@pytest.mark.parametrize("identity_id", ["Cor-b", "KL-relation", "DS3-d"])
def test_verify_double_sums_at_high_order(identity_id):
    # the chained sums' per-index caps and top indices only bind far from the
    # low orders the other tests run at
    assert verify(identity_id, 150).status == "equal"


def test_verify_all_low_order():
    reports = verify_all(16)
    assert [r.id for r in reports] == EXPECTED_IDS
    assert all(r.status == "equal" for r in reports)


@pytest.mark.parametrize("order", [0, -1])
@pytest.mark.parametrize("check", [
    verify, derivation_check, lambda identity_id, order: verify_all(order),
], ids=["verify", "derivation_check", "verify_all"])
def test_non_positive_order_is_rejected(check, order):
    # no coefficient lies below such an order, so a report would be vacuous
    with pytest.raises(ValueError, match="order must be >= 1"):
        check("DS4-d", order)


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        verify("DS9-a")
    with pytest.raises(UnknownIdentity):
        derivation_check("nope")


@pytest.mark.parametrize("identity_id", [
    "A1-a", "A2-c", "DS1-b", "DS3-d", "Bprime-a", "DS4-a",
])
def test_derivation_representatives(identity_id):
    report = derivation_check(identity_id, 20)
    assert report.status == "equal"


def test_derivation_requires_specialization():
    with pytest.raises(MissingSpecialization):
        derivation_check("Cor-a")
    with pytest.raises(MissingSpecialization):
        derivation_check("KL-relation")


def test_every_sum_entry_has_specialization():
    reg = registry()
    with_spec = {k for k, e in reg.items() if e.specialization is not None}
    families = ("A1-", "A2-", "DS1-", "DS2-", "DS3-", "Bprime-", "DS4-")
    expected = {k for k in reg if k.startswith(families)}
    assert with_spec == expected


def test_mismatch_report_contract(monkeypatch):
    bad = IdentityEntry(
        id="FAKE-mismatch",
        statement="deliberately unequal sides",
        lhs=lambda order: LaurentSeries.one(order),
        rhs=lambda order: LaurentSeries.from_terms({0: ONE, 3: ONE}, order),
    )
    monkeypatch.setitem(catalog._REGISTRY, bad.id, bad)
    report = verify(bad.id, 10)
    assert report.status == "mismatch"
    assert report.first_mismatch == FirstMismatch(3, CycRat(0), ONE)


def test_error_report_contract(monkeypatch):
    def boom(order):
        raise ZeroFactor("synthetic vanishing factor")

    bad = IdentityEntry(
        id="FAKE-error",
        statement="raises while expanding",
        lhs=boom,
        rhs=lambda order: LaurentSeries.one(order),
    )
    monkeypatch.setitem(catalog._REGISTRY, bad.id, bad)
    report = verify(bad.id, 10)
    assert report.status == "error"
    assert report.first_mismatch is None
    assert "synthetic vanishing factor" in report.message


@pytest.mark.parametrize("error", [OrderExceeded, DivisionByZero, InvalidBase])
def test_expansion_errors_become_reports(monkeypatch, error):
    def boom(order):
        raise error("synthetic expansion failure")

    bad = IdentityEntry(
        id="FAKE-raise",
        statement="raises while expanding",
        lhs=boom,
        rhs=lambda order: LaurentSeries.one(order),
        specialization=registry()["A1-a"].specialization,
    )
    monkeypatch.setitem(catalog._REGISTRY, bad.id, bad)
    for report in (verify(bad.id, 10), derivation_check(bad.id, 10)):
        assert report.status == "error"
        assert report.first_mismatch is None
        assert report.message == f"{error.__name__}: synthetic expansion failure"


@pytest.mark.parametrize("identity_id", EXPECTED_IDS)
def test_truncation_is_consistent(identity_id):
    # a side built at a high order, cut down, is the side built at the low
    # order; at order 4 DS4's first-term factor (1 - q^-1) needs its slack,
    # and at orders 1-3 a sum side's first term can lie at or above the order
    entry = registry()[identity_id]
    for side in (entry.lhs, entry.rhs):
        high = side(24)
        for low in (1, 2, 3, 4, 7, 19):
            assert high.truncate(low) == side(low)


def test_statements_mention_resolved_reading():
    # DS4-d's displayed middle term is recorded with its quotient resolution
    assert "quotient" in registry()["DS4-d"].statement


# -- conjugate roots of unity reach the kernel paired ------------------------------------


def _catalog_reports():
    """Every entry at order 24, and every derivation, closed form included, at order 14."""
    return verify_all(24) + [derivation_check(i, 14)
                             for i, e in registry().items() if e.specialization]


def test_no_root_of_unity_steps_through_the_kernel(monkeypatch):
    # every w-factor at e != 0 meets its conjugate and is paired into rational
    # factors, so what reaches the kernel with a w-part is a scalar (e = 0)
    kernel, w_steps = vwp._binomials, []

    def spy(f, muls=(), divs=(), *args, **kwargs):
        w_steps.extend(c for c in (*muls, *divs) if c[1] and c[3])
        return kernel(f, muls, divs, *args, **kwargs)

    # and every Pochhammer power of +-1 or of a conjugate pair on a base q^s is
    # rewritten as an eta quotient, not listed factor by factor
    factors, listed = vwp._factors, []

    def factor_spy(a, base, count=None, below=None):
        if count is None:  # a power of a Term; a level's step gives a count
            listed.append((a.coeff, base.coeff))
        return factors(a, base, count, below)

    monkeypatch.setattr(vwp, "_binomials", spy)
    monkeypatch.setattr(vwp, "_factors", factor_spy)
    assert {r.status for r in _catalog_reports()} == {"equal"}
    assert w_steps == []
    units = {ONE, -ONE, OMEGA, OMEGA.conjugate(), -OMEGA, -OMEGA.conjugate()}
    assert [(c, b) for c, b in listed if c in units and b == ONE] == []


def test_a_wrong_conjugate_table_is_caught(monkeypatch):
    # w with w^2 paired as -w with -w^2 (1 - x + x^2 in place of 1 + x + x^2), and
    # the reverse: some entry must see it
    table = {c: (partner, -s) for c, (partner, s) in laurent._CONJUGATES.items()}
    monkeypatch.setattr(laurent, "_CONJUGATES", table)
    assert {r.status for r in _catalog_reports()} != {"equal"}


# -- every one-edit mutant of the catalog's data is seen ---------------------------------


def _replaced(items: tuple, i: int, *new) -> tuple:
    """``items`` with entry i replaced by ``new`` (dropped when ``new`` is empty)."""
    return items[:i] + new + items[i + 1:]


def _term_mutants(t: Term):
    """Negate or shift a Term; raise one of its Pochhammer powers or negate that
    power's coefficient; negate or drop one of its binomials."""
    yield replace(t, scalar=-t.scalar)
    yield replace(t, shift=t.shift + 1)
    for j, (c, e, s, k) in enumerate(t.pochs):
        for poch in ((c, e, s, k + (1 if k > 0 else -1)), (-c, e, s, k)):
            yield replace(t, pochs=_replaced(t.pochs, j, poch))
    for field in ("muls", "divs"):
        bins = getattr(t, field)
        for j, (c, e) in enumerate(bins):
            for new in ((), ((-c, e),)):
                yield replace(t, **{field: _replaced(bins, j, *new)})


def _product_mutants(terms: tuple):
    """Drop a Term, or change it by one edit."""
    for i, t in enumerate(terms):
        yield _replaced(terms, i)
        for mutant in _term_mutants(t):
            yield _replaced(terms, i, mutant)


def _sum_mutants(levels: tuple, first: Term):
    """Change the first term by one edit; add 1 to a level's weight; negate or
    drop a level binomial."""
    for mutant in _term_mutants(first):
        yield levels, mutant
    for j, lv in enumerate(levels):
        weight = ParamValue(lv.weight.coeff, lv.weight.exp + 1)
        yield _replaced(levels, j, replace(lv, weight=weight)), first
        for field in ("num", "den"):
            bins = getattr(lv, field)
            for i, (p, step) in enumerate(bins):
                for new in ((), ((ParamValue(-p.coeff, p.exp), step),)):
                    mutant = replace(lv, **{field: _replaced(bins, i, *new)})
                    yield _replaced(levels, j, mutant), first


def _mutant_sides(side):
    """Builders of every one-edit mutant of a side written as data; none for a
    side built by a vwp function."""
    if getattr(side, "func", None) is vwp._product_sum:
        return [partial(vwp._product_sum, terms) for terms in _product_mutants(side.args[0])]
    if getattr(side, "func", None) is vwp._chain_sum:
        return [partial(vwp._chain_sum, levels, first=first)
                for levels, first in _sum_mutants(side.args[0], side.keywords["first"])]
    return []


def _seen(build, want, order) -> bool:
    """Whether the series ``build()`` differs from ``want`` below ``order`` or raises."""
    try:
        return build().agrees_below(want, order) is not None
    except catalog._EXPANSION_ERRORS:
        return True


def test_every_one_edit_mutant_of_the_data_is_seen():
    # each side written as data, under each one-edit change to it, must
    # differ from the other side at order 24 or raise: an entry whose sides
    # cannot see such a change checks less than it claims
    order, probed, survivors = 24, 0, []
    for identity_id, entry in registry().items():
        for side, other in ((entry.lhs, entry.rhs), (entry.rhs, entry.lhs)):
            mutants = _mutant_sides(side)
            if not mutants:
                continue
            want = other(order)
            for n, mutant in enumerate(mutants):
                if not _seen(partial(mutant, order), want, order):
                    survivors.append((identity_id, side is entry.lhs, n))
            probed += len(mutants)
    assert survivors == []
    assert probed == 1191  # on 28 sum sides and 29 product sides


def _specialization_mutants(sp: catalog.Specialization):
    """Change the prefactor by one edit; negate a parameter's coefficient;
    raise the base's q-power by 1."""
    for mutant in _term_mutants(sp.prefactor):
        yield replace(sp, prefactor=mutant)
    for i, p in enumerate(sp.params):
        yield replace(sp, params=_replaced(sp.params, i, ParamValue(-p.coeff, p.exp)))
    yield replace(sp, base=ParamValue(sp.base.coeff, sp.base.exp + 1))


def test_every_one_edit_mutant_of_a_specialization_is_seen():
    # the derivation check re-derives the sum side from the recorded
    # specialization; each one-edit change to it must be seen at order 24
    order, probed, survivors = 24, 0, []
    for identity_id, entry in registry().items():
        if entry.specialization is None:
            continue
        want = entry.lhs(order)
        for n, sp in enumerate(_specialization_mutants(entry.specialization)):
            if not _seen(partial(catalog._derived, sp, order), want, order):
                survivors.append((identity_id, n))
            probed += 1
    assert survivors == []
    assert probed == 206  # on 28 specializations


def test_derived_builds_one_series_per_call(monkeypatch):
    # the corollary's Terms minus the first row's are one product sum, kept as
    # a kernel state; the prefactor applies to that state, which is cut to
    # the order as a state: one series is built, and no corollary is
    stores = [0]
    store = LaurentSeries._store

    def counted(s, *args):
        stores[0] += 1
        store(s, *args)

    monkeypatch.setattr(LaurentSeries, "_store", counted)
    specs = [e.specialization for e in registry().values() if e.specialization]
    for sp in specs:
        catalog._derived(sp, 14)
    assert stores[0] == len(specs)


def test_work_of_the_derivations(monkeypatch):
    # the 28 derivations at order 14: 176 kernel calls and 72 stores when each
    # built its corollaries as series; one collected sum each now.  Terms that
    # differ only in a Q(w) scalar (C, D and A at roots of unity) share a call
    calls, stores = [0], [0]
    kernel, store = vwp._binomials, LaurentSeries._store

    def counted_kernel(*args, **kwargs):
        calls[0] += 1
        return kernel(*args, **kwargs)

    def counted_store(s, *args):
        stores[0] += 1
        store(s, *args)

    monkeypatch.setattr(vwp, "_binomials", counted_kernel)
    monkeypatch.setattr(LaurentSeries, "_store", counted_store)
    for e in registry().values():
        if e.specialization:
            catalog._derived(e.specialization, 14)
    assert (calls[0], stores[0]) == (112, 28)


_PAIR = (ParamValue(OMEGA), ParamValue(-ONE))

# Each builds its result in one store: the sums and differences are one kernel
# call with the receiver as its addend, and the orders are cut on kernel states.
ONE_STORE = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "agrees_below": lambda a, b: a.agrees_below(b, 10),
    "require_order": lambda a, b: a.require_order(10),
    "lhs_multisum": lambda a, b: vwp.lhs_multisum(_PAIR, 12),
    "f_bilateral": lambda a, b: vwp.f_bilateral(_PAIR, 12),
    "sum-side": lambda a, b: registry()["A1-a"].lhs(12),
}


@pytest.mark.parametrize("case", ONE_STORE)
def test_each_result_is_stored_once(monkeypatch, case):
    a = LaurentSeries.from_terms({-2: OMEGA, 0: CycRat(Fraction(1, 2)), 3: ONE}, 12)
    b = vwp.rhs_products(_PAIR, 12)
    stores = [0]
    store = LaurentSeries._store

    def counted(s, *args):
        stores[0] += 1
        store(s, *args)

    monkeypatch.setattr(LaurentSeries, "_store", counted)
    ONE_STORE[case](a, b)
    assert stores[0] == 1


# One entry point per path an order takes: catalog checks, the chained sums, the
# product sides, the counting tables, series storage and the kernel's cap.
ORDER_ENTRIES = {
    "verify": lambda n: verify("A1-a", n),
    "verify-Cor-a": lambda n: verify("Cor-a", n),
    "derivation_check": lambda n: derivation_check("A1-a", n),
    "lhs_multisum": lambda n: vwp.lhs_multisum((ParamValue(OMEGA), ParamValue(-ONE)), n),
    "rhs_products": lambda n: vwp.rhs_products((ParamValue(OMEGA), ParamValue(-ONE)), n),
    "gf_check_Aprime": lambda n: combinat.gf_check_Aprime(n),
    "count_series": lambda n: combinat.count_series("pairs", n),
    "LaurentSeries.one": LaurentSeries.one,
    "div_one_minus": lambda n: LaurentSeries.one(30).div_one_minus(ONE, 1, n),
    # below the receiver's order 10 every order here would be ignored, not refused
    "truncate": lambda n: LaurentSeries.one(10).truncate(n),
    "inverse": lambda n: LaurentSeries.one(10).inverse(n),
}


@pytest.mark.parametrize("order", [24.0, 12.5, 0.5, Fraction(12)], ids=repr)
@pytest.mark.parametrize("entry", ORDER_ENTRIES)
def test_order_must_be_an_int(entry, order):
    with pytest.raises(TypeError, match=f"^expected an int order, got {type(order).__name__}: "):
        ORDER_ENTRIES[entry](order)


class SubInt(int):
    """An int subclass, as bool is one."""


@pytest.mark.parametrize("entry", ORDER_ENTRIES)
def test_order_int_subclass_is_its_int(entry):
    got, want = ORDER_ENTRIES[entry](SubInt(12)), ORDER_ENTRIES[entry](12)
    assert type(got.order) is int
    if isinstance(want, VerifyReport):
        got, want = replace(got, elapsed=0), replace(want, elapsed=0)
    assert got == want


# Every count, index and weight a public function takes, with the kind its
# TypeError names; each entry is valid at 2.
COUNT_ENTRIES = {
    "poch_finite": ("count", lambda n: laurent.poch_finite(ParamValue(2), laurent.Q, n)),
    "poch_finite_inv": ("count",
                        lambda n: laurent.poch_finite_inv(ParamValue(2), laurent.Q, n, 5)),
    "l_finite_n": ("count", lambda n: vwp.l_finite_n((ParamValue(OMEGA),), n, 8)),
    "a_coeff-k": ("count", lambda n: vwp.a_coeff(n, 1, (ParamValue(OMEGA), ParamValue(-ONE)))),
    "a_coeff-i": ("index", lambda n: vwp.a_coeff(2, n, (ParamValue(OMEGA), ParamValue(-ONE)))),
    "a_stats": ("weight", combinat.a_stats),
    "enumerate_pairs_A": ("weight", combinat.enumerate_pairs_A),
}


@pytest.mark.parametrize("value", [2.5, 2.0, Fraction(2)], ids=repr)
@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_count_must_be_an_int(entry, value):
    kind, build = COUNT_ENTRIES[entry]
    with pytest.raises(TypeError, match=f"^expected an int {kind}, got {type(value).__name__}: "):
        build(value)


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_count_int_subclass_is_its_int(entry):
    _, build = COUNT_ENTRIES[entry]
    assert build(SubInt(2)) == build(2)
