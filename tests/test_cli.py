"""Command-line interface, exercised in-process through main(argv)."""

import json

import pytest

from qseries import catalog, cli, combinat
from qseries.catalog import IdentityEntry
from qseries.coeffring import DivisionByZero, ONE
from qseries.laurent import InvalidBase, LaurentSeries, OrderExceeded


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_text(capsys):
    code, out, err = run(capsys, "list")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 32
    assert lines[0].startswith("Cor-a")
    assert err == ""


def test_list_json(capsys):
    code, out, _ = run(capsys, "list", "--format", "json")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert len(rows) == 32
    assert all(set(row) == {"id", "statement"} for row in rows)
    assert rows[-1]["id"] == "Bailey-3psi3"


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "A1-a", "--order", "20")
    assert code == 0
    assert out.startswith("A1-a")
    assert "equal" in out
    assert "order=20" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "Cor-b",
                       "--order", "15", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["id"] == "Cor-b"
    assert row["order"] == 15
    assert row["status"] == "equal"
    assert row["first_mismatch"] is None
    assert isinstance(row["elapsed_ms"], int)


def test_verify_unknown_identity(capsys):
    code, out, err = run(capsys, "verify", "--identity", "A9-z")
    assert code == 2
    assert out == ""
    assert "unknown identity" in err


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify-all", "--order", "12")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 32
    assert [line.split()[0] for line in lines] == sorted(catalog.registry())
    assert all("equal" in line for line in lines)


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    bad = IdentityEntry(
        id="FAKE-cli",
        statement="unequal on purpose",
        lhs=lambda order: LaurentSeries.one(order),
        rhs=lambda order: LaurentSeries.from_terms({1: ONE}, order),
    )
    monkeypatch.setitem(catalog._REGISTRY, bad.id, bad)
    code, out, _ = run(capsys, "verify", "--identity", "FAKE-cli",
                       "--order", "8", "--format", "json")
    assert code == 1
    row = json.loads(out)
    assert row["status"] == "mismatch"
    assert row["first_mismatch"]["exponent"] == 0


@pytest.mark.parametrize("error", [OrderExceeded, DivisionByZero, InvalidBase])
def test_verify_expansion_error_exit_code(capsys, monkeypatch, error):
    def boom(order):
        raise error("injected")

    bad = IdentityEntry(id="FAKE-raise", statement="raises", lhs=boom,
                        rhs=lambda order: LaurentSeries.one(order))
    monkeypatch.setitem(catalog._REGISTRY, bad.id, bad)
    code, out, _ = run(capsys, "verify", "--identity", "FAKE-raise", "--order", "8")
    assert code == 1
    assert f"[{error.__name__}: injected]" in out


def test_derivation(capsys):
    code, out, _ = run(capsys, "derivation", "--identity", "DS1-a",
                       "--order", "15")
    assert code == 0
    assert "equal" in out


def test_derivation_without_specialization(capsys):
    code, _, err = run(capsys, "derivation", "--identity", "KL-relation")
    assert code == 2
    assert "no recorded specialization" in err


def test_counts_text(capsys):
    code, out, _ = run(capsys, "counts", "--max-n", "4")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].split() == ["n", "pbar", "pbar_d", "pp", "pp_d"]
    assert lines[1].split() == ["0", "1", "1", "1", "1"]
    assert lines[2].split() == ["1", "2", "2", "4", "4"]
    assert lines[5].split()[1] == "14"  # pbar(4)


def test_counts_json(capsys):
    code, out, _ = run(capsys, "counts", "--max-n", "2", "--format", "json")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert rows[1] == {"n": 1, "overpartitions": 2, "overpartitions_distinct": 2,
                       "pairs": 4, "pairs_distinct": 4}


def _product_counts(order):
    """(-q;q)_inf/(q;q)_inf, (-q;q)_inf^2 and their squares, in integers."""
    distinct = [1] + [0] * (order - 1)
    partitions = [1] + [0] * (order - 1)
    for k in range(1, order):
        for n in range(order - 1, k - 1, -1):
            distinct[n] += distinct[n - k]
        for n in range(k, order):
            partitions[n] += partitions[n - k]

    def times(a, b):
        return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(order)]

    single, single_distinct = times(distinct, partitions), times(distinct, distinct)
    return {"overpartitions": single, "overpartitions_distinct": single_distinct,
            "pairs": times(single, single),
            "pairs_distinct": times(single_distinct, single_distinct)}


def test_counts_json_at_benchmark_size(capsys):
    code, out, err = run(capsys, "counts", "--max-n", "149", "--format", "json")
    rows = [json.loads(line) for line in out.splitlines()]
    want = _product_counts(150)
    assert code == 0
    assert err == ""
    assert rows == [{"n": n, **{f: want[f][n] for f in want}} for n in range(150)]
    assert rows[149]["pairs"].bit_length() > 64  # beyond any fixed-width integer


def test_counts_self_check_failure(capsys, monkeypatch):
    # a listed count that disagrees with the series makes count_table raise,
    # and the CLI turns that into one error line and exit status 1
    listed = combinat._family_count
    monkeypatch.setattr(combinat, "_family_count",
                        lambda family, n: listed(family, n) + (family == "pairs" and n == 3))
    with pytest.raises(RuntimeError, match=r"^count_table: pairs series coefficient at q\^3 is"):
        combinat.count_table(10)
    code, out, err = run(capsys, "counts", "--max-n", "9")
    assert code == 1
    assert out == ""
    assert err.startswith("qseries: count_table: pairs ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "--identity", "A1-a", "--order", "0"),
    ("counts", "--max-n", "-1"),
    ("no-such-command",),
    (),
])
def test_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(list(argv))
    assert exc_info.value.code == 2


def test_env_default_order(capsys, monkeypatch):
    monkeypatch.setenv("QSERIES_DEFAULT_ORDER", "9")
    code, out, _ = run(capsys, "verify", "--identity", "Cor-a",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == 9


def test_env_default_order_invalid(monkeypatch):
    monkeypatch.setenv("QSERIES_DEFAULT_ORDER", "zero")
    with pytest.raises(SystemExit):
        cli.main(["list"])


def test_parser_reuse_follows_env_default_order(capsys, monkeypatch):
    # one process, several main() calls: each sees the default order in force
    # when it runs, and a bad flag after a good run is still a usage error
    for value in ("7", "11", "7"):
        monkeypatch.setenv("QSERIES_DEFAULT_ORDER", value)
        code, out, _ = run(capsys, "verify", "--identity", "Cor-a", "--format", "json")
        assert code == 0
        assert json.loads(out)["order"] == int(value)
    code, _, _ = run(capsys, "verify", "--identity", "Cor-a", "--order", "5")
    assert code == 0
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["verify", "--identity", "Cor-a", "--no-such-flag"])
    assert exc_info.value.code == 2
    code, out, _ = run(capsys, "verify", "--identity", "Cor-a", "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == 7
