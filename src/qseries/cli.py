"""Command-line front end: identity verification runs and counting tables.

Commands

- ``list``: one line per registry entry (id and statement).
- ``verify --identity <id>``: check a single identity.
- ``verify-all``: check every entry; with ``--format json`` each report is
  one JSON object per line so long runs can be tailed.
- ``derivation --identity <id>``: re-derive a sum side from its recorded
  corollary specialization and compare against the direct builder.
- ``counts``: table of the four overpartition counting families.

Exit status: 0 when everything requested verified equal, 1 when any report
says mismatch/error, 2 for unknown identities or bad flags.  The default
truncation order is 50, overridable by the QSERIES_DEFAULT_ORDER environment
variable and per run by ``--order``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import catalog, combinat
from .catalog import MissingSpecialization, UnknownIdentity, VerifyReport

_FAMILY_HEADERS = {
    "overpartitions": "pbar",
    "overpartitions_distinct": "pbar_d",
    "pairs": "pp",
    "pairs_distinct": "pp_d",
}


def _default_order() -> int:
    raw = os.environ.get("QSERIES_DEFAULT_ORDER")
    if raw is None:
        return catalog.DEFAULT_ORDER
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 1:
        raise SystemExit(
            f"qseries: QSERIES_DEFAULT_ORDER must be a positive integer, got {raw!r}")
    return value


def _report_dict(r: VerifyReport) -> dict:
    fm = None
    if r.first_mismatch is not None:
        fm = {
            "exponent": r.first_mismatch.exponent,
            "lhs": str(r.first_mismatch.lhs),
            "rhs": str(r.first_mismatch.rhs),
        }
    return {
        "id": r.id,
        "order": r.order,
        "status": r.status,
        "first_mismatch": fm,
        "elapsed_ms": int(round(r.elapsed * 1000.0)),
    }


def _print_report(r: VerifyReport, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(_report_dict(r)), file=out)
        return
    line = f"{r.id:<14} {r.status:<9} order={r.order} ({r.elapsed:.2f}s)"
    if r.first_mismatch is not None:
        fm = r.first_mismatch
        line += f" first mismatch at q^{fm.exponent}: lhs={fm.lhs} rhs={fm.rhs}"
    if r.message:
        line += f" [{r.message}]"
    print(line, file=out)


def _exit_code(reports) -> int:
    return 0 if all(r.status == "equal" for r in reports) else 1


def _cmd_list(args, out) -> int:
    for entry in catalog.registry().values():
        if args.format == "json":
            print(json.dumps({"id": entry.id, "statement": entry.statement}), file=out)
        else:
            print(f"{entry.id:<14} {entry.statement}", file=out)
    return 0


def _cmd_verify(args, out) -> int:
    report = catalog.verify(args.identity, order=args.order)
    _print_report(report, args.format, out)
    return _exit_code([report])


def _cmd_verify_all(args, out) -> int:
    reports = catalog.verify_all(order=args.order)
    for r in sorted(reports, key=lambda r: r.id):
        _print_report(r, args.format, out)
    return _exit_code(reports)


def _cmd_derivation(args, out) -> int:
    report = catalog.derivation_check(args.identity, order=args.order)
    _print_report(report, args.format, out)
    return _exit_code([report])


def _cmd_counts(args, out) -> int:
    order = args.max_n + 1
    try:
        table = combinat.count_table(order)
    except RuntimeError as exc:
        print(f"qseries: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        for n in range(order):
            row = {"n": n}
            row.update({f: table[f][n] for f in combinat.FAMILIES})
            print(json.dumps(row), file=out)
        return 0
    headers = ["n"] + [_FAMILY_HEADERS[f] for f in combinat.FAMILIES]
    print(" ".join(f"{h:>8}" for h in headers), file=out)
    for n in range(order):
        cells = [n] + [table[f][n] for f in combinat.FAMILIES]
        print(" ".join(f"{c:>8}" for c in cells), file=out)
    return 0


@lru_cache(maxsize=4)
def _build_parser(default_order: int) -> argparse.ArgumentParser:
    """The argument parser for one default order, built on first use and then
    reused: parsing leaves it unchanged, and building it costs about as much
    as a small check."""
    parser = argparse.ArgumentParser(
        prog="qseries",
        description="Exact verification of q-series identities and overpartition counts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, identity=False):
        p.add_argument("--order", type=int, default=default_order,
                       help=f"truncation order (default {default_order})")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if identity:
            p.add_argument("--identity", required=True, help="registry id, e.g. A1-a")

    p_list = sub.add_parser("list", help="list registry entries")
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    p_list.set_defaults(func=_cmd_list)

    p_verify = sub.add_parser("verify", help="verify one identity")
    add_common(p_verify, identity=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_all = sub.add_parser("verify-all", help="verify every identity")
    add_common(p_all)
    p_all.set_defaults(func=_cmd_verify_all)

    p_der = sub.add_parser("derivation", help="re-derive a sum side from its specialization")
    add_common(p_der, identity=True)
    p_der.set_defaults(func=_cmd_derivation)

    p_counts = sub.add_parser("counts", help="overpartition counting table")
    p_counts.add_argument("--max-n", type=int, default=10, dest="max_n")
    p_counts.add_argument("--format", choices=("text", "json"), default="text")
    p_counts.set_defaults(func=_cmd_counts)

    return parser


def main(argv=None) -> int:
    parser = _build_parser(_default_order())
    args = parser.parse_args(argv)
    order = getattr(args, "order", None)
    if order is not None and order < 1:
        parser.error(f"--order must be >= 1, got {order}")
    if getattr(args, "max_n", 0) < 0:
        parser.error("--max-n must be >= 0")
    try:
        return args.func(args, sys.stdout)
    except UnknownIdentity as exc:
        print(f"qseries: unknown identity {exc}", file=sys.stderr)
        return 2
    except MissingSpecialization as exc:
        print(f"qseries: no recorded specialization for {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
