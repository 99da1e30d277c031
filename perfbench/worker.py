"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload verify --seed 1 --launched <t>

``--launched`` is the ``time.monotonic()`` reading the parent took just
before starting this process; set-up time runs from it to the moment the
first check is ready.  The pass runs every check of the workload once, in a
closed loop (each check starts when the previous one returns), times each one
from outside the call together with the host's speed factor over it
(``calibrate.py``), then checks every output and prints one JSON summary
line.  ``--setup-only`` stops once the first check is ready and takes the
speed factor right after set-up; ``--trace`` installs the per-layer wrappers
of ``tracer.py`` first and takes calibration samples only between checks;
and ``--inject-faults`` (verify only) breaks two registry entries so the
failure accounting can be tested.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import random
import resource
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
from reference import count_table  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Truncation order of the catalog and multisum workloads.  Chosen so that
#: a pass takes a quarter of a run or less, and medians over passes damp
#: the host's speed swings.
ORDERS = {"verify": 24, "derive": 14, "multisum": 24}

#: ``qseries counts --max-n`` and the order of the two signed-count checks.
COUNTS_MAX_N = 149
GF_ORDER = 26

#: Calibration samples after set-up, for the set-up speed factor.
SETUP_SAMPLES = 5

#: Multisum parameter tuples as fixed patterns of inversion classes; the seed
#: picks the member of each two-element class and the order of the checks.
#: Fixing the patterns keeps the work of a pass the same for every seed: the
#: cost of a tuple depends mostly on where the class {1} sits, because a
#: numerator factor (1;q)_M cuts the summation tree short.
_CLASSES = {"1": ("1",), "-1": ("-1",), "w": ("w", "w2"), "-w": ("-w", "-w2")}
_MULTISUM_PATTERNS = (
    [(a, b) for a in _CLASSES for b in _CLASSES if a != b]
    + [("1", "w", "-w"), ("1", "-w", "-1"), ("-1", "w", "-w"), ("w", "-1", "1"),
       ("-w", "1", "w"), ("w", "-w", "-1"), ("-1", "1", "-w"), ("-w", "w", "1")]
    + [("1", "w", "-w", "-1"), ("w", "1", "-1", "-w"),
       ("-1", "w", "1", "-w"), ("-w", "-1", "w", "1"), ("w", "-w", "-1", "1")]
)
#: Bilateral tuples for f_bilateral against f_consistency_rhs (no b_i = 1).
_BILATERAL_PATTERNS = (("-1", "w"), ("-1", "w", "-w"), ("w", "-w", "-q"))


@dataclasses.dataclass
class Check:
    name: str
    run: Callable[[], object]  # timed
    validate: Callable[[object], str | None]  # failure reason; not timed


def _param(name: str):
    from qseries.coeffring import CycRat, OMEGA, OMEGA_BAR, ONE
    from qseries.laurent import ParamValue

    values = {"1": ONE, "-1": CycRat(-1), "w": OMEGA, "w2": OMEGA_BAR,
              "-w": -OMEGA, "-w2": -OMEGA_BAR}
    if name == "-q":
        return ParamValue(CycRat(-1), 1)
    return ParamValue(values[name])


def _cli(argv):
    from qseries import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
    return code, out.getvalue()


def _one_report(identity, order, output):
    code, text = output
    lines = text.splitlines()
    if len(lines) != 1:
        return f"bad-output: {len(lines)} lines"
    report = json.loads(lines[0])
    if report.get("id") != identity or report.get("order") != order:
        return "bad-output: wrong id or order"
    if report.get("status") != "equal":
        return str(report.get("status"))
    return None if code == 0 else f"bad-output: exit code {code}"


def _series_equal(tracer, order, output):
    lhs, rhs = output
    for s in (lhs, rhs):
        if s.order is not None and s.order < order:
            return f"bad-output: trusted only below q^{s.order}"
        if tracer is not None:
            tracer.scan(s)
    starts = [s.offset for s in (lhs, rhs) if s.coeffs]
    for e in range(min(starts, default=order), order):
        if lhs.coeff(e) != rhs.coeff(e):
            return "mismatch"
    return None


def _counts_table(max_n, output):
    code, text = output
    rows = [json.loads(line) for line in text.splitlines()]
    want = count_table(max_n + 1)
    if code != 0 or len(rows) != max_n + 1:
        return f"bad-output: exit code {code}, {len(rows)} rows"
    for n, row in enumerate(rows):
        if row != {"n": n, **{family: want[family][n] for family in want}}:
            return "mismatch"
    return None


def _gf_report(report):
    return None if report.status == "equal" else report.status


def build_checks(workload, seed, order, tracer):
    from qseries import catalog, combinat, vwp

    rng = random.Random(seed)
    checks = []
    if workload in ("verify", "derive"):
        entries = catalog.registry()
        if workload == "verify":
            command, ids = "verify", list(entries)
        else:
            command = "derivation"
            ids = [i for i, e in entries.items() if e.specialization is not None]
        for identity in ids:
            argv = [command, "--identity", identity, "--order", str(order), "--format", "json"]
            checks.append(Check(identity, (lambda a=argv: _cli(a)),
                                (lambda out, i=identity: _one_report(i, order, out))))
    elif workload == "multisum":
        def tuples(patterns):
            return [tuple(_param(rng.choice(_CLASSES.get(c, (c,)))) for c in p)
                    for p in patterns]

        for params in tuples(_MULTISUM_PATTERNS):
            checks.append(Check(
                f"k{len(params)}:" + ",".join(map(str, params)),
                (lambda p=params: (vwp.lhs_multisum(p, order), vwp.rhs_products(p, order))),
                (lambda out: _series_equal(tracer, order, out))))
        for params in tuples(_BILATERAL_PATTERNS):
            checks.append(Check(
                "F:" + ",".join(map(str, params)),
                (lambda p=params: (vwp.f_bilateral(p, order), vwp.f_consistency_rhs(p, order))),
                (lambda out: _series_equal(tracer, order, out))))
    elif workload == "counts":
        argv = ["counts", "--max-n", str(COUNTS_MAX_N), "--format", "json"]
        checks = [
            Check("counts", (lambda: _cli(argv)),
                  (lambda out: _counts_table(COUNTS_MAX_N, out))),
            Check("gen-Aprime", (lambda: combinat.gf_check_Aprime(GF_ORDER)), _gf_report),
            Check("gen-Adblprime", (lambda: combinat.gf_check_Adblprime(GF_ORDER)), _gf_report),
        ]
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    rng.shuffle(checks)
    return checks


def inject_faults(catalog):
    """Give A1-a a wrong RHS and DS1-a a raising LHS builder."""
    from qseries.coeffring import ONE
    from qseries.laurent import LaurentSeries

    registry = catalog._REGISTRY
    right = registry["A1-a"].rhs
    registry["A1-a"] = dataclasses.replace(
        registry["A1-a"], rhs=lambda order: right(order) + LaurentSeries.monomial(ONE, 3))

    def raising(order):
        raise ValueError("injected fault")

    registry["DS1-a"] = dataclasses.replace(registry["DS1-a"], lhs=raising)


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--order", type=int, help="override the workload's order")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--inject-faults", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qseries
    from qseries import catalog, coeffring

    if not Path(qseries.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"qseries imported from {qseries.__file__}, not from {src}")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    if args.inject_faults:
        inject_faults(catalog)
    order = args.order or ORDERS.get(args.workload)
    checks = build_checks(args.workload, args.seed, order, tracer)
    setup_s = time.monotonic() - args.launched
    backend = type(coeffring.RAT_ONE)
    summary = {
        "backend": f"{backend.__module__}.{backend.__qualname__}",
        "python": sys.version.split()[0],
        "setup_s": setup_s,
    }
    if args.setup_only:
        samples = [calibrate.sample() for _ in range(SETUP_SAMPLES + 1)][1:]
        summary["setup_factor"] = calibrate.speed(samples)
        print(json.dumps(summary))
        return 0

    timed = []
    sampler = calibrate.Sampler(timer=not args.trace)
    for check in checks:
        try:
            with sampler.span() as span:
                output, error = check.run(), None
        except Exception as exc:  # a failing check is counted, not fatal
            output, error = None, type(exc).__name__
        timed.append((check, span, output, error))

    results = []
    for check, span, output, error in timed:
        why = error if error is not None else check.validate(output)
        results.append({"name": check.name, "ms": span.seconds * 1000.0,
                        "factor": span.factor, "failure": why})
    summary.update({
        "order": order,
        "run_s": sum(span.seconds for _, span, _, _ in timed),
        "scaled_run_s": sum(span.seconds * span.factor for _, span, _, _ in timed),
        "peak_rss_mb": _peak_rss_mb(),
        "checks": results,
        "layers": tracer.metrics() if tracer is not None else None,
    })
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
