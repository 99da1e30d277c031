"""The qseries benchmark: one workload, one seed, every output checked.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, on whichever rational backend is installed (gmpy2 or the
``fractions.Fraction`` fallback).  Each pass of the workload runs in a fresh
single-threaded interpreter (``worker.py``), one client in a closed loop, so
every pass pays the cold start and the cold module-level memos a CLI user
pays.  After the set-up probes, passes repeat while another one still fits
in ``--seconds``, counted from the start of the run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, in
seconds at the reference host speed of ``calibrate.py``: each time is the
wall time scaled by the host's speed over it, measured by a fixed
standard-library calibration sample before, inside and after every check.
The shared host's speed swings by up to a half within minutes; the scaled
times do not.  The wall-clock medians are stamped on the line before the
result, under ``wall``.

- ``setup_s``: interpreter start to first check ready (median of set-up-only
  processes, the import builds the 32-entry registry), each scaled by the
  speed factor it reads right after set-up;
- ``run_s``: time to finish every check of the workload (median pass);
- ``check_p50_ms`` and ``check_tail_ms``: each check is timed around the
  call and takes its median latency across the passes, which damps the
  host's bursts and keeps the percentile independent of the number of
  passes; over those, the median, and the highest percentile that leaves at
  least ten checks of a pass beyond it (the maximum when a pass has fewer
  than eleven).  The line before the result names the percentile and the
  sample count;
- ``peak_rss_mb``: peak resident memory of a pass's process (median pass).

With ``--trace 1`` the passes alternate untraced and traced, and the result
carries the per-layer metrics of ``tracer.py``, ``trace_overhead`` (traced
over untraced ``run_s``, minus 1) and ``fail_ratio``.  Traced passes take
calibration samples only between checks, where no layer timer runs, and a
pass's layer times are scaled by its overall speed factor.  Counts come from
the first traced pass and repeat exactly for a given seed; times are
medians.

``--out FILE`` also writes the stamp and metrics as JSON, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "derive", "multisum", "counts")
SETUP_PROBES = 21
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "check_p50_ms": "ms",
                    "check_tail_ms": "ms", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_ratio") or name == "trace_overhead":
        return "ratio"
    return "count"


def tail_rank(n: int) -> int:
    """0-based rank of the highest percentile of n samples that leaves at
    least ten beyond it; the maximum when n < 11."""
    return n - 11 if n >= 11 else n - 1


def tail(values: list[float]) -> float:
    return sorted(values)[tail_rank(len(values))]


def tally_failures(checks: list[dict]) -> dict[str, int]:
    """Failed checks by kind: report status, exception type or bad output."""
    return dict(Counter(c["failure"] for c in checks if c["failure"] is not None))


def check_latencies(passes: list[dict], scaled: bool) -> dict[str, float]:
    """Median and tail over checks of each check's median latency across
    passes, in reference milliseconds when ``scaled``."""
    by_check: dict[str, list[float]] = {}
    for p in passes:
        for c in p["checks"]:
            by_check.setdefault(c["name"], []).append(
                c["ms"] * c["factor"] if scaled else c["ms"])
    latencies = [statistics.median(v) for v in by_check.values()]
    return {"check_p50_ms": statistics.median(latencies),
            "check_tail_ms": tail(latencies)}


def worker(workload: str, seed: int, *flags: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--launched", repr(launched), *flags],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload!r} exited with {proc.returncode}")
    summary = json.loads(proc.stdout.splitlines()[-1])
    summary["wall_s"] = time.monotonic() - launched
    return summary


def _commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qseries").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    setups = []
    if not trace:
        worker(workload, seed, "--setup-only")  # warm the bytecode cache
        setups = [worker(workload, seed, "--setup-only") for _ in range(SETUP_PROBES)]

    plain, traced = [], []
    longest = 0.0
    while True:
        want_trace = trace and len(traced) < len(plain)
        summary = worker(workload, seed, *(["--trace"] if want_trace else []))
        (traced if want_trace else plain).append(summary)
        longest = max(longest, summary["wall_s"])
        enough = bool(plain) and (bool(traced) or not trace)
        if enough and time.monotonic() - start + longest > seconds:
            break

    passes = plain + traced
    checks = [c for p in passes for c in p["checks"]]
    failures = tally_failures(checks)
    failed = sum(failures.values())
    first = passes[0]
    per_pass = len(first["checks"])

    if trace:
        metrics = dict(traced[0]["layers"])
        for name in metrics:
            if name.endswith("_s"):
                metrics[name] = statistics.median(
                    p["layers"][name] * p["scaled_run_s"] / p["run_s"] for p in traced)
        metrics["trace_overhead"] = (
            statistics.median(p["scaled_run_s"] for p in traced)
            / statistics.median(p["scaled_run_s"] for p in plain) - 1.0)
        metrics["fail_ratio"] = failed / len(checks)
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] * s["setup_factor"] for s in setups),
            "run_s": statistics.median(p["scaled_run_s"] for p in plain),
            **check_latencies(plain, scaled=True),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        wall = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "run_s": statistics.median(p["run_s"] for p in plain),
            **check_latencies(plain, scaled=False),
            "speed_factor": statistics.median(
                c["factor"] for p in plain for c in p["checks"]),
        }
    units = END_TO_END_UNITS if not trace else {n: _unit(n) for n in metrics}
    stamp = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "backend": first["backend"], "python": first["python"], "nproc": os.cpu_count(),
        "commit": _commit(), "source_sha256": _source_digest(), "order": first["order"],
        "passes": len(plain), "traced_passes": len(traced),
        "checks_per_pass": per_pass,
        "tail_percentile": 100.0 * (tail_rank(per_pass) + 1) / per_pass,
        "fail_ratio": failed / len(checks), "failures": failures,
    }
    if not trace:
        stamp["wall"] = wall
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    return {"stamp": stamp, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write stamp and result here")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "qseries" / "__init__.py").is_file():
        print(f"run.py: no qseries sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"stamp": record["stamp"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
