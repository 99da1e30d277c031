"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks, at small orders so it finishes in well under a minute:

1. fault injection: with A1-a given a wrong RHS and DS1-a a raising LHS
   builder, a verify pass still runs all 32 checks and reads
   fail_ratio = 2/32 (one mismatch, one ValueError);
2. the integer reference expansion against known overpartition counts;
3. the tail rank: ten samples lie beyond it, and small passes use the maximum;
4. two traced passes on the same seed report identical per-layer counts;
5. calibration: a block longer than the timer period gets timer samples,
   and their time is taken out of the block's.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
from reference import count_table  # noqa: E402
from run import tail, tail_rank, tally_failures, worker  # noqa: E402

#: Overpartitions of n for n < 15 (OEIS A015128).
OVERPARTITIONS = [1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232, 344, 504, 728, 1040]

COUNT_METRICS = ("coeffring.mul_calls", "coeffring.add_calls", "coeffring.inverse_calls",
                 "laurent.binomial_calls", "laurent.mul_calls", "laurent.inverse_calls",
                 "laurent.add_calls", "laurent.poch_calls", "laurent.terms_touched",
                 "vwp.a_coeff_calls", "combinat.pairs_enumerated")


def check_fault_injection() -> bool:
    checks = worker("verify", 1, "--order", "8", "--inject-faults")["checks"]
    failures = tally_failures(checks)
    ratio = sum(failures.values()) / len(checks)
    print(f"fault injection: {len(checks)} checks, failures {failures}, "
          f"fail_ratio {ratio:.4f}")
    return len(checks) == 32 and failures == {"mismatch": 1, "ValueError": 1} \
        and ratio == 2 / 32


def check_reference() -> bool:
    table = count_table(len(OVERPARTITIONS))
    ok = table["overpartitions"] == OVERPARTITIONS
    ok &= table["pairs"][:4] == [1, 4, 12, 32]
    print(f"reference counts: {'ok' if ok else table['overpartitions']}")
    return ok


def check_tail() -> bool:
    ok = tail_rank(32) == 21 and tail(list(range(32))) == 21
    ok &= tail([3.0, 1.0, 2.0]) == 3.0 and tail_rank(11) == 0
    print(f"tail rank: {'ok' if ok else 'wrong'}")
    return ok


def check_trace_counts() -> bool:
    ok = True
    for workload, order in (("verify", "8"), ("multisum", "10")):
        runs = [worker(workload, 5, "--order", order, "--trace") for _ in range(2)]
        names = [[c["name"] for c in r["checks"]] for r in runs]
        counts = [{m: r["layers"][m] for m in COUNT_METRICS} for r in runs]
        same = names[0] == names[1] and counts[0] == counts[1]
        print(f"trace counts repeat on {workload}: {same}")
        ok &= same
    return ok


def check_calibration() -> bool:
    sampler = calibrate.Sampler()
    start = time.perf_counter()
    with sampler.span() as span:
        while time.perf_counter() - start < 4 * calibrate.PERIOD_S:
            pass
    taken_out = time.perf_counter() - start - span.seconds
    inside = sampler.timer_samples
    ok = len(inside) >= 3 and taken_out >= sum(inside) and span.factor > 0
    print(f"calibration: {len(inside)} timer samples taking {sum(inside):.4f} s, "
          f"{taken_out:.4f} s taken out, speed factor {span.factor:.3f}")
    return ok


def main() -> int:
    results = [check_fault_injection(), check_reference(), check_tail(),
               check_trace_counts(), check_calibration()]
    print("selftest:", "PASS" if all(results) else "FAIL")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
