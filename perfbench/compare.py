"""Compare benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py --base base/*.json --head head/*.json

For every workload and metric, prints each side's median and quartiles over
its records and the ratio of the medians (head over base).  Records from
different rational backends are not comparable: the command refuses them and
exits 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def _load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def _summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    sides = {"base": _load(args.base), "head": _load(args.head)}

    backends = {r["stamp"]["backend"] for records in sides.values() for r in records}
    if len(backends) > 1:
        print(f"compare.py: refusing to compare records from different backends: "
              f"{sorted(backends)}", file=sys.stderr)
        return 2

    values = defaultdict(lambda: defaultdict(list))
    for side, records in sides.items():
        for r in records:
            if not r["result"]["correct"]:
                print(f"note: {side} record {r['stamp']['workload']} seed "
                      f"{r['stamp']['seed']} failed {r['result']['failed']} checks")
            for name, m in r["result"]["metrics"].items():
                values[(r["stamp"]["workload"], name, m["unit"])][side].append(m["value"])

    print(f"{'workload':<10} {'metric':<28} {'base q1/med/q3':>30} "
          f"{'head q1/med/q3':>30} {'head/base':>9}")
    for (workload, name, unit), by_side in sorted(values.items()):
        if set(by_side) != {"base", "head"}:
            continue
        base, head = _summary(by_side["base"]), _summary(by_side["head"])
        ratio = head[1] / base[1] if base[1] else float("nan")
        cells = ["/".join(f"{v:.4g}" for v in s) + f" {unit}" for s in (base, head)]
        print(f"{workload:<10} {name:<28} {cells[0]:>30} {cells[1]:>30} {ratio:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
