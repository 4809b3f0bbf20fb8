"""Median, quartiles and spread of each metric over several benchmark runs.

    for s in 0 1 2 3 4 5 6 7 8 9; do
        python3 bench/run.py --workload desk --seed $s --seconds 1 --trace 0 | tail -1
    done | python3 bench/summarize.py

Reads one result line per run on standard input. The spread is the distance
between the first and third quartile as a share of the median, the figure
each end-to-end bound in BENCHMARK.json is compared with.
"""
from __future__ import annotations

import json
import statistics
import sys


def main() -> int:
    runs = [json.loads(line) for line in sys.stdin if line.startswith("{")]
    if len(runs) < 2:
        print("need at least two result lines", file=sys.stderr)
        return 2
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, failed shares: {sorted(shares)}")
    print(f"{'metric':<30} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:<30} {first['unit']:<6} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
