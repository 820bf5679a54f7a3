#!/usr/bin/env python3
"""Set two sweeps side by side, or read one sweep's run-to-run spread.

    python3 bench/compare.py A.json B.json     # A = parent, B = change
    python3 bench/compare.py A.json            # spreads of A alone

One row per (workload, end-to-end metric): each side's median and quartiles
over its seeds (``statistics.quantiles(values, n=4)``), the bound from
``BENCHMARK.json``, and a verdict:

``worse``       B's median is worse than A's by more than the bound
``unresolved``  a side's own spread (Q3 - Q1, as a share of its median) is
                wider than the bound, so the bound cannot be resolved
``better``      B's median is better than A's by more than A's spread
``same``        none of the above

With one file the verdict is the steadiness rule the benchmark is held to:
``steady`` when the spread is under a third of the bound, ``loose`` when it
is under the bound, ``unresolved`` beyond.  Exits 1 on any ``worse`` (two
files) or ``unresolved`` (one file).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``{(workload, metric): [value per seed]}`` of a sweep's untraced runs."""
    with open(path, encoding="utf-8") as handle:
        sweep = json.load(handle)
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in sweep["runs"]:
        if run["trace"] or not run["result"]:
            continue
        for name, entry in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name), []).append(entry["value"])
    return values


def summary(values: List[float]) -> Tuple[float, float, float, float]:
    """``(median, Q1, Q3, spread)``; spread is (Q3 - Q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return median, first, third, (third - first) / abs(median) if median else 0.0


def verdict(bound: float, better: str, ours: tuple, theirs: Optional[tuple]) -> str:
    if theirs is None:
        spread = ours[3]
        return ("steady" if spread < bound / 3 else
                "loose" if spread <= bound else "unresolved")
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (theirs[0] - ours[0])          # > 0: B is worse
    if worsening > bound * abs(ours[0]):
        return "worse"
    if max(ours[3], theirs[3]) > bound:
        return "unresolved"
    if -worsening > ours[2] - ours[1]:
        return "better"
    return "same"


def main(argv: Optional[List[str]] = None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    ours = load(paths[0])
    theirs = load(paths[1]) if len(paths) == 2 else None

    def cells(stats: tuple) -> str:
        return (f"{stats[0]:>12.5g} [{stats[1]:>11.5g} {stats[2]:>11.5g}] "
                f"{100 * stats[3]:>6.2f}%")

    header = f"{'workload':<20} {'metric':<21} {'A median [Q1 Q3] spread':>46}"
    if theirs is not None:
        header += f" {'B median [Q1 Q3] spread':>46} {'B/A':>7}"
    print(f"{header} {'bound':>6}  verdict")
    verdicts: List[str] = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in ours or (theirs is not None and key not in theirs):
                continue
            a = summary(ours[key])
            b = summary(theirs[key]) if theirs is not None else None
            row = f"{workload:<20} {metric['name']:<21} {cells(a)}"
            if b is not None:
                row += f" {cells(b)} {b[0] / a[0] if a[0] else float('nan'):>7.3f}"
            outcome = verdict(metric["bound"], metric["better"], a, b)
            verdicts.append(outcome)
            print(f"{row} {100 * metric['bound']:>5.0f}%  {outcome}")
    failing = "worse" if theirs is not None else "unresolved"
    return 1 if failing in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
