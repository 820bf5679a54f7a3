#!/usr/bin/env python3
"""Run the benchmark the way its driver does, and keep the results.

    python3 bench/sweep.py --out bench/out/A.json [--seeds 1-10]
        [--workloads W ...] [--seconds S] [--traced]

One ``bench/run.py`` process per (workload, seed), one at a time, untraced;
``--traced`` adds one traced run per workload on the first seed.  The result
lines are collected into ``--out`` with the environment they were measured
in, for ``bench/compare.py`` to set two such files side by side.  The file
ends with ``"claim": null``: a sweep measures, it claims nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _seeds(text: str) -> List[int]:
    """``"1-10"`` or ``"17,23"`` -> the seeds it names."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(command: List[str], workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    """One benchmark process; returns its result line and how long it took."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if done.returncode != 0 or result is None:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
    # The run's first line ends ``environment={...}``: python, numpy, nproc.
    _, _, environment = lines[0].partition(" environment=") if lines else ("", "", "")
    return {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
            "wall_s": wall, "exit_code": done.returncode,
            "environment": json.loads(environment) if environment else None,
            "rounds": [line for line in lines if line.startswith("round ")],
            "result": result}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = args.workloads or [entry["name"] for entry in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    runs = []
    for workload in workloads:
        plan = [(seed, 0) for seed in args.seeds]
        if args.traced:
            plan.append((args.seeds[0], 1))
        for seed, trace in plan:
            run = run_once(spec["command"], workload, seed, seconds, trace)
            runs.append(run)
            print(f"{workload} seed={seed} trace={trace} wall={run['wall_s']:.1f}s "
                  f"exit={run['exit_code']}", flush=True)
    payload = {
        "environment": dict(runs[0]["environment"] or {}, platform=platform.platform()),
        "run_seconds": seconds,
        "runs": [{key: value for key, value in run.items() if key != "environment"}
                 for run in runs],
        "claim": None,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    bad = [run for run in runs
           if run["exit_code"] != 0 or not run["result"]["correct"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
