#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

A run repeats *rounds* — a fresh engine, set up and driven through the
workload's fixed, seeded load (see ``workloads.py``) — until ``--seconds`` of
measuring are used up, checks every round's outputs, prints every metric by
name with its unit, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics from untraced rounds only.
``--trace 1`` alternates untraced and traced rounds (``trace.py`` wraps the
layers' public methods from outside), reports the per-layer metrics, and
writes the first traced round's spans to ``bench/out/``.

Two clocks.  ``sim_*`` and ``physical_ops_per_txn`` are on the engine's
``SimClock`` — what the modelled deployment would take; bit-identical across
the rounds of a run (checked) and across runs at one seed.  ``host_*``,
``setup_s`` and every ``*ms_per_txn`` are on the host clock, calibrated
against a frozen kernel interleaved with the work (``calibrate.py``), and are
medians over the run's quiet rounds.

Exit code 0 when every check passed, 1 when one failed, 2 when the run could
not start (no ``src/repro`` beside ``bench/``, unknown workload).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time: rounds repeat until it is used up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed size (bench/test_bench_smoke.py); "
                             "the numbers are comparable with nothing")
    return parser.parse_args(argv)


def _import_system_under_test() -> None:
    """Put this checkout's ``src/`` first on the path, or give up.

    The benchmark measures the source tree it sits in and nothing else: an
    installed ``repro`` from elsewhere must never be picked up in its place.
    """
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"bench/run.py: no src/repro beside {BENCH_DIR}; nothing to measure")
    for path in (BENCH_DIR, source):
        if path in sys.path:
            sys.path.remove(path)
    sys.path[:0] = [BENCH_DIR, source]
    import repro
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        sys.exit(f"bench/run.py: imported repro from {repro.__file__}, not {source}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    _import_system_under_test()
    import runner
    from workloads import BY_NAME
    if args.workload not in BY_NAME:
        print(f"bench/run.py: unknown workload {args.workload!r}; "
              f"one of {', '.join(BY_NAME)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workload = BY_NAME[args.workload]
    if args.smoke:
        workload = workload.smoke()
    return runner.execute(workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
