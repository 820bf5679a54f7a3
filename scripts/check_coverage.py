#!/usr/bin/env python
"""Coverage floor gate for the gated packages.

The conformance and loop-driver suites exist to pin the ``repro.api``
surface down, the auditor suites pin ``repro.audit``, the MVTSO / repair /
serializability suites pin ``repro.concurrency``, and the elasticity
property/conformance suites pin ``repro.elasticity``; this gate makes
those claims checkable.  After a ``pytest --cov=repro`` run has produced a
``.coverage`` data file, it reports line coverage restricted to each gated
package and fails (exit code 1) below its floor.

The gate degrades gracefully: when the ``coverage`` package is not
installed (the tier-1 suite only requires the standard library plus
pytest), it prints a notice and exits 0 — ``scripts/ci.sh`` only invokes
it after a coverage-enabled pytest run.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q --cov=repro
    python scripts/check_coverage.py --min-api 85 --min-audit 85 \
        --min-concurrency 85
"""

from __future__ import annotations

import argparse
import io
import os
import sys

#: The gated packages: label -> (coverage include glob, default floor %).
GATES = {
    "api": ("*/repro/api/*", 85.0),
    "audit": ("*/repro/audit/*", 85.0),
    "concurrency": ("*/repro/concurrency/*", 85.0),
    "elasticity": ("*/repro/elasticity/*", 85.0),
    # The ORAM client's hot path: the unit and property suites must reach
    # every branch of the planner's fallback ladder and of the executor.
    "oram": ("*/repro/oram/*", 85.0),
}


def _report(cov, include: str) -> float:
    """Line-coverage percent for ``include``, printing the table."""
    buffer = io.StringIO()
    percent = cov.report(include=include, file=buffer, show_missing=False)
    print(buffer.getvalue().rstrip())
    return percent


def main(argv=None) -> int:
    """Enforce the per-package coverage floors; return the exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    for label, (include, floor) in GATES.items():
        parser.add_argument(f"--min-{label}", type=float, default=floor,
                            dest=f"min_{label}",
                            help=f"minimum line coverage percent for "
                                 f"{include} (default {floor})")
    parser.add_argument("--data-file", default=".coverage",
                        help="coverage data file produced by pytest --cov")
    args = parser.parse_args(argv)

    try:
        import coverage
    except ImportError:
        print("check_coverage: the 'coverage' package is not installed; "
              "skipping the coverage floor gates")
        return 0

    if not os.path.exists(args.data_file):
        print(f"check_coverage: no {args.data_file!r} data file found — run "
              f"'python -m pytest --cov=repro' first")
        return 1

    cov = coverage.Coverage(data_file=args.data_file)
    cov.load()
    failed = False
    for label, (include, _) in GATES.items():
        floor = getattr(args, f"min_{label}")
        try:
            percent = _report(cov, include)
        except coverage.exceptions.NoDataError:
            print(f"check_coverage: the coverage data contains nothing under "
                  f"{include!r}")
            failed = True
            continue
        if percent < floor:
            print(f"check_coverage: {include} line coverage {percent:.1f}% "
                  f"is below the floor of {floor:.1f}%")
            failed = True
        else:
            print(f"check_coverage: OK — {include} at {percent:.1f}% "
                  f"(floor {floor:.1f}%)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
