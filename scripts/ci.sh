#!/usr/bin/env bash
# CI entry point: the tier-1 test suite plus a quick end-to-end benchmark
# smoke, so regressions in either the unit layer or the figure pipeline
# fail fast.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Docs gate: the README/ARCHITECTURE doctest snippets must execute, and
# every exported repro.api / repro.sharding / repro.proxytier / repro.audit
# / repro.concurrency / repro.elasticity symbol must carry a docstring.
echo "== docs gate: doctests + exported-symbol docstrings =="
python -m doctest docs/ARCHITECTURE.md README.md
python scripts/check_docstrings.py

# One representation, pure Python: the numpy twin of the path math was
# measured against the plain-int forms and lost (ARCHITECTURE "Performance").
# (An ``if``, not ``! grep``: ``set -e`` ignores a status inverted with ``!``.)
echo "== tripwire: no numpy under src/ =="
if grep -rn --include='*.py' "import numpy" src/; then
    echo "numpy is imported under src/" >&2
    exit 1
fi

# Smoke first: an end-to-end regression across the three engines surfaces
# in seconds, before the multi-minute figure regenerations start.
echo "== smoke: Figure 9 end-to-end across all three engines =="
python -m pytest -q benchmarks/test_fig9_end_to_end.py -k smoke

echo "== smoke: conflict repair keeps histories serializable =="
python -m pytest -q benchmarks/test_repair_contention.py -k smoke

echo "== smoke: autoscaled elastic topology beats static under a flash crowd =="
python -m pytest -q benchmarks/test_elasticity_smoke.py

# Perf gate: a profiled smoke run proves the hot-path instrumentation still
# works, then the trajectory ledger run fails on a >25% wall-clock
# regression of the sharded closed loop against the best recorded baseline
# (and on any fixed-seed simulated-results drift).
echo "== perf: profiled hot-path smoke =="
python scripts/profile_hotpath.py --smoke
echo "== perf: benchmark trajectory ledger (regression gate) =="
python scripts/bench_trajectory.py --scale smoke --check

# Sealed vs written: buckets are sealed at the epoch flush, so what separates
# the two counts is bulk load, WAL and checkpoint sealing (about 1300
# slots/txn at smoke size).  A wider gap means ciphertexts nobody reads.
# Scheduled batches: benchmark traffic is timed from bucket counts alone
# (repro.oram.dependency); a list-scheduled batch here means it has left
# the decided-without-scheduling regime, and the step fails.
echo "== perf: sealed vs written slots, scheduled batches (repo benchmark, traced smoke) =="
traced_smoke=$(python bench/run.py --workload tpcc_durable --smoke --seed 17 --seconds 1 --trace 1)
grep -E "^metric (crypto\.sealed_slots_per_txn|storage\.slots_written_per_txn|storage\.trace_events_per_txn|sim\.schedule_calls|sim\.schedule_ms_per_txn|oram\.self_ms_per_txn|oram\.eviction_ms_per_txn|recovery\.checkpoint_ms_per_txn) " <<<"$traced_smoke"
grep -qE "^metric sim\.schedule_calls 0 " <<<"$traced_smoke" \
    || { echo "sim.schedule_calls is not 0 on tpcc_durable" >&2; exit 1; }

echo "== tier-1: unit, property, integration and benchmark suites =="
# With pytest-cov available the tier-1 run doubles as the coverage run, and
# floors are enforced on src/repro/api, src/repro/audit, src/repro/concurrency,
# src/repro/elasticity and src/repro/oram — the layers the conformance,
# loop-driver, auditor, MVTSO/repair, elasticity and vectorised-path-math
# suites are supposed to pin down.
# Without it (the tier-1 dependencies are stdlib + pytest only) the suite
# runs uninstrumented.
if python -c "import pytest_cov" 2>/dev/null; then
    python -m pytest -x -q --cov=repro
    python scripts/check_coverage.py --min-api 85 --min-audit 85 \
        --min-concurrency 85 --min-elasticity 85 --min-oram 85
else
    echo "(pytest-cov not installed; running without the coverage gate)"
    python -m pytest -x -q
fi
