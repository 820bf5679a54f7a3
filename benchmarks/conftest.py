"""Shared configuration for the benchmark suite.

Every file in this directory regenerates one figure or table of the paper's
evaluation (§11) using :mod:`repro.harness.experiments` and prints it as a
text table; pytest-benchmark additionally reports the wall-clock cost of
producing it.  All throughput/latency numbers inside the tables are
*simulated* time (docs/ARCHITECTURE.md, "Simulation substrate"); the
pytest-benchmark column measures how long the simulation itself took and
has no counterpart in the paper.

Scale knobs are chosen so the full suite completes in a few minutes.  The
``REPRO_BENCH_SCALE`` environment variable (``small`` | ``paper``) bumps the
object counts and transaction counts for fuller runs.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")


_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def pytest_collection_modifyitems(items):
    """Tag the tests in this directory with the ``benchmarks`` marker.

    The marker is registered in ``pyproject.toml``; it lets CI select or
    skip the figure regenerations (``-m benchmarks`` / ``-m "not
    benchmarks"``).  The hook sees the whole session's items, so filter by
    path — only this directory's tests get the marker.
    """
    for item in items:
        if str(item.fspath).startswith(_BENCH_DIR + os.sep):
            item.add_marker(pytest.mark.benchmarks)


@pytest.fixture(scope="session")
def bench_scale():
    """Scale parameters shared by the benchmark modules."""
    if SCALE == "paper":
        return {
            "oram_objects": 100_000,
            "batch_operations": 500,
            "transactions": 512,
            "clients": 96,
            "workload_scale": 0.5,
            "recovery_sizes": (10_000, 100_000),
        }
    return {
        "oram_objects": 20_000,
        "batch_operations": 200,
        "transactions": 160,
        "clients": 32,
        "workload_scale": 0.05,
        "recovery_sizes": (1_000, 5_000),
    }


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
