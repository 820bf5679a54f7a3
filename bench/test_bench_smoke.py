"""Smoke test of the repo benchmark (collected by the tier-1 command).

Runs every workload's ``--smoke`` variant — a tenth of the data, a handful of
waves — through the real command with ``--trace 1``, which exercises the
untraced *and* the traced path, and holds what it prints against
``BENCHMARK.json``.  No timing is asserted: the numbers of a smoke run are
comparable with nothing.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
_IGNORED_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def _run(*arguments: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *arguments],
                          cwd=cwd, capture_output=True, text=True, timeout=170,
                          check=False)


def _tree() -> dict:
    """``{path: (mtime_ns, size)}`` of the checkout, minus caches and bench/out."""
    out_dir = os.path.join(BENCH_DIR, "out")
    listing = {}
    for folder, folders, files in os.walk(ROOT):
        folders[:] = [name for name in folders if name not in _IGNORED_DIRS
                      and os.path.join(folder, name) != out_dir]
        for name in files:
            path = os.path.join(folder, name)
            status = os.stat(path)
            listing[path] = (status.st_mtime_ns, status.st_size)
    return listing


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_exactly_the_declared_metrics(workload):
    before = _tree()
    done = _run("--workload", workload, "--seed", "17", "--seconds", "0",
                "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "CHECK FAILED" not in done.stdout
    assert _tree() == before, "the benchmark wrote outside bench/out/"

    lines = done.stdout.strip().splitlines()
    assert lines[0].split()[:2] == ["workload", workload]
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    declared = {entry["name"]: entry["unit"]
                for entry in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(printed) == set(declared)
    for name, (value, unit) in printed.items():
        assert math.isfinite(value), name
        assert unit == declared[name], name

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {entry["name"] for entry in SPEC["per_layer"]}
    assert os.path.exists(os.path.join(BENCH_DIR, "out", f"trace-{workload}.json"))


def test_workload_names_are_the_declared_ones():
    done = _run("--workload", "no-such-workload")
    assert done.returncode == 2
    listed = done.stderr.strip().rsplit("one of ", 1)[1].split(", ")
    assert listed == WORKLOADS


def test_refuses_to_run_without_the_system_under_test(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is nothing
    to measure: the command must fail, and print no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
