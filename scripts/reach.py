#!/usr/bin/env python3
"""Which ``src/repro`` functions production reaches, and why the rest stay.

    python scripts/reach.py

Runs every production entry point in this one process under
``sys.setprofile``:

- the four repo-benchmark workloads at ``--smoke`` size, untraced and traced
  (``bench/run.py``);
- the five ``examples/``;
- the figure suite (``pytest benchmarks --benchmark-disable``).

Then lists, from the source (``ast``), every function defined under
``src/repro`` that none of them called.  A function that only tests reach
stays in ``src/`` only with a reason: ``reach_allowlist.txt`` beside this
script names it, one line each, as ``module:Qualified.name  bin  reason``,
and the bin is one of ``BINS``.  Exit 0 when every unreached function is on
the list, 1 when one is not (each is named), 2 when an entry point failed.

The probe takes minutes under the profiler, so ``scripts/ci.sh`` does not run
it; a re-anchor of ROADMAP does, and quotes its counts.
``tests/test_reach_allowlist.py`` checks the list against the source on
every tier-1 run.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import threading
import traceback
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SOURCE, "repro")
ALLOWLIST = os.path.join(ROOT, "scripts", "reach_allowlist.txt")

#: Why a function no production entry point reaches stays in ``src/``.
BINS = {
    "fault": "a fault or error path production must not take",
    "oracle": "a reference implementation tests compare the real path against",
    "bench": "bench/ imports, wraps or calls it by name",
    "interface": "an abstract or base-class stub an implementation overrides",
    "documented": "public API a README or ARCHITECTURE doctest calls; it goes only with that doctest",
}

WORKLOADS = ("smallbank_sharded", "tpcc_durable", "freehealth_openloop",
             "ycsb_hot_elastic")
EXAMPLES = ("quickstart.py", "banking_benchmark.py", "crash_recovery.py",
            "medical_records.py", "openloop_saturation.py")

#: (file, first line) of a function's code object -> ``module:Qualified.name``.
FunctionIndex = Dict[Tuple[str, int], str]


def defined_functions(package: str = PACKAGE) -> Iterator[Tuple[str, str, int]]:
    """Yield ``(module:Qualified.name, file, first line)`` of every function.

    The first line is what the code object reports: the first decorator's
    line for a decorated function.  Nested functions are named as Python
    names them (``outer.<locals>.inner``); lambdas are not counted.
    """
    for folder, _, files in sorted(os.walk(package)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            relative = os.path.relpath(path, os.path.dirname(package))[:-3]
            module = relative.replace(os.sep, ".")
            if module.endswith(".__init__"):
                module = module[: -len(".__init__")]
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for qualname, node in _walk(tree.body, ""):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield f"{module}:{qualname}", path, first


def _walk(body, prefix: str):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + node.name
            yield qualname, node
            yield from _walk(node.body, qualname + ".<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _walk(node.body, prefix + node.name + ".")
        elif isinstance(node, ast.stmt):
            for field in ("body", "orelse", "finalbody"):
                yield from _walk(getattr(node, field, []), prefix)
            for handler in getattr(node, "handlers", []):
                yield from _walk(handler.body, prefix)


def read_allowlist(path: str = ALLOWLIST) -> Dict[str, str]:
    """``{qualified name: bin}`` of the list's entries."""
    with open(path, encoding="utf-8") as handle:
        rows = [line.split(None, 2) for line in map(str.strip, handle)
                if line and not line.startswith("#")]
    return {row[0]: row[1] if len(row) > 1 else "" for row in rows}


class _Reach:
    """Every code object called while installed."""

    def __init__(self) -> None:
        self.codes: Set[object] = set()

    def __enter__(self) -> "_Reach":
        add = self.codes.add

        def profile(frame, event, arg):
            add(frame.f_code)

        sys.setprofile(profile)
        threading.setprofile(profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def reached(self, index: FunctionIndex) -> Set[str]:
        return {index[key] for key in
                ((code.co_filename, code.co_firstlineno) for code in self.codes)
                if key in index}


def _run_entry_points() -> List[str]:
    """Run every entry point; return the ones that failed."""
    failed = []
    run = runpy.run_path(os.path.join(ROOT, "bench", "run.py"), run_name="bench_run")
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            label = f"bench/run.py --workload {workload} --smoke --trace {trace}"
            with contextlib.redirect_stdout(io.StringIO()):
                status = run["main"](["--workload", workload, "--smoke", "--seed", "17",
                                      "--seconds", "0", "--trace", trace])
            _report(label, status, failed)
    for example in EXAMPLES:
        label = f"examples/{example}"
        status = 0
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                runpy.run_path(os.path.join(ROOT, "examples", example), run_name="__main__")
            except SystemExit as exit_:
                status = exit_.code or 0
            except Exception:       # an example that raises is a failed entry point
                traceback.print_exc()
                status = 1
        _report(label, status, failed)
    with contextlib.redirect_stdout(io.StringIO()):
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--benchmark-disable",
                              os.path.join(ROOT, "benchmarks")])
    _report("pytest benchmarks --benchmark-disable", int(status), failed)
    return failed


def _report(label: str, status: int, failed: List[str]) -> None:
    print(f"ran {label}: {'ok' if status == 0 else f'exit {status}'}", flush=True)
    if status != 0:
        failed.append(label)


def main() -> int:
    os.chdir(ROOT)
    sys.path[:0] = [SOURCE]
    functions = list(defined_functions())
    index: FunctionIndex = {(path, line): name for name, path, line in functions}
    with _Reach() as reach:
        failed = _run_entry_points()
    if failed:
        print(f"reach: {len(failed)} entry point(s) failed: {', '.join(failed)}",
              file=sys.stderr)
        return 2
    names = sorted({name for name, _, _ in functions})
    return report(names, reach.reached(index), read_allowlist())


def report(names: List[str], reached: Set[str], allowed: Dict[str, str]) -> int:
    """Print the counts; 1 if an unreached name is not in ``allowed``, else 0."""
    unreached = [name for name in names if name not in reached]
    missing = [name for name in unreached if name not in allowed]
    stale = sorted(name for name in allowed if name in reached)
    by_bin = {bin_: sum(1 for name in unreached if allowed.get(name) == bin_)
              for bin_ in BINS}
    print(f"src/repro defines {len(names)} functions; production reaches "
          f"{len(names) - len(unreached)}, leaving {len(unreached)} unreached")
    print("unreached and allowlisted: "
          + ", ".join(f"{bin_} {count}" for bin_, count in by_bin.items()))
    for name in stale:
        print(f"allowlisted but reached: {name}")
    if missing:
        print(f"unreached and not allowlisted: {len(missing)}", file=sys.stderr)
        for name in missing:
            print(f"  {name}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
