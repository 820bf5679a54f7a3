#!/usr/bin/env python
"""Docs gate: every exported symbol is documented, every dotted name exists.

Two checks, and the gate fails (exit code 1, listing the offenders) if
either finds one:

* Walks the ``__all__`` of the public packages — ``repro.api``,
  ``repro.core``, ``repro.sharding``, ``repro.proxytier``, ``repro.audit``,
  ``repro.concurrency``, ``repro.elasticity``, ``repro.storage``,
  ``repro.oram``, ``repro.recovery``, ``repro.harness`` and
  ``repro.analysis`` — for an exported class or function, or a public
  method of an exported class, without a docstring.  Type aliases and plain
  constants are skipped: there is nowhere to hang a docstring on them.
* Collects every dotted ``repro.x.y…`` name in ``README.md``,
  ``docs/*.md`` and the docstrings under ``src/repro``, and requires each to
  import as a module or resolve, part by part, as an attribute or dataclass
  field of one — so a renamed or deleted module, class or method cannot
  leave a stale reference behind.

Run from the repository root with ``src`` on the path::

    PYTHONPATH=src python scripts/check_docstrings.py
"""

from __future__ import annotations

import ast
import dataclasses
import glob
import importlib
import inspect
import os
import re
import sys

#: Public packages whose exported surface the gate covers.
PACKAGES = ("repro.api", "repro.core", "repro.sharding", "repro.proxytier",
            "repro.audit", "repro.concurrency", "repro.elasticity", "repro.storage",
            "repro.oram", "repro.recovery", "repro.harness", "repro.analysis")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A dotted name rooted at the package: ``repro`` and at least one more part.
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def _missing_in_class(qualname: str, cls: type) -> list:
    """Public methods/properties of ``cls`` defined locally without a docstring."""
    missing = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        target = member.fget if isinstance(member, property) else member
        if isinstance(member, (staticmethod, classmethod)):
            target = member.__func__
        if not (inspect.isfunction(target) or isinstance(member, property)):
            continue
        if not inspect.getdoc(target):
            missing.append(f"{qualname}.{name}")
    return missing


def check_package(package_name: str) -> list:
    """Return the undocumented exported symbols of ``package_name``."""
    package = importlib.import_module(package_name)
    missing = []
    if not inspect.getdoc(package):
        missing.append(package_name)
    for name in getattr(package, "__all__", []):
        symbol = getattr(package, name)
        qualname = f"{package_name}.{name}"
        if inspect.isclass(symbol):
            if not inspect.getdoc(symbol):
                missing.append(qualname)
            missing.extend(_missing_in_class(qualname, symbol))
        elif inspect.isfunction(symbol):
            if not inspect.getdoc(symbol):
                missing.append(qualname)
        # Constants and type aliases (ENGINE_KINDS, ProgramFactory, ...) have
        # no docstring slot; their documentation lives in the module.
    return missing


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute or field of one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for index, name in enumerate(parts[cut:], start=cut + 1):
            if hasattr(target, name):
                target = getattr(target, name)
            elif dataclasses.is_dataclass(target) and index == len(parts):
                return name in {spec.name for spec in dataclasses.fields(target)}
            else:
                return False
        return True
    return False


def _docstrings(path: str):
    """Every module, class and function docstring of the source file ``path``."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            docstring = ast.get_docstring(node, clean=False)
            if docstring:
                yield docstring


def dangling_names(root: str = ROOT) -> list:
    """``"file: name"`` for every dotted ``repro`` name that does not resolve."""
    texts = []
    for path in [os.path.join(root, "README.md")] + sorted(
            glob.glob(os.path.join(root, "docs", "*.md"))):
        with open(path, encoding="utf-8") as handle:
            texts.append((path, handle.read()))
    for path in sorted(glob.glob(os.path.join(root, "src", "repro", "**", "*.py"),
                                 recursive=True)):
        texts.extend((path, docstring) for docstring in _docstrings(path))
    dangling = []
    for path, text in texts:
        for name in sorted(set(DOTTED.findall(text))):
            if not resolves(name):
                dangling.append(f"{os.path.relpath(path, root)}: {name}")
    return sorted(set(dangling))


def main() -> int:
    """Run both checks; print offenders and return the exit code."""
    missing = []
    for package_name in PACKAGES:
        missing.extend(check_package(package_name))
    dangling = dangling_names()
    if missing:
        print("undocumented exported symbols:")
        for qualname in missing:
            print(f"  - {qualname}")
    if dangling:
        print("dotted names that resolve to nothing:")
        for reference in dangling:
            print(f"  - {reference}")
    if missing or dangling:
        return 1
    print(f"docs gate OK ({', '.join(PACKAGES)}; every dotted repro name resolves)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
