#!/usr/bin/env python
"""Docs gate: every exported symbol of the public packages is documented.

Covers ``repro.api``, ``repro.core``, ``repro.sharding``,
``repro.proxytier``, ``repro.audit``, ``repro.concurrency``,
``repro.elasticity``, ``repro.storage``, ``repro.oram``, ``repro.recovery``
and ``repro.harness``.

Walks the ``__all__`` of the public packages and fails (exit code 1, listing
the offenders) if any exported class or function — or any public method of
an exported class — lacks a docstring.  Type aliases and plain constants are
skipped: there is nowhere to hang a docstring on them.

Run from the repository root with ``src`` on the path::

    PYTHONPATH=src python scripts/check_docstrings.py
"""

from __future__ import annotations

import importlib
import inspect
import sys

#: Public packages whose exported surface the gate covers.
PACKAGES = ("repro.api", "repro.core", "repro.sharding", "repro.proxytier",
            "repro.audit", "repro.concurrency", "repro.elasticity", "repro.storage",
            "repro.oram", "repro.recovery", "repro.harness")


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


def main() -> int:
    """Check every gated package; print offenders and return the exit code."""
    missing = []
    for package_name in PACKAGES:
        missing.extend(check_package(package_name))
    if missing:
        print("undocumented exported symbols:")
        for qualname in missing:
            print(f"  - {qualname}")
        return 1
    print(f"docstring gate OK ({', '.join(PACKAGES)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
