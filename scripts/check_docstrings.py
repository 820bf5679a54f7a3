#!/usr/bin/env python
"""Docs gate: exported symbols are documented and the docs' references hold.

Four checks, and the gate fails (exit code 1, listing the offenders) if
any finds one:

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
* Requires every ```` ```python ```` block in ``README.md`` and
  ``docs/*.md`` to hold a ``>>>`` prompt, so that ``python -m doctest``
  runs it.
* Collects every quoted chapter name cited next to ``ARCHITECTURE`` or
  ``README`` — as in ``ARCHITECTURE "Performance"``, ``docs/ARCHITECTURE.md``
  — "Elasticity" — or ``the "Auditing" chapter of docs/ARCHITECTURE.md``,
  line breaks and comment markers allowed — in ``src/``, ``tests/``,
  ``benchmarks/``, ``scripts/``, ``examples/`` and ``README.md``, and
  requires a ``#`` heading of the cited file to start with the name.

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

#: The file a chapter citation names, by the word it is cited with.
CITED = {"ARCHITECTURE": os.path.join("docs", "ARCHITECTURE.md"),
         "README": "README.md"}

#: Where chapter citations are collected, beside ``README.md``.
CITING = ("src", "tests", "benchmarks", "scripts", "examples")
CITING_SUFFIXES = (".py", ".sh", ".txt")

_DOCUMENT = r"(?<![\w/])(?:docs/)?(ARCHITECTURE|README)(?:\.md)?"
_CHAPTER = r'"([A-Z][^"]{0,60})"'
#: The document word, at most eight characters that are neither word
#: characters nor quotes, then the quoted chapter name.
CITATION_AFTER = re.compile(_DOCUMENT + r'[^\w"]{0,8}' + _CHAPTER)
#: The quoted chapter name, then ``chapter of``, then the document word.
CITATION_BEFORE = re.compile(_CHAPTER + r" chapter of \[?" + _DOCUMENT)
#: A line break, with the indent and comment marker of the next line.
_LINE_BREAK = re.compile(r"\s*\n\s*(?:#\s*)?")

#: A fence that opens or closes a code block, and a doctest prompt.
FENCE = re.compile(r"^\s*```")
PYTHON_FENCE = re.compile(r"^\s*```python\s*$")
PROMPT = re.compile(r"^\s*>>>")


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


def _docs(root: str) -> list:
    """``README.md`` and every ``docs/*.md`` under ``root``."""
    return [os.path.join(root, "README.md")] + sorted(
        glob.glob(os.path.join(root, "docs", "*.md")))


def dangling_names(root: str = ROOT) -> list:
    """``"file: name"`` for every dotted ``repro`` name that does not resolve."""
    texts = []
    for path in _docs(root):
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


def plain_python_blocks(paths) -> list:
    """``"file:line"`` of every ```` ```python ```` block without a ``>>>``."""
    plain = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        opened, python, prompted = None, False, False
        for number, line in enumerate(lines, 1):
            if opened is None and FENCE.match(line):
                opened, python, prompted = number, bool(PYTHON_FENCE.match(line)), False
            elif opened is not None and FENCE.match(line):
                if python and not prompted:
                    plain.append(f"{path}:{opened}")
                opened = None
            elif opened is not None and PROMPT.match(line):
                prompted = True
    return plain


def headings(path: str) -> list:
    """The text of every ``#`` heading of the markdown file ``path``."""
    found, fenced = [], False
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if FENCE.match(line):
                fenced = not fenced
            elif not fenced and line.startswith("#"):
                found.append(line.lstrip("#").strip())
    return found


def citations(text: str) -> list:
    """``(document word, chapter name)`` of every chapter citation in ``text``."""
    text = _LINE_BREAK.sub(" ", text)
    return CITATION_AFTER.findall(text) + [
        (document, name) for name, document in CITATION_BEFORE.findall(text)]


def _citing_files(root: str):
    yield os.path.join(root, "README.md")
    for folder in CITING:
        for directory, subdirectories, files in os.walk(os.path.join(root, folder)):
            subdirectories[:] = [d for d in subdirectories if d != "__pycache__"]
            for name in files:
                if name.endswith(CITING_SUFFIXES):
                    yield os.path.join(directory, name)


def dangling_citations(root: str = ROOT) -> list:
    """``"file: DOCUMENT "name""`` for every cited chapter no heading starts with."""
    chapters = {word: headings(os.path.join(root, path)) for word, path in CITED.items()}
    dangling = []
    for path in _citing_files(root):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for document, name in citations(text):
            if not any(heading.startswith(name) for heading in chapters[document]):
                dangling.append(f'{os.path.relpath(path, root)}: {document} "{name}"')
    return sorted(set(dangling))


def main() -> int:
    """Run the four checks; print offenders and return the exit code."""
    missing = []
    for package_name in PACKAGES:
        missing.extend(check_package(package_name))
    problems = [
        ("undocumented exported symbols:", missing),
        ("dotted names that resolve to nothing:", dangling_names()),
        ("python blocks without a >>> prompt:",
         [os.path.relpath(block, ROOT) for block in plain_python_blocks(_docs(ROOT))]),
        ("chapter citations no heading starts with:", dangling_citations()),
    ]
    for title, offenders in problems:
        if offenders:
            print(title)
            for offender in offenders:
                print(f"  - {offender}")
    if any(offenders for _, offenders in problems):
        return 1
    print(f"docs gate OK ({', '.join(PACKAGES)}; every dotted repro name resolves, "
          "every python block is a doctest, every chapter citation resolves)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
