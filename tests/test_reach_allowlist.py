"""The reach allowlist names real functions, each with a known bin and a reason.

``scripts/reach.py`` runs every production entry point under a profiler and
fails for a ``src/repro`` function none of them reaches unless
``scripts/reach_allowlist.txt`` says why it stays.  The probe takes minutes,
so it runs at re-anchors only; this test checks the list itself on every
tier-1 run, from the source alone (``ast``, nothing imported): every entry
names a function that exists, one bin from the closed set ``BINS`` that
``scripts/reach.py`` declares, and a reason.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
ALLOWLIST = os.path.join(ROOT, "scripts", "reach_allowlist.txt")


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def _qualnames(body, prefix=""):
    """Qualified names of the functions in ``body``, as Python names them."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name
            yield from _qualnames(node.body, prefix + node.name + ".<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _qualnames(node.body, prefix + node.name + ".")
        elif isinstance(node, ast.stmt):
            for field in ("body", "orelse", "finalbody"):
                yield from _qualnames(getattr(node, field, []), prefix)
            for handler in getattr(node, "handlers", []):
                yield from _qualnames(handler.body, prefix)


def defined_functions():
    """``module:Qualified.name`` of every function defined under ``src/repro``."""
    names = set()
    for folder, _, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                module = os.path.relpath(path, os.path.dirname(PACKAGE))[:-3]
                module = module.replace(os.sep, ".").removesuffix(".__init__")
                names.update(f"{module}:{qualname}"
                             for qualname in _qualnames(_parse(path).body))
    return names


def declared_bins():
    """The keys of ``BINS`` in ``scripts/reach.py``, read without importing it."""
    for node in _parse(os.path.join(ROOT, "scripts", "reach.py")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets
                                             if isinstance(t, ast.Name)] == ["BINS"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("scripts/reach.py declares no BINS")


def entries(path=ALLOWLIST):
    """``(line number, qualified name, bin, reason)`` per entry of the list."""
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                yield (number, *(line.split(None, 2) + ["", ""])[:3])


def problems(path=ALLOWLIST):
    """One line per malformed entry of the allowlist at ``path``."""
    functions, bins, seen, found = defined_functions(), declared_bins(), set(), []
    for number, name, bin_, reason in entries(path):
        where = f"{os.path.basename(path)}:{number}: {name}"
        if name not in functions:
            found.append(f"{where}: no such function under src/repro")
        if bin_ not in bins:
            found.append(f"{where}: bin {bin_!r} is not one of {sorted(bins)}")
        if not reason.strip():
            found.append(f"{where}: no reason given")
        if name in seen:
            found.append(f"{where}: listed twice")
        seen.add(name)
    return found


def test_every_entry_names_a_function_a_bin_and_a_reason():
    assert list(entries()), "the allowlist is empty"
    assert problems() == []


def classes():
    """``{class name: (base names, method names)}`` of every class under ``src/repro``."""
    found = {}
    for folder, _, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                for node in ast.walk(_parse(os.path.join(folder, name))):
                    if isinstance(node, ast.ClassDef):
                        bases = {getattr(base, "id", getattr(base, "attr", None))
                                 for base in node.bases}
                        methods = {item.name for item in node.body
                                   if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
                        found[node.name] = (bases, methods)
    return found


def overriders(cls, method, found):
    """Classes that inherit from ``cls``, directly or not, and define ``method``."""
    heirs, frontier = set(), {cls}
    while frontier:
        frontier = {name for name, (bases, _) in found.items()
                    if bases & frontier and name not in heirs}
        heirs |= frontier
    return sorted(name for name in heirs if method in found[name][1])


def test_every_interface_entry_is_overridden_by_a_subclass():
    """An ``interface`` entry stays because an implementation replaces it:
    some subclass under ``src/repro`` defines the same method."""
    found = classes()
    lonely = [name for _, name, bin_, _ in entries() if bin_ == "interface"
              and not overriders(*name.split(":")[1].rsplit(".", 1), found)]
    assert lonely == []


def test_a_stale_or_malformed_entry_is_reported(tmp_path):
    bad = tmp_path / "allowlist.txt"
    bad.write_text("repro.oram.stash:Stash.no_such_method  oracle  never defined\n"
                   "repro.oram.stash:Stash.mark_residue  convenience  an unknown bin\n"
                   "repro.oram.ring_oram:lost_real_slot  fault\n"
                   "repro.oram.ring_oram:lost_real_slot  fault  again\n")
    assert [line.split(": ", 2)[2] for line in problems(str(bad))] == [
        "no such function under src/repro",
        f"bin 'convenience' is not one of {sorted(declared_bins())}",
        "no reason given",
        "listed twice",
    ]
