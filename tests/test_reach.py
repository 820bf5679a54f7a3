"""The reach probe keys functions the way Python does, and reports what it misses.

``scripts/reach.py`` indexes every function defined under ``src/repro`` by
``(file, first line)`` from the source, records the code objects a profiler
sees while production runs, and fails for an unreached function the
allowlist does not name.  A key that differs from the code object's would
report a reached function as unreached (or hide an unreached one), so the
index is checked here against the code objects ``compile`` makes from the
same source.  The entry points themselves take minutes and are not run.
"""

import importlib.util
import json
import os
import sys
import textwrap
import threading
import types

import pytest

from tests import test_reach_allowlist

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location(
    "reach", os.path.join(ROOT, "scripts", "reach.py"))
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

_FUNCTION = 0x1                 # CO_OPTIMIZED: a function's code, not a class or module body


def compiled_functions(path):
    """``{(file, first line): qualified name}`` of the named functions
    ``compile`` makes from ``path``: the keys the profiler will report."""
    with open(path, encoding="utf-8") as handle:
        module = compile(handle.read(), path, "exec")
    pending = [(code, "") for code in module.co_consts if isinstance(code, types.CodeType)]
    found = {}
    while pending:
        code, prefix = pending.pop()
        if code.co_name.startswith("<"):
            continue                    # a lambda or a comprehension
        if code.co_flags & _FUNCTION:
            found[code.co_filename, code.co_firstlineno] = prefix + code.co_name
            inner = prefix + code.co_name + ".<locals>."
        else:                           # a class body
            inner = prefix + code.co_name + "."
        pending.extend((c, inner) for c in code.co_consts if isinstance(c, types.CodeType))
    return found


def package(tmp_path, files):
    """A package ``pkg`` under ``tmp_path`` holding ``files`` (name -> source)."""
    root = tmp_path / "pkg"
    for name, source in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return str(root)


def indexed(root):
    return {(path, line): name for name, path, line in reach.defined_functions(root)}


def names(root):
    return sorted(name for name, _, _ in reach.defined_functions(root))


class TestIndex:
    def test_the_index_matches_the_code_objects_python_compiles(self):
        index = indexed(reach.PACKAGE)
        expected = {}
        for folder, _, files in os.walk(reach.PACKAGE):
            for name in files:
                if name.endswith(".py"):
                    expected.update(compiled_functions(os.path.join(folder, name)))
        assert {key: name.split(":")[1] for key, name in index.items()} == expected

    def test_decorated_functions_are_keyed_by_their_first_decorator(self, tmp_path):
        root = package(tmp_path, {"mod.py": """
            import functools

            class C:
                @property
                def size(self):
                    return 1

                @staticmethod
                @functools.lru_cache(None)
                def cached():
                    return 2
            """})
        path = os.path.join(root, "mod.py")
        assert indexed(root) == {(path, 5): "pkg.mod:C.size", (path, 9): "pkg.mod:C.cached"}
        assert {key: f"pkg.mod:{name}" for key, name in compiled_functions(path).items()} \
            == indexed(root)

    def test_methods_and_nested_functions_are_named_as_python_names_them(self, tmp_path):
        root = package(tmp_path, {"mod.py": """
            def outer():
                def inner():
                    pass
                class Local:
                    def method(self):
                        pass
                return inner, Local

            class Outer:
                class Inner:
                    async def run(self):
                        pass
            """})
        assert names(root) == ["pkg.mod:Outer.Inner.run", "pkg.mod:outer",
                               "pkg.mod:outer.<locals>.Local.method",
                               "pkg.mod:outer.<locals>.inner"]

    def test_lambdas_and_comprehensions_are_not_counted(self, tmp_path):
        root = package(tmp_path, {"mod.py": """
            square = lambda x: x * x
            squares = [x * x for x in range(3)]

            def total(values):
                return sum(v for v in values)
            """})
        assert names(root) == ["pkg.mod:total"]

    def test_functions_under_compound_statements_are_found(self, tmp_path):
        root = package(tmp_path, {"mod.py": """
            import sys

            if sys.platform:
                def a(): pass
            else:
                def b(): pass
            try:
                def c(): pass
            except ImportError:
                def d(): pass
            else:
                def e(): pass
            finally:
                def f(): pass
            with open(__file__) as handle:
                def g(): pass
            for _ in ():
                def h(): pass
            while False:
                def i(): pass
            """})
        assert names(root) == [f"pkg.mod:{name}" for name in "abcdefghi"]

    def test_a_package_init_is_named_after_the_package(self, tmp_path):
        root = package(tmp_path, {"__init__.py": "def top(): pass\n",
                                  "sub/__init__.py": "def below(): pass\n",
                                  "sub/leaf.py": "def leaf(): pass\n",
                                  "notes.txt": "def skipped(): pass\n"})
        assert names(root) == ["pkg.sub.leaf:leaf", "pkg.sub:below", "pkg:top"]

    def test_the_probe_and_the_allowlist_check_name_the_same_functions(self):
        assert set(names(reach.PACKAGE)) == test_reach_allowlist.defined_functions()


class TestAllowlist:
    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "allowlist.txt"
        path.write_text("# a comment\n\n"
                        "repro.a:f    fault    a reason of several words\n"
                        "   # an indented comment\n"
                        "repro.b:C.g  oracle   another\n")
        assert reach.read_allowlist(str(path)) == {"repro.a:f": "fault", "repro.b:C.g": "oracle"}

    def test_an_entry_without_a_bin_reads_as_an_empty_bin(self, tmp_path):
        path = tmp_path / "allowlist.txt"
        path.write_text("repro.a:f\n")
        assert reach.read_allowlist(str(path)) == {"repro.a:f": ""}


class TestReach:
    def _index(self, module):
        return {(f.__code__.co_filename, f.__code__.co_firstlineno): name
                for name, f in ((n, getattr(module, n)) for n in ("called", "idle"))}

    def _module(self, tmp_path):
        path = tmp_path / "probed.py"
        path.write_text("def called():\n    return 1\n\n\ndef idle():\n    return 2\n")
        spec = importlib.util.spec_from_file_location("probed", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_only_the_functions_called_are_reached(self, tmp_path):
        module = self._module(tmp_path)
        with reach._Reach() as probe:
            module.called()
        assert probe.reached(self._index(module)) == {"called"}

    def test_calls_on_another_thread_are_reached(self, tmp_path):
        module = self._module(tmp_path)
        with reach._Reach() as probe:
            worker = threading.Thread(target=module.idle)
            worker.start()
            worker.join()
        assert probe.reached(self._index(module)) == {"idle"}

    def test_the_profiler_is_removed_even_when_the_body_raises(self, tmp_path):
        module = self._module(tmp_path)
        with pytest.raises(RuntimeError):
            with reach._Reach() as probe:
                raise RuntimeError("an entry point crashed")
        assert sys.getprofile() is None
        module.called()
        worker = threading.Thread(target=module.idle)
        worker.start()
        worker.join()
        assert probe.reached(self._index(module)) == set()


class TestReport:
    NAMES = ["repro.a:f", "repro.a:g", "repro.b:C.h", "repro.b:C.i"]

    def test_exit_0_when_every_unreached_function_is_allowlisted(self, capsys):
        allowed = {"repro.a:g": "fault", "repro.b:C.i": "oracle"}
        assert reach.report(self.NAMES, {"repro.a:f", "repro.b:C.h"}, allowed) == 0
        out, err = capsys.readouterr()
        assert "defines 4 functions; production reaches 2, leaving 2 unreached" in out
        assert err == ""

    def test_exit_1_names_each_unreached_function_not_allowlisted(self, capsys):
        assert reach.report(self.NAMES, {"repro.a:f"}, {"repro.a:g": "fault"}) == 1
        err = capsys.readouterr().err
        assert "unreached and not allowlisted: 2" in err
        assert err.split("\n")[1:3] == ["  repro.b:C.h", "  repro.b:C.i"]
        assert "repro.a:g" not in err

    def test_an_allowlisted_function_production_reaches_is_named(self, capsys):
        allowed = {"repro.a:f": "fault", "repro.a:g": "fault"}
        assert reach.report(self.NAMES[:2], {"repro.a:f"}, allowed) == 0
        assert "allowlisted but reached: repro.a:f" in capsys.readouterr().out

    def test_the_unreached_are_counted_per_bin(self, capsys):
        allowed = {"repro.a:f": "fault", "repro.a:g": "fault", "repro.b:C.h": "interface",
                   "repro.b:C.i": "interface"}
        assert reach.report(self.NAMES, {"repro.b:C.i"}, allowed) == 0
        counts = capsys.readouterr().out.split("\n")[1]
        assert counts == ("unreached and allowlisted: "
                          + ", ".join(f"{bin_} {dict(fault=2, interface=1).get(bin_, 0)}"
                                      for bin_ in reach.BINS))


class TestEntryPoints:
    def test_a_failing_entry_point_is_named_and_kept(self, capsys):
        failed = []
        reach._report("examples/ok.py", 0, failed)
        reach._report("examples/broken.py", 1, failed)
        assert failed == ["examples/broken.py"]
        assert capsys.readouterr().out.splitlines() == ["ran examples/ok.py: ok",
                                                        "ran examples/broken.py: exit 1"]

    def test_the_probe_runs_every_example(self):
        shipped = sorted(name for name in os.listdir(os.path.join(ROOT, "examples"))
                         if name.endswith(".py"))
        assert sorted(reach.EXAMPLES) == shipped

    def test_the_probe_runs_every_benchmark_workload(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            declared = [w["name"] for w in json.load(handle)["workloads"]]
        assert sorted(reach.WORKLOADS) == sorted(declared)
