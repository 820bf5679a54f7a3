"""The ``>>>`` examples in ``repro`` docstrings and in the docs run and pass.

Every module under ``src/repro`` is imported and handed to
``doctest.testmod``.  The test also fails if no example was attempted at
all, so a change that stops the walk from finding the modules cannot turn
the gate into a no-op.  ``README.md`` and ``docs/ARCHITECTURE.md`` are run
the way ``python -m doctest`` runs them.  The docs gate of
``scripts/check_docstrings.py`` runs here too: every exported symbol has a
docstring and every dotted ``repro`` name in the docs resolves.
"""

import doctest
import importlib
import importlib.util
import os
import pkgutil

import pytest

import repro

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_every_docstring_example_passes():
    attempted, failed = 0, []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        result = doctest.testmod(module)
        attempted += result.attempted
        if result.failed:
            failed.append(info.name)
    assert attempted > 0, "no docstring example was found under repro"
    assert failed == [], f"docstring examples failed in {failed}"


@pytest.mark.parametrize("document", ["README.md", "docs/ARCHITECTURE.md"])
def test_every_example_in_the_docs_passes(document):
    result = doctest.testfile(os.path.join(_ROOT, document),
                              module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def _docs_gate():
    path = os.path.join(_ROOT, "scripts", "check_docstrings.py")
    spec = importlib.util.spec_from_file_location("check_docstrings", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def test_docs_gate_passes(capsys):
    assert _docs_gate().main() == 0, capsys.readouterr().out


def test_docs_gate_rejects_a_dangling_dotted_name():
    gate = _docs_gate()
    assert gate.resolves("repro.api.loop.run_waves")
    assert gate.resolves("repro.core.client.Read.key")   # a field, no default
    assert gate.resolves("repro.core.proxy.ObladiProxy._repair_conflict_losers")
    assert not gate.resolves("repro.concurrency.repair")
    assert not gate.resolves("repro.oram.batch_executor._fetch_slots")
