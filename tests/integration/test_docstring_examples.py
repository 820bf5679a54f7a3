"""The ``>>>`` examples in ``repro`` docstrings and in the docs run and pass.

Every module under ``src/repro`` is imported and handed to
``doctest.testmod``.  The test also fails if no example was attempted at
all, so a change that stops the walk from finding the modules cannot turn
the gate into a no-op.  ``README.md`` and ``docs/ARCHITECTURE.md`` are run
the way ``python -m doctest`` runs them.
"""

import doctest
import importlib
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
