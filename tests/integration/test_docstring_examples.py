"""The ``>>>`` examples in ``repro`` docstrings and in the docs run and pass.

Every module under ``src/repro`` is imported and handed to
``doctest.testmod``.  The test also fails if no example was attempted at
all, so a change that stops the walk from finding the modules cannot turn
the gate into a no-op.  ``README.md`` and ``docs/ARCHITECTURE.md`` are run
the way ``python -m doctest`` runs them, once each, with every function the
reach allowlist (``scripts/reach_allowlist.txt``) keeps as ``documented``
wrapped in a call counter: a function kept because the docs show it must be
one the docs' examples call.  The docs gate of ``scripts/check_docstrings.py``
runs here too: every exported symbol has a docstring, every dotted ``repro``
name in the docs resolves, every ``python`` block in the docs is a doctest
and every cited chapter is a heading of the document cited.
"""

import doctest
import functools
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


DOCUMENTS = ("README.md", "docs/ARCHITECTURE.md")


def _script(name):
    path = os.path.join(_ROOT, "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _docs_gate():
    return _script("check_docstrings")


def _counted(function, name, calls):
    @functools.wraps(function)
    def counting(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)
    return counting


@pytest.fixture(scope="module")
def docs_run():
    """Each document's doctest results, and the calls of each ``documented`` function.

    The documents run once for the whole module, with every function the
    allowlist bins as ``documented`` wrapped in a counter while they run.
    """
    allowlist = _script("reach").read_allowlist()
    calls = {name: 0 for name, bin_ in allowlist.items() if bin_ == "documented"}
    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            module, qualname = name.split(":")
            *path, attribute = qualname.split(".")
            owner = functools.reduce(getattr, path, importlib.import_module(module))
            patch.setattr(owner, attribute,
                          _counted(getattr(owner, attribute), name, calls))
        results = {document: doctest.testfile(os.path.join(_ROOT, document),
                                              module_relative=False)
                   for document in DOCUMENTS}
    return results, calls


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_example_in_the_docs_passes(document, docs_run):
    result = docs_run[0][document]
    assert result.attempted > 0
    assert result.failed == 0


def test_every_documented_function_is_called_by_the_docs(docs_run):
    calls = docs_run[1]
    assert calls, "the reach allowlist bins no function as documented"
    assert [name for name, count in calls.items() if count == 0] == []


def test_docs_gate_passes(capsys):
    assert _docs_gate().main() == 0, capsys.readouterr().out


def test_docs_gate_rejects_a_dangling_dotted_name():
    gate = _docs_gate()
    assert gate.resolves("repro.api.loop.run_waves")
    assert gate.resolves("repro.core.client.Read.key")   # a field, no default
    assert gate.resolves("repro.core.proxy.ObladiProxy._repair_conflict_losers")
    assert not gate.resolves("repro.concurrency.repair")
    assert not gate.resolves("repro.oram.batch_executor._fetch_slots")


def test_docs_gate_rejects_a_python_block_without_a_prompt(tmp_path):
    fence = "`" * 3
    document = tmp_path / "NOTES.md"
    document.write_text(
        f"# Notes\n\n{fence}python\n>>> 1 + 1\n2\n{fence}\n\n"
        f"{fence}bash\necho no prompt\n{fence}\n\n"
        f"{fence}python\nprint('no prompt')\n{fence}\n", encoding="utf-8")
    assert _docs_gate().plain_python_blocks([str(document)]) == [f"{document}:12"]


def test_docs_gate_rejects_a_dangling_chapter_citation(tmp_path):
    gate, word = _docs_gate(), "ARCHITECTURE"
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / f"{word}.md").write_text(
        "# Architecture\n\n## Storage tier — `repro.storage`\n\n"
        "```\n# Not a heading\n```\n", encoding="utf-8")
    (tmp_path / "README.md").write_text(
        f'# Readme\n\nSee the "Storage tier" chapter of docs/{word}.md.\n',
        encoding="utf-8")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "cited.py").write_text(
        f'"""See ``docs/{word}.md`` — "Storage\ntier".\n\n'
        f'Also {word} "Not a heading".\n"""\n'
        f'# and ({word} "Storage\n# shelf")\n', encoding="utf-8")
    assert gate.dangling_citations(str(tmp_path)) == [
        f'src/cited.py: {word} "Not a heading"',
        f'src/cited.py: {word} "Storage shelf"',
    ]
