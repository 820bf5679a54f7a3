"""Repository-level pytest configuration.

Adds ``src/`` to ``sys.path`` so the test and benchmark suites run even when
the package has not been installed (e.g. in offline CI containers where
editable installs are awkward).  When ``repro`` is already installed this is
a no-op: the installed package wins only if it appears earlier on the path,
and inserting ``src`` first keeps the working tree authoritative.

It also guards the working tree: a test run must leave every file git does
not ignore exactly as it found it.  The tree is listed when the session
starts and again when it finishes, and the run fails if a file was created,
modified or deleted in between (``bench/test_bench_smoke.py`` makes the same
check around each benchmark command; this is its form for the whole run).
Outside a git checkout there is no ignore list to go by and nothing is
checked.
"""

import os
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

_TREE_AT_START = pytest.StashKey()


def _tree():
    """``{path: (mtime_ns, size)}`` of the files git does not ignore.

    A tracked file missing from disk maps to ``None``.  Returns ``None``
    when ``git`` cannot list the tree (not installed, not a checkout).
    """
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=_ROOT, capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    tree = {}
    for path in os.fsdecode(listed).split("\0"):
        if path:
            try:
                status = os.stat(os.path.join(_ROOT, path))
                tree[path] = (status.st_mtime_ns, status.st_size)
            except OSError:
                tree[path] = None
    return tree


def pytest_sessionstart(session):
    session.config.stash[_TREE_AT_START] = _tree()


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session):
    before = session.config.stash.get(_TREE_AT_START, None)
    after = _tree()
    if before is None or after is None:
        return
    changes = []
    for path in sorted(before.keys() | after.keys()):
        was, now = before.get(path), after.get(path)
        if was != now:
            kind = "created" if was is None else "deleted" if now is None else "modified"
            changes.append(f"{kind}: {path}")
    if changes:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        write = reporter.write_line if reporter is not None else print
        write("")
        write("FAILED: the test run changed files git does not ignore "
              "(tests must write only to tmp_path or an ignored directory):")
        for change in changes:
            write(f"  {change}")
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
