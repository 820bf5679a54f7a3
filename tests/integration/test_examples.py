"""Every script under ``examples/`` runs to completion.

The examples are the repository's runtime tour (README "Examples"); each one
runs in a fresh interpreter with ``src`` on ``PYTHONPATH`` and must exit 0.
None of them writes a tracked file (the root ``conftest.py`` checks that for
the whole session).
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
EXAMPLES = sorted(os.path.basename(path)
                  for path in glob.glob(os.path.join(ROOT, "examples", "*.py")))


def test_there_are_examples_to_run():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_exits_cleanly(script):
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run([sys.executable, os.path.join("examples", script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=170, check=False)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
