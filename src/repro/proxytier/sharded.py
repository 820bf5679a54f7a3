"""``ShardedMVTSOManager``: an empty name kept for the benchmark's tracer.

:class:`~repro.concurrency.mvtso.MVTSOManager` is the one MVTSO manager: it
attributes every operation to its lane and runs the epoch barrier's vote
whatever the lane count, and nothing under ``src/`` builds this class.
``bench/trace.py`` still imports it by name and wraps its ``read``,
``write``, ``can_commit`` and ``prepare_epoch`` from the class ``__dict__``
as ``concurrency.sharded.*``.  So the subclass holds the parent's four
function objects itself, and a production call makes only the parent's
span.  ROADMAP item 1, the change that moves tracing into the program,
deletes this module.
"""

from __future__ import annotations

from repro.concurrency.mvtso import MVTSOManager


class ShardedMVTSOManager(MVTSOManager):
    """No code of its own; see the module docstring."""

    read = MVTSOManager.read
    write = MVTSOManager.write
    can_commit = MVTSOManager.can_commit
    prepare_epoch = MVTSOManager.prepare_epoch
