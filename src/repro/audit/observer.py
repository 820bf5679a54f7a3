"""Engine observers: the seam that lets auditors watch a run from outside.

Observers attach to any :class:`repro.api.engine.TransactionEngine` via
``engine.attach_observer(...)`` and receive callbacks as the engine commits
work.  They are strictly passive — they never touch the engine's simulated
clock or state, so a run with an observer attached produces byte-identical
``RunStats`` (same repr) to one without.

:class:`AuditingObserver` is the flagship observer: it feeds every newly
committed transaction into a :class:`~repro.audit.streaming.
StreamingSerializationGraph` one wave at a time and publishes the verdict on
``RunStats.audit`` when a closed- or open-loop run finishes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.audit.streaming import AuditReport, StreamingSerializationGraph
from repro.concurrency.transaction import CommittedTransaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.engine import TransactionEngine
    from repro.api.results import RunStats


class EngineObserver:
    """Base class for engine observers; every callback is a no-op.

    Subclasses override what they need.  Callbacks fire synchronously on the
    engine's thread; they must not mutate the engine or advance its clock.
    The one exception is an operator action: ``on_wave`` may stage
    ``engine.reshard(plan)``, which starts at the next wave boundary.
    """

    def on_attach(self, engine: "TransactionEngine") -> None:
        """Called once when the observer is attached to ``engine``."""

    def on_wave(self, engine: "TransactionEngine", results: Sequence[object]) -> None:
        """Called after each submitted wave (one ``submit_many`` epoch)."""

    def on_run_end(self, engine: "TransactionEngine", stats: "RunStats") -> None:
        """Called when a closed- or open-loop driver finishes a run."""


class AuditingObserver(EngineObserver):
    """Streams an engine's committed history through the serializability auditor.

    The observer keeps a cursor into ``engine.committed_history`` and ingests
    only the suffix beyond it, so duplicate notifications (the engine notifies
    per wave, the loop drivers notify at run end) are harmless, and the cursor
    survives ``crash()``/``recover()`` because engines report a cumulative
    lifetime history.
    """

    def __init__(self, settle_lag: int = 2) -> None:
        self.graph = StreamingSerializationGraph(settle_lag=settle_lag)
        self.engine: Optional["TransactionEngine"] = None
        self._cursor = 0

    def on_attach(self, engine: "TransactionEngine") -> None:
        """Bind to ``engine``; auditing starts at its current history length."""
        self.engine = engine
        self._cursor = len(engine.committed_history)

    def on_wave(self, engine: "TransactionEngine", results: Sequence[object]) -> None:
        """Ingest commits the wave added to the engine's history."""
        self.ingest_pending(engine)

    def on_run_end(self, engine: "TransactionEngine", stats: "RunStats") -> None:
        """Ingest any tail commits and publish the verdict on ``stats.audit``."""
        self.ingest_pending(engine)
        stats.audit = self.report()

    def ingest_pending(self, engine: "TransactionEngine") -> List[CommittedTransaction]:
        """Feed history entries past the cursor into the streaming graph.

        Returns the newly ingested transactions (useful in tests); the batch
        boundary is the notification boundary, i.e. one engine wave.
        """
        history = engine.committed_history
        fresh = history[self._cursor:]
        self._cursor = len(history)
        if fresh:
            self.graph.ingest_batch(fresh)
        return fresh

    def report(self) -> AuditReport:
        """Snapshot the auditor's verdict and retained-graph accounting."""
        return self.graph.report()
