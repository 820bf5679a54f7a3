"""Continuous serializability auditing (``repro.audit``).

This package treats an engine the way Cobra ("Detecting Incorrect Behavior
of Cloud Databases as an Outsider", PAPERS.md) treats a cloud database:
untrusted.  An :class:`AuditingObserver` attached via
``engine.attach_observer(...)`` streams the engine's committed history into
a :class:`StreamingSerializationGraph`, which maintains the direct
serialization graph *incrementally* (Pearce–Kelly ordering-based cycle
detection) and garbage-collects settled epochs into per-key
:class:`KeyFrontier` summaries, so auditing an arbitrarily long run needs
memory bounded by the active window — not the history.  The verdict and
retained-graph accounting land on ``RunStats.audit``.

Quick start::

    from repro.api import EngineConfig, create_engine
    from repro.audit import AuditingObserver

    engine = create_engine("obladi", EngineConfig().with_seed(7))
    auditor = engine.attach_observer(AuditingObserver())
    stats = engine.run_closed_loop(source, total_transactions=256)
    assert stats.audit.ok
"""

from repro.audit.observer import AuditingObserver, EngineObserver
from repro.audit.streaming import (AuditReport, AuditViolation, KeyFrontier,
                                   StreamingSerializationGraph)

__all__ = [
    "AuditReport",
    "AuditViolation",
    "AuditingObserver",
    "EngineObserver",
    "KeyFrontier",
    "StreamingSerializationGraph",
]
