"""Unified engine layer: one transaction API over Obladi and the baselines.

The paper evaluates Obladi by running *identical* workloads through Obladi,
NoPriv and a MySQL-like store.  This package is that idea as an API:

* :class:`~repro.api.engine.TransactionEngine` — the interface every system
  implements (``submit`` / ``submit_many`` / ``transaction()`` /
  ``run_closed_loop`` / ``stats`` / ``crash``/``recover`` where supported);
* :class:`~repro.api.results.RunStats` — the one run-result type every
  engine and both loop drivers return;
* :func:`~repro.api.factory.create_engine` — construction, from
  ``EngineConfig``: the one configuration type,
  :class:`~repro.core.config.ObladiConfig`, under this package's name;
* :func:`~repro.api.loop.run_closed_loop` — the closed-loop driver: fill a
  wave, ``submit_many``, account, re-queue the aborted programs that have
  retries left (the one place anything is retried);
* :func:`~repro.api.openloop.run_open_loop` with its pluggable
  :class:`~repro.api.openloop.ArrivalProcess`es
  (:class:`~repro.api.openloop.DeterministicArrivals`,
  :class:`~repro.api.openloop.PoissonArrivals`) — the same wave loop fed by
  the clock: offered load through a bounded admission queue, with queueing
  delay measured separately from service latency.

Engines also expose an *observer seam* (``engine.attach_observer(...)``):
passive observers — most notably the streaming serializability auditor of
:mod:`repro.audit` — are notified after every wave and at run end, and
publish their verdict on ``RunStats.audit`` without perturbing the run.

Every future scaling direction (sharded proxies, alternate storage
backends, async batching) plugs in by implementing ``TransactionEngine``
and registering a kind with ``create_engine``.
"""

from repro.api.adapters import ObladiEngine
from repro.api.engine import (EngineFeatureUnavailable, FactorySource,
                              ProgramFactory, TransactionEngine)
from repro.api.factory import ENGINE_KINDS, EngineConfig, create_engine
from repro.baseline import MySQLEngine, NoPrivEngine
from repro.api.loop import run_closed_loop
from repro.api.openloop import (ArrivalProcess, DeterministicArrivals,
                                PoissonArrivals, run_open_loop)
from repro.api.results import RunStats

__all__ = [
    "TransactionEngine",
    "EngineFeatureUnavailable",
    "RunStats",
    "EngineConfig",
    "create_engine",
    "ENGINE_KINDS",
    "run_closed_loop",
    "run_open_loop",
    "ArrivalProcess",
    "DeterministicArrivals",
    "PoissonArrivals",
    "ObladiEngine",
    "NoPrivEngine",
    "MySQLEngine",
    "ProgramFactory",
    "FactorySource",
]
