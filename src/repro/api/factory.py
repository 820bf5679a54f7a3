"""Engine construction: :func:`create_engine`.

The one entry point callers need::

    from repro.api import EngineConfig, create_engine

    engine = create_engine(
        "obladi",
        EngineConfig().with_workload("smallbank").with_backend("server_wan")
                      .with_oram(num_blocks=4096, z_real=16, block_size=192)
                      .with_seed(7))
    engine.load_initial_data(data)
    stats = engine.run_closed_loop(workload.transaction_factory,
                                   total_transactions=256, clients=32)

``EngineConfig`` is :class:`~repro.core.config.ObladiConfig` under the name
this package exports.  The same config configures all three engines; the
baselines read only its ``backend``, so one config object can drive a full
Figure-9-style comparison.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.api.adapters import ObladiEngine
from repro.api.engine import TransactionEngine
from repro.baseline import MySQLEngine, NoPrivEngine
from repro.core.config import ObladiConfig
from repro.core.proxy import ObladiProxy

#: The engine kinds :func:`create_engine` builds — what comparison harnesses
#: iterate over.
ENGINE_KINDS = ("obladi", "nopriv", "mysql")


#: The name callers import from :mod:`repro.api`; the one configuration type.
EngineConfig = ObladiConfig


def create_engine(kind: str, config: Optional[ObladiConfig] = None,
                  *, storage=None, clock=None, **overrides) -> TransactionEngine:
    """Create a :class:`TransactionEngine` of the given ``kind``.

    Parameters
    ----------
    kind:
        One of :data:`ENGINE_KINDS`: ``"obladi"``, ``"nopriv"`` or
        ``"mysql"``.
    config:
        An :class:`~repro.core.config.ObladiConfig`; defaults to
        ``ObladiConfig()``.  The baselines read only its ``backend``.
    storage:
        Optional pre-built storage tier to run against (shared-storage and
        trace-inspection scenarios): an
        :class:`~repro.storage.memory.InMemoryStorageServer`, or — for a
        multi-server Obladi topology — a
        :class:`~repro.storage.cluster.StorageCluster` whose server count
        matches ``storage_servers``.
    clock:
        Optional shared :class:`~repro.sim.clock.SimClock`.
    overrides:
        Field overrides applied on top of ``config``, so quick one-offs read
        ``create_engine("nopriv", backend="server_wan")``.
    """
    normalized = kind.lower()
    if normalized not in ENGINE_KINDS:
        raise KeyError(f"unknown engine kind {kind!r}; valid: "
                       f"{', '.join(ENGINE_KINDS)}")
    config = replace(config if config is not None else ObladiConfig(), **overrides)

    if normalized == "obladi":
        return ObladiEngine(ObladiProxy(config, storage=storage, clock=clock))

    baseline = NoPrivEngine if normalized == "nopriv" else MySQLEngine
    return baseline(backend=config.backend, clock=clock, storage=storage)
