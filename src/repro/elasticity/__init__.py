"""Elastic topologies: oblivious live resharding, staged by an operator.

A statically provisioned Obladi deployment cannot grow with its data or its
load.  This package makes the three topology knobs — ORAM ``shards``,
``storage_servers``, ``proxy_workers`` — movable *while the system runs*,
without weakening the per-node obliviousness story:

* :class:`ReshardPlan` (:mod:`repro.elasticity.plan`) names a target
  topology declaratively; ``TransactionEngine.reshard(plan)`` stages it.
* :class:`TopologyMigration` (:mod:`repro.elasticity.migration`) moves the
  keyspace into a next-generation data layer as padded, fixed-shape batches
  riding the foreground epoch barriers; the cutover retires the old proxy
  at a clean barrier and writes a full-checkpoint fence so crash recovery
  lands on exactly one side.

A reshard is an operator action: the epoch it starts at is the operator's
choice and is public (``Leakage.reshards``); nothing in the engine stages one.

See ``docs/ARCHITECTURE.md`` — "Elasticity" — for the full walkthrough,
including the migration fence diagram and what the adversary does (and does
not) learn from a migration window.
"""

from repro.elasticity.migration import MigrationReport, TopologyMigration
from repro.elasticity.plan import ReshardPlan

__all__ = [
    "MigrationReport",
    "ReshardPlan",
    "TopologyMigration",
]
