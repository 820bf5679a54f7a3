"""Elastic topologies: oblivious live resharding plus an autoscaling loop.

A statically provisioned Obladi deployment wastes money at night and drops
arrivals under a flash crowd.  This package makes the three topology knobs —
ORAM ``shards``, ``storage_servers``, ``proxy_workers`` — movable *while the
system runs*, without weakening the per-node obliviousness story:

* :class:`ReshardPlan` (:mod:`repro.elasticity.plan`) names a target
  topology declaratively; ``TransactionEngine.reshard(plan)`` stages it.
* :class:`TopologyMigration` (:mod:`repro.elasticity.migration`) moves the
  keyspace into a next-generation data layer as padded, fixed-shape batches
  riding the foreground epoch barriers; the cutover retires the old proxy
  at a clean barrier and writes a full-checkpoint fence so crash recovery
  lands on exactly one side.
* :class:`AutoscaleController` (:mod:`repro.elasticity.controller`) closes
  the loop: open-loop pressure signals in, reshard plans out, every
  decision recorded on ``RunStats.controller``.
* :class:`FlashCrowdArrivals` (:mod:`repro.elasticity.arrivals`) provides
  the time-varying load shape the controller is evaluated under.

See ``docs/ARCHITECTURE.md`` — "Elasticity" — for the full walkthrough,
including the migration fence diagram and what the adversary does (and does
not) learn from a migration window.
"""

from repro.elasticity.arrivals import FlashCrowdArrivals
from repro.elasticity.controller import (AutoscaleController, AutoscaleDecision,
                                         AutoscalePolicy, ControllerReport)
from repro.elasticity.migration import (MigrationReport, TopologyMigration,
                                        prepare_storage)
from repro.elasticity.plan import ReshardPlan

__all__ = [
    "AutoscaleController",
    "AutoscaleDecision",
    "AutoscalePolicy",
    "ControllerReport",
    "FlashCrowdArrivals",
    "MigrationReport",
    "ReshardPlan",
    "TopologyMigration",
    "prepare_storage",
]
