"""Reshard plans: declarative topology changes for a live deployment.

A :class:`ReshardPlan` names the topology knobs a live engine should move
to — ORAM ``shards``, ``storage_servers``, ``proxy_workers`` — leaving the
rest of the configuration untouched.  Resolving a plan against the current
:class:`~repro.core.config.ObladiConfig` yields the *target* configuration:
the same workload parameters, batch quotas, seeds and keys, with the
requested topology and — when data actually has to move — the next
topology *generation*, which namespaces the new layout's storage keys away
from the one it replaces (``ObladiConfig.generation_prefix``).

Plans are pure data: they perform no I/O and touch no engine.  The engine
surface that consumes them is ``TransactionEngine.reshard(plan)``; the
mechanics of executing one live are in :mod:`repro.elasticity.migration`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.core.config import ObladiConfig

__all__ = ["ReshardPlan"]


@dataclass(frozen=True)
class ReshardPlan:
    """A declarative live topology change for one Obladi deployment.

    Every field is optional; ``None`` means "keep the current value".  A
    plan must name at least one knob, and resolving it re-runs the full
    configuration validation, so an inconsistent target (for example more
    storage servers than ORAM partitions to place on them) fails loudly at
    plan time, before any data moves.

    >>> from repro.core.config import ObladiConfig
    >>> plan = ReshardPlan(shards=4)
    >>> target = plan.resolve(ObladiConfig())
    >>> (target.shards, target.generation)
    (4, 1)
    """

    shards: Optional[int] = None
    storage_servers: Optional[int] = None
    proxy_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.shards, self.storage_servers, self.proxy_workers) == (None, None, None):
            raise ValueError("a reshard plan must name at least one topology knob")
        for name in ("shards", "storage_servers", "proxy_workers"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")

    def target_topology(self, config: ObladiConfig) -> Tuple[int, int, int]:
        """The ``(shards, storage_servers, proxy_workers)`` the plan lands on."""
        return (self.shards if self.shards is not None else config.shards,
                self.storage_servers if self.storage_servers is not None
                else config.storage_servers,
                self.proxy_workers if self.proxy_workers is not None
                else config.proxy_workers)

    def is_noop(self, config: ObladiConfig) -> bool:
        """Whether the plan leaves ``config``'s topology exactly as it is."""
        return self.target_topology(config) == (
            config.shards, config.storage_servers, config.proxy_workers)

    def requires_migration(self, config: ObladiConfig) -> bool:
        """Whether executing the plan must move ORAM data between layouts.

        Changing ``shards`` re-partitions the keyspace and changing
        ``storage_servers`` re-homes partitions onto different hosts; both
        need the padded background copy of
        :class:`~repro.elasticity.migration.TopologyMigration`.  A pure
        ``proxy_workers`` change only re-routes *trusted* proxy accounting,
        which is re-built instantly at an epoch barrier — the adversary-visible
        data layer is handed over untouched.
        """
        shards, servers, _ = self.target_topology(config)
        return shards != config.shards or servers != config.storage_servers

    def resolve(self, config: ObladiConfig) -> ObladiConfig:
        """The target configuration this plan moves ``config`` to.

        The generation counter is bumped exactly when data must move
        (:meth:`requires_migration`): the new layout's storage keys then live
        under ``g<generation>/`` so both generations coexist on the same
        servers while the migration runs.  Workload parameters, batch
        quotas, cipher keys and seeds all carry over unchanged; a scale-down
        drops the extra link delays of the servers it leaves idle.
        """
        shards, servers, workers = self.target_topology(config)
        generation = config.generation + (1 if self.requires_migration(config) else 0)
        return replace(config, shards=shards, storage_servers=servers,
                       link_extra_rtt_ms=config.link_extra_rtt_ms[:servers],
                       proxy_workers=workers, generation=generation)
