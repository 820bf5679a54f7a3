"""N independent Ring ORAM partitions behind the :class:`DataLayer` seam.

The keyspace is hashed across ``config.shards`` partitions, each with its
own position map, stash, bucket metadata, key directory and storage
namespace (``p<i>/``).  An epoch read batch of ``b_read`` slots fans out as
``shards`` padded per-partition batches of ``ceil(b_read / shards)`` slots
each; the write batch fans out the same way.  Per-partition obliviousness is
preserved because every partition executes its full padded batch every round
regardless of how many real requests hashed to it.

**Server topology.**  Where each partition's namespace lives is the
``config.storage_servers`` knob: with one server (default) every namespace
is colocated on the shared store — the historical layout — while with a
:class:`~repro.storage.cluster.StorageCluster` partition ``i`` is hosted on
server ``i % M`` and its executor is timed against that *link*'s own latency
model, so a slow replica slows only the partitions it hosts and each server
records its own adversary trace.

**Timing.**  Partition batches are independent parallel work, but the proxy
has only ``config.parallelism`` request-driving slots.  While partitions fit
the available lanes the epoch's simulated batch duration is the *maximum*
over partitions — exactly how :mod:`repro.oram.dependency` treats the
independent slot fetches inside one batch.  When ``shards`` exceeds the
lanes the fan-out is *staggered*: the per-partition durations are
list-scheduled, in partition order, onto ``config.fanout_lanes`` lanes
(:meth:`repro.sim.scheduler.LaneStats.charge`), so the makespan lands
between the ideal-parallel bound (max) and the serial bound (sum) —
strictly above the ideal bound whenever no single partition dominates.
Each partition's executor runs with a deferred clock and the layer advances
the shared :class:`~repro.sim.clock.SimClock` once per fan-out.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional

from repro.core.config import ObladiConfig
from repro.core.version_cache import VersionCache
from repro.sharding.data_layer import DataLayer, build_partition, key_partition
from repro.sim.clock import SimClock
from repro.sim.latency import link_latency_models
from repro.sim.scheduler import LaneStats
from repro.storage.backend import StorageServer
from repro.storage.cluster import StorageCluster
from repro.storage.namespace import partition_prefix


class PartitionedDataLayer(DataLayer):
    """Shard the keyspace across parallel Ring ORAM partitions."""

    def __init__(self, config: ObladiConfig, storage: StorageServer,
                 clock: SimClock, master_key: bytes) -> None:
        if config.shards < 2:
            raise ValueError("PartitionedDataLayer needs at least two shards; "
                             "use SingleOramDataLayer for one")
        self.config = config
        self.clock = clock
        self.base_storage = storage
        self.cache = VersionCache()
        self.fanout_stats = LaneStats()
        cluster = storage if isinstance(storage, StorageCluster) else None
        if cluster is None and config.storage_servers > 1:
            raise ValueError(
                f"configuration asks for {config.storage_servers} storage "
                f"servers but the data layer was given a "
                f"{type(storage).__name__}; pass a "
                f"repro.storage.cluster.StorageCluster")
        # A cluster *larger* than the configuration is legal: live resharding
        # (``repro.elasticity``) grows the cluster before the target layer is
        # built and leaves departing servers idle after a scale-down, so a
        # layer must address servers through its *own* server count, never
        # the cluster's current size.
        if cluster is not None and cluster.num_servers < config.storage_servers:
            raise ValueError(
                f"storage cluster has {cluster.num_servers} servers but the "
                f"configuration asks for {config.storage_servers}")
        links = link_latency_models(config.backend, config.storage_servers,
                                    config.link_extra_rtt_ms)
        self.partitions = []
        for index in range(config.shards):
            # Reshard cutovers bump config.generation; the generation prefix
            # ("" at generation 0) namespaces this topology's partitions away
            # from the ones it replaced on the same storage.
            prefix = config.generation_prefix + partition_prefix(index)
            # Each partition addresses its own host server (round-robin on a
            # cluster, the shared store otherwise), its keys under its
            # namespace, and its executor is timed against that link's
            # latency model.
            if cluster is not None:
                host_index = index % config.storage_servers
                host, link = cluster.servers[host_index], links[host_index]
            else:
                host, link = storage, config.backend
            # Distinct deterministic RNG streams per partition (position
            # remapping, permutations); None stays None (non-reproducible).
            seed = (None if config.seed is None
                    else config.seed + 1_000_003 * (index + 1))
            self.partitions.append(
                build_partition(config, index, host, clock, master_key,
                                self.cache, component_prefix=prefix,
                                seed=seed, advance_clock=False, latency=link))
        self._partition_cache: Dict[str, int] = {}
        # Midstate of sha256 over the ``"0:"`` prefix: routing a cache-missed
        # key is one ``copy() + update(key)`` instead of re-hashing the
        # prefix — byte-identical to
        # :func:`repro.sharding.data_layer.key_partition`.
        self._route_state = hashlib.sha256(b"0:")

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def partition_of(self, key: str) -> int:
        """Index of the partition whose tree holds ``key`` (cached hash)."""
        index = self._partition_cache.get(key)
        if index is None:
            digest = self._route_state.copy()
            digest.update(key.encode("utf-8"))
            index = int.from_bytes(digest.digest()[:8], "big") % self.config.shards
            self._partition_cache[key] = index
        return index

    def partitions_of(self, keys: Iterable[str]) -> List[int]:
        """Partition index of every key — the batched :meth:`partition_of`.

        One pass over the routing cache; only cache misses touch the hash,
        each via the shared seed-prefix midstate.  Both epoch fan-outs route
        their whole padded batch through this single call.
        """
        cache = self._partition_cache
        shards = self.config.shards
        state = self._route_state
        out: List[int] = []
        for key in keys:
            index = cache.get(key)
            if index is None:
                digest = state.copy()
                digest.update(key.encode("utf-8"))
                index = int.from_bytes(digest.digest()[:8], "big") % shards
                cache[key] = index
            out.append(index)
        return out

    # ------------------------------------------------------------------ #
    # Epoch lifecycle
    # ------------------------------------------------------------------ #
    def _group_keys(self, keys) -> List[List[str]]:
        groups: List[List[str]] = [[] for _ in self.partitions]
        keys = list(keys)
        for key, index in zip(keys, self.partitions_of(keys)):
            groups[index].append(key)
        return groups

    def _group_items(self, items: Dict[str, bytes]) -> List[Dict[str, bytes]]:
        """Split a write batch into per-partition dicts (one routing call)."""
        groups: List[Dict[str, bytes]] = [{} for _ in self.partitions]
        keys = list(items)
        for key, index in zip(keys, self.partitions_of(keys)):
            groups[index][key] = items[key]
        return groups

    def begin_epoch(self) -> None:
        """Reset the version cache and every partition's per-epoch state."""
        self.cache.reset()
        for part in self.partitions:
            part.executor.begin_epoch()

    def abort_epoch(self) -> None:
        """Drop buffered writes and deferred time in every partition (crash path)."""
        self.cache.reset()
        for part in self.partitions:
            part.executor.abort_epoch()
            part.executor.take_deferred_ms()

    # ------------------------------------------------------------------ #
    # Batched physical operations (parallel across partitions)
    # ------------------------------------------------------------------ #
    def _advance_parallel(self) -> float:
        """Advance the shared clock by the fan-out's staggered makespan.

        Every partition's deferred batch duration is one unit of independent
        work on the ``config.fanout_lanes`` lanes
        (:meth:`repro.sim.scheduler.LaneStats.charge`): the slowest partition
        when the busy ones fit, otherwise a staggered schedule in partition
        order.
        """
        durations = [part.executor.take_deferred_ms() for part in self.partitions]
        makespan = self.fanout_stats.charge(durations, self.config.fanout_lanes)
        if makespan > 0:
            self.clock.advance(makespan)
        return makespan

    def execute_read_batch(self, keys, batch_size: int) -> Dict[str, Optional[bytes]]:
        """Fan one epoch read batch out as padded per-partition batches.

        ``batch_size`` is the configured epoch-level ``b_read``; every
        partition runs a padded batch of the per-partition quota, so the
        physical shape each partition's storage namespace observes is a
        function of the configuration alone.
        """
        del batch_size  # the per-partition quota is config-derived
        quota = self.config.partition_read_batch_size
        out: Dict[str, Optional[bytes]] = {}
        for part, group in zip(self.partitions, self._group_keys(keys)):
            out.update(part.handler.execute_read_batch(group, quota))
        self._advance_parallel()
        return out

    def execute_write_batch(self, items: Dict[str, bytes], batch_size: int) -> None:
        """Fan the epoch's write batch out as padded per-partition batches."""
        del batch_size
        quota = self.config.partition_write_batch_size
        for part, group in zip(self.partitions, self._group_items(items)):
            # A group can exceed the quota only through the proxy's overflow
            # fallback; pad to at least the quota, never truncate real writes.
            part.handler.execute_write_batch(group, max(quota, len(group)))
        self._advance_parallel()

    def flush(self) -> float:
        """Flush every partition's buffered rewrites; returns the fan-out makespan."""
        for part in self.partitions:
            part.handler.flush()
        return self._advance_parallel()

    def bulk_load(self, items: Dict[str, bytes]) -> None:
        """Load an initial dataset directly into each partition's tree."""
        groups: List[Dict[int, bytes]] = [{} for _ in self.partitions]
        for key, value in items.items():
            part = self.partition_for_key(key)
            groups[part.index][part.directory.block_id(key)] = value
        for part, blocks in zip(self.partitions, groups):
            part.oram.bulk_load(blocks)


def build_data_layer(config: ObladiConfig, storage: StorageServer,
                     clock: SimClock, master_key: bytes) -> DataLayer:
    """Construct the data layer the configuration asks for."""
    from repro.sharding.data_layer import SingleOramDataLayer
    if config.shards <= 1:
        return SingleOramDataLayer(config, storage, clock, master_key)
    return PartitionedDataLayer(config, storage, clock, master_key)
