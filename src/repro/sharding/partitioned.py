"""The proxy's data layer: ``config.shards`` independent Ring ORAM partitions.

One partition is the paper's proxy (§6–§7), one Ring ORAM tree, byte for
byte: its keys carry only the generation's namespace, its RNG stream is
``config.seed`` and its block key keeps the ``"oram-block"`` purpose.  With
N > 1 the keyspace is hashed across the partitions, each with its own
position map, stash, bucket metadata, key directory and storage namespace
(``p<i>/``).  An epoch read batch of ``b_read`` slots fans out as ``shards``
padded per-partition batches of ``ceil(b_read / shards)`` slots each; the
write batch fans out the same way.  Per-partition obliviousness is
preserved because every partition executes its full padded batch every
round regardless of how many real requests hashed to it.

**Server topology.**  Where each partition's namespace lives is the
``config.storage_servers`` knob: with one server (default) every namespace
is colocated on the shared store, while with a
:class:`~repro.storage.cluster.StorageCluster` partition ``i`` is hosted on
server ``i % M``.  Either way partition ``i`` is timed against link
``i % M`` of :func:`~repro.sim.latency.link_latency_models`, so a slow link
slows only the partitions it carries and each server records its own
adversary trace.

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
the shared :class:`~repro.sim.clock.SimClock` once per fan-out; one
partition's fan-out is its own batch's duration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import ObladiConfig
from repro.core.data_handler import DataHandler, KeyDirectory
from repro.core.version_cache import VersionCache
from repro.oram.batch_executor import EpochBatchExecutor
from repro.oram.crypto import CipherSuite
from repro.oram.ring_oram import RingOram
from repro.sim.clock import SimClock
from repro.sim.latency import LatencyModel, link_latency_models
from repro.sim.scheduler import LaneStats
from repro.storage.backend import StorageServer
from repro.storage.cluster import StorageCluster
from repro.storage.namespace import partition_prefix


def key_partition(key: str, shards: int) -> int:
    """Deterministic partition of an application key.

    Uses sha256 of ``"0:" + key`` rather than Python's builtin ``hash``
    (which is salted per process): the mapping must survive proxy crashes so
    recovery re-routes every key to the partition that holds it.  The fixed
    ``"0:"`` prefix keeps every recorded partition map byte-identical.
    """
    if shards <= 1:
        return 0
    digest = hashlib.sha256(f"0:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


@dataclass
class OramPartition:
    """One Ring ORAM partition: tree, executor, key directory, host server.

    ``component_prefix`` is the partition's namespace (``""``, ``g<g>/``,
    ``p<i>/`` or ``g<g>/p<i>/``): its checkpoint components are named under
    it, and its tree's slot keys start with it (``oram.key_prefix``).
    """

    index: int
    oram: RingOram
    executor: EpochBatchExecutor
    handler: DataHandler
    storage: StorageServer
    component_prefix: str

    @property
    def directory(self) -> KeyDirectory:
        """The partition's application-key → block-id directory."""
        return self.handler.directory

    @property
    def cipher(self) -> CipherSuite:
        """The partition's ORAM block cipher (per-partition derived key)."""
        return self.oram.cipher


def build_partition(config: ObladiConfig, index: int, host: StorageServer,
                    link: LatencyModel, clock: SimClock, master_key: bytes,
                    cache: VersionCache) -> OramPartition:
    """Assemble partition ``index``'s ORAM stack on its host server.

    The tree addresses ``host`` itself, its keys under the partition's
    namespace, and its executor charges the ``link`` latency model to a
    deferred clock.  Reshard cutovers bump ``config.generation``: the
    generation prefix (``""`` at generation 0) namespaces this topology away
    from the one it replaced on the same storage.  One partition keeps the
    single tree's namespace, seed and ``"oram-block"`` key; with more, each
    adds ``p<i>/``, its own RNG stream (``None`` stays ``None``,
    non-reproducible) and its own key, so identical (bucket, version, slot)
    freshness contexts in different partitions never share a keystream.
    """
    from repro.recovery.manager import derive_key
    shards = config.shards
    if shards == 1:
        prefix, seed, purpose = config.generation_prefix, config.seed, "oram-block"
    else:
        prefix = config.generation_prefix + partition_prefix(index)
        seed = None if config.seed is None else config.seed + 1_000_003 * (index + 1)
        purpose = f"oram-block/p{index}"
    params = config.oram.for_partition(shards).to_parameters()
    cipher = CipherSuite(key=derive_key(master_key, purpose),
                         block_size=params.block_size + 8,
                         enabled=config.encrypt)
    oram = RingOram(params, host, cipher=cipher, clock=clock,
                    cost_model=config.cost_model, seed=seed, key_prefix=prefix)
    executor = EpochBatchExecutor(oram, latency=link,
                                  parallelism=config.parallelism,
                                  cost_model=config.cost_model,
                                  buffer_writes=config.buffer_writes,
                                  advance_clock=False)
    handler = DataHandler(oram, executor, cache=cache)
    return OramPartition(index=index, oram=oram, executor=executor, handler=handler,
                         storage=host, component_prefix=prefix)


class PartitionedDataLayer:
    """The proxy's oblivious data path: key directories, version cache, trees.

    Owns ``config.shards`` :class:`OramPartition` objects plus the epoch's
    shared :class:`VersionCache`; routes application keys to partitions and
    models how much simulated time an epoch's physical batches take on the
    shared clock.  The proxy, the recovery manager and the Obladi engine
    program against this class only.
    """

    def __init__(self, config: ObladiConfig, storage: StorageServer,
                 clock: SimClock, master_key: bytes) -> None:
        self.config = config
        self.clock = clock
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
        servers = cluster.servers if cluster is not None else [storage]
        links = link_latency_models(config.backend, config.storage_servers,
                                    config.link_extra_rtt_ms)
        self.partitions = [
            build_partition(config, index, servers[index % config.storage_servers],
                            links[index % config.storage_servers], clock,
                            master_key, self.cache)
            for index in range(config.shards)]
        self._partition_cache: Dict[str, int] = {}
        # Midstate of sha256 over the ``"0:"`` prefix: routing a cache-missed
        # key is one ``copy() + update(key)`` instead of re-hashing the
        # prefix — byte-identical to :func:`key_partition`.
        self._route_state = hashlib.sha256(b"0:")

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def partition_of(self, key: str) -> int:
        """Index of the partition whose tree holds ``key`` (cached hash)."""
        if self.config.shards == 1:
            return 0
        index = self._partition_cache.get(key)
        return index if index is not None else self._route(key)

    def partitions_of(self, keys: List[str]) -> List[int]:
        """Partition index of every key — the batched :meth:`partition_of`.

        One pass over the routing cache; only cache misses are hashed.  Both
        epoch fan-outs route their whole padded batch through this single
        call.
        """
        if self.config.shards == 1:
            return [0] * len(keys)
        cache, route = self._partition_cache, self._route
        out: List[int] = []
        for key in keys:
            index = cache.get(key)
            out.append(index if index is not None else route(key))
        return out

    def _route(self, key: str) -> int:
        """Hash ``key`` to its partition by :func:`key_partition`'s rule, and cache it.

        One partition holds every key, unhashed; the callers return 0 before
        reaching here.  The hash starts from the shared ``"0:"`` midstate.
        """
        digest = self._route_state.copy()
        digest.update(key.encode("utf-8"))
        index = int.from_bytes(digest.digest()[:8], "big") % self.config.shards
        self._partition_cache[key] = index
        return index

    def partition_for_key(self, key: str) -> OramPartition:
        """The partition object that holds ``key``."""
        return self.partitions[self.partition_of(key)]

    @property
    def num_partitions(self) -> int:
        """How many ORAM partitions this layer runs."""
        return len(self.partitions)

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

    # ------------------------------------------------------------------ #
    # Epoch lifecycle
    # ------------------------------------------------------------------ #
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

    def collect(self) -> None:
        """Delete the bucket versions the flushes superseded, one batch per partition.

        The proxy calls this once the epoch has committed
        (:meth:`~repro.oram.batch_executor.EpochBatchExecutor.collect`).
        """
        for part in self.partitions:
            part.executor.collect()

    def retire(self) -> None:
        """Delete every slot key the layer still stores, one batch per partition.

        For a layer a reshard cutover has replaced: nothing durable names
        its buckets any more.
        """
        for part in self.partitions:
            part.executor.retire()

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

    # ------------------------------------------------------------------ #
    # Stash lookups (single reads while serving transactions)
    # ------------------------------------------------------------------ #
    def stash_resident(self, key: str) -> bool:
        """Whether ``key`` currently sits in its partition's stash."""
        return self.partition_for_key(key).handler.stash_resident(key)

    def stash_value(self, key: str) -> Optional[bytes]:
        """The stash-resident value of ``key`` (``None`` when absent)."""
        return self.partition_for_key(key).handler.stash_value(key)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def per_partition_physical(self) -> List[Tuple[int, int]]:
        """Lifetime ``(physical_reads, physical_writes)`` per partition."""
        return [(p.executor.lifetime_stats.physical_reads,
                 p.executor.lifetime_stats.physical_writes)
                for p in self.partitions]

    def lifetime_physical(self) -> Tuple[int, int]:
        """Aggregate lifetime ``(physical_reads, physical_writes)``."""
        per = self.per_partition_physical()
        return (sum(r for r, _ in per), sum(w for _, w in per))
