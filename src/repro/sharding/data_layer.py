"""The proxy's data-layer seam: one interface, single or partitioned ORAM.

Before this seam existed the proxy hard-wired one ``RingOram`` + one
``EpochBatchExecutor`` + one ``DataHandler``; every layer that touched the
data path (core, recovery, api) assumed exactly one tree.  The
:class:`DataLayer` interface is the single place that assumption now lives:

* :class:`SingleOramDataLayer` is today's behavior, extracted — one tree,
  one executor that advances the shared clock directly;
* :class:`~repro.sharding.partitioned.PartitionedDataLayer` hashes the
  keyspace across N independent Ring ORAM partitions and simulates their
  epoch batches as parallel work (epoch batch duration = max over
  partitions).

The proxy, the recovery manager and the Obladi engine program against
this interface only; future backends (e.g. a remote oblivious store, a
different ORAM construction) plug in here.
"""

from __future__ import annotations

import abc
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
from repro.storage.backend import StorageServer
from repro.storage.cluster import StorageCluster


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
    """One Ring ORAM partition: tree, executor, key directory, storage view."""

    index: int
    oram: RingOram
    executor: EpochBatchExecutor
    handler: DataHandler
    storage: StorageServer
    component_prefix: str       # checkpoint-component namespace ("" or "p<i>/")

    @property
    def directory(self) -> KeyDirectory:
        """The partition's application-key → block-id directory."""
        return self.handler.directory

    @property
    def cipher(self) -> CipherSuite:
        """The partition's ORAM block cipher (per-partition derived key)."""
        return self.oram.cipher


class DataLayer(abc.ABC):
    """What the proxy needs from its oblivious data path, per epoch.

    Implementations own one or more :class:`OramPartition` objects plus the
    epoch's shared :class:`VersionCache`; they are responsible for routing
    application keys to partitions and for modelling how much simulated time
    an epoch's physical batches take on the shared clock.
    """

    config: ObladiConfig
    clock: SimClock
    cache: VersionCache
    partitions: List[OramPartition]

    # -- routing -------------------------------------------------------- #
    @abc.abstractmethod
    def partition_of(self, key: str) -> int:
        """Index of the partition that holds ``key``."""

    def partition_for_key(self, key: str) -> OramPartition:
        """The partition object that holds ``key``."""
        return self.partitions[self.partition_of(key)]

    @property
    def num_partitions(self) -> int:
        """How many ORAM partitions this layer runs."""
        return len(self.partitions)

    # -- epoch lifecycle ------------------------------------------------ #
    @abc.abstractmethod
    def begin_epoch(self) -> None:
        """Reset per-epoch state in every partition and the version cache."""

    @abc.abstractmethod
    def abort_epoch(self) -> None:
        """Drop buffered writes and the version cache (crash path)."""

    # -- batched physical operations ------------------------------------ #
    @abc.abstractmethod
    def execute_read_batch(self, keys, batch_size: int) -> Dict[str, Optional[bytes]]:
        """Run one epoch read batch (padded) and install base values."""

    @abc.abstractmethod
    def execute_write_batch(self, items: Dict[str, bytes], batch_size: int) -> None:
        """Write the epoch's final values as one padded write batch."""

    @abc.abstractmethod
    def flush(self) -> float:
        """Flush buffered bucket rewrites; returns the simulated duration."""

    @abc.abstractmethod
    def bulk_load(self, items: Dict[str, bytes]) -> None:
        """Load an initial dataset directly into the tree(s)."""

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

    # -- stash lookups (single reads while serving transactions) -------- #
    def stash_resident(self, key: str) -> bool:
        """Whether ``key`` currently sits in its partition's stash."""
        return self.partition_for_key(key).handler.stash_resident(key)

    def stash_value(self, key: str) -> Optional[bytes]:
        """The stash-resident value of ``key`` (``None`` when absent)."""
        return self.partition_for_key(key).handler.stash_value(key)

    # -- accounting ----------------------------------------------------- #
    def per_partition_physical(self) -> List[Tuple[int, int]]:
        """Lifetime ``(physical_reads, physical_writes)`` per partition."""
        return [(p.executor.lifetime_stats.physical_reads,
                 p.executor.lifetime_stats.physical_writes)
                for p in self.partitions]

    def lifetime_physical(self) -> Tuple[int, int]:
        """Aggregate lifetime ``(physical_reads, physical_writes)``."""
        per = self.per_partition_physical()
        return (sum(r for r, _ in per), sum(w for _, w in per))


def _oram_cipher_key(master_key: bytes, partition_index: int, shards: int) -> bytes:
    """Per-partition ORAM block key derived from the proxy's master key.

    A single-ORAM layer keeps the historical ``"oram-block"`` purpose string
    so existing deployments (and the recovery path) stay compatible;
    partitions get distinct keys so identical (bucket, version, slot)
    freshness contexts in different partitions never share a keystream.
    """
    from repro.recovery.manager import derive_key
    if shards <= 1:
        return derive_key(master_key, "oram-block")
    return derive_key(master_key, f"oram-block/p{partition_index}")


def build_partition(config: ObladiConfig, index: int, storage: StorageServer,
                    clock: SimClock, master_key: bytes, cache: VersionCache,
                    component_prefix: str, seed: Optional[int],
                    advance_clock: bool, latency=None) -> OramPartition:
    """Assemble one partition's ORAM stack over (a view of) the storage.

    ``latency`` is the latency model of the proxy-to-server *link* this
    partition's physical batches travel; it defaults to the configured
    backend and differs per partition only when the partitions live on
    distinct storage servers (see :mod:`repro.storage.cluster`).
    """
    shards = config.shards
    oram_config = config.oram if shards <= 1 else config.oram.for_partition(shards)
    params = oram_config.to_parameters()
    cipher = CipherSuite(key=_oram_cipher_key(master_key, index, shards),
                         block_size=params.block_size + 8,
                         enabled=config.encrypt)
    oram = RingOram(params, storage, cipher=cipher, clock=clock,
                    cost_model=config.cost_model, seed=seed)
    executor = EpochBatchExecutor(oram,
                                  latency=latency if latency is not None
                                  else config.backend,
                                  parallelism=config.parallelism,
                                  cost_model=config.cost_model,
                                  buffer_writes=config.buffer_writes,
                                  advance_clock=advance_clock)
    handler = DataHandler(oram, executor, cache=cache)
    return OramPartition(index=index, oram=oram, executor=executor, handler=handler,
                         storage=storage, component_prefix=component_prefix)


class SingleOramDataLayer(DataLayer):
    """Today's data path, extracted: one Ring ORAM tree over the raw store."""

    def __init__(self, config: ObladiConfig, storage: StorageServer,
                 clock: SimClock, master_key: bytes) -> None:
        self.config = config
        self.clock = clock
        self.cache = VersionCache()
        # Generation 0 addresses the raw store directly (the historical
        # layout, byte-for-byte); later generations — topologies installed by
        # a reshard cutover — namespace their tree under "g<g>/" so they
        # coexist with the generation they replaced on the same storage.
        gen_prefix = config.generation_prefix
        # After a scale-down to one storage server the tier is still a
        # cluster; the tree lives on its first server, and must address that
        # server itself (as each partition of a partitioned layer addresses
        # its host) for the batch boundaries to reach the server's trace.
        if isinstance(storage, StorageCluster):
            storage = storage.servers[0]
        view = storage
        if gen_prefix:
            from repro.storage.namespace import NamespacedStorage
            view = NamespacedStorage(storage, gen_prefix)
        self.partitions = [build_partition(config, 0, view, clock, master_key,
                                           self.cache, component_prefix=gen_prefix,
                                           seed=config.seed, advance_clock=True)]
        self._handler = self.partitions[0].handler

    def partition_of(self, key: str) -> int:
        return 0

    def begin_epoch(self) -> None:
        self._handler.begin_epoch()

    def abort_epoch(self) -> None:
        self._handler.abort_epoch()

    def execute_read_batch(self, keys, batch_size: int) -> Dict[str, Optional[bytes]]:
        return self._handler.execute_read_batch(keys, batch_size)

    def execute_write_batch(self, items: Dict[str, bytes], batch_size: int) -> None:
        self._handler.execute_write_batch(items, batch_size)

    def flush(self) -> float:
        return self._handler.flush()

    def bulk_load(self, items: Dict[str, bytes]) -> None:
        blocks = {self._handler.directory.block_id(key): value
                  for key, value in items.items()}
        self.partitions[0].oram.bulk_load(blocks)
