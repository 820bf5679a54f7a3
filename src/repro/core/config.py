"""Configuration of the Obladi proxy and its Ring ORAM tree.

The parameters mirror Table 1 of the paper:

===========  ==================================================
``N``        number of real objects (``RingOramConfig.num_blocks``)
``Z``        real slots per bucket
``S``        dummy slots per bucket
``A``        accesses between evict-path operations
``L``        tree depth
``R``        read batches per epoch (``ObladiConfig.read_batches``)
``b_read``   size of a read batch
``b_write``  size of the (single) write batch
``Δ``        interval between read batches, in simulated ms
===========  ==================================================

Section 6.4 discusses how to choose them; :meth:`ObladiConfig.with_workload`
encodes those rules of thumb so the end-to-end experiments configure
themselves the way the paper describes (OLTP: large ``b_read``, few ``R``;
read-mostly applications: small ``b_write``).  :class:`ObladiConfig` is the
one configuration type: every engine reads it (the baselines only its
``backend``), and its ``with_*`` builders each return a validated copy::

    >>> config = (ObladiConfig().with_workload("tpcc")
    ...           .with_batching(write_batch_size=64).with_sharding(2))
    >>> config.read_batches, config.write_batch_size, config.shards
    (8, 64, 2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.oram.parameters import (RingOramParameters, derive_parameters,
                                   partition_block_count)
from repro.sim.latency import CpuCostModel


@dataclass(frozen=True)
class RingOramConfig:
    """User-facing Ring ORAM sizing; converted to RingOramParameters."""

    num_blocks: int = 10_000
    z_real: int = 16
    s_dummies: int = 0          # 0 = use the published optimum for Z
    evict_rate: int = 0         # 0 = use the published optimum for Z
    block_size: int = 256
    max_stash_blocks: int = 0   # 0 = conservative default (4Z)

    def to_parameters(self) -> RingOramParameters:
        """The tree geometry: zero ``s_dummies`` / ``evict_rate`` take the published optimum."""
        return derive_parameters(
            num_blocks=self.num_blocks,
            z_real=self.z_real,
            block_size=self.block_size,
            evict_rate=self.evict_rate,
            s_dummies=self.s_dummies,
            max_stash_blocks=self.max_stash_blocks,
        )

    def for_partition(self, shards: int) -> "RingOramConfig":
        """Sizing for one of ``shards`` partitions covering the same keyspace."""
        return replace(self, num_blocks=partition_block_count(self.num_blocks, shards))


#: §6.4's epoch shape per application: what :meth:`ObladiConfig.with_workload` sets.
_WORKLOAD_PRESETS = {
    "tpcc": dict(read_batches=8, read_batch_size=96, write_batch_size=192,
                 batch_interval_ms=10.0),
    "smallbank": dict(read_batches=3, read_batch_size=64, write_batch_size=64,
                      batch_interval_ms=5.0),
    "freehealth": dict(read_batches=5, read_batch_size=64, write_batch_size=24,
                       batch_interval_ms=5.0),
    "ycsb": dict(read_batches=1, read_batch_size=500, write_batch_size=100,
                 batch_interval_ms=10.0),
}


@dataclass(frozen=True)
class ObladiConfig:
    """Full configuration of an Obladi proxy."""

    oram: RingOramConfig = field(default_factory=RingOramConfig)

    # Epoch / batching parameters (Table 1).
    read_batches: int = 4            # R
    read_batch_size: int = 64        # b_read
    write_batch_size: int = 64       # b_write
    batch_interval_ms: float = 5.0   # Δ: interval between read batches

    # Storage / network.
    backend: str = "server"          # latency model name or LatencyModel
    parallelism: int = 1024          # max in-flight physical requests at the proxy

    # Sharding: number of independent Ring ORAM partitions the keyspace is
    # hashed across (1 = the paper's single-tree proxy).
    shards: int = 1

    # Server topology: how many *distinct* simulated storage servers the
    # proxy's StorageCluster runs.  1 (the default) colocates every
    # partition on one server via key namespaces; ``storage_servers ==
    # shards`` is one-server-per-partition; values in between group
    # partitions round-robin (partition i lives on server i % M).
    # ``link_extra_rtt_ms[i]`` optionally adds a finite, non-negative
    # round-trip latency to server i's link (heterogeneous links; at most
    # one entry per server, and servers past the end get none).
    storage_servers: int = 1
    link_extra_rtt_ms: Tuple[float, ...] = ()

    # Proxy tier: how many trusted ``ProxyWorker`` lanes the one proxy
    # divides its MVTSO concurrency-control work across (``repro.proxytier``).
    # Application keys hash over the lanes with the same sha256 partition
    # map the data layer uses, their CPU runs as parallel lanes, and N > 1
    # lanes vote at the epoch barrier.  1 (the default) is the paper's single
    # proxy: one lane owns every key and casts no vote.  Orthogonal to
    # ``shards`` (ORAM partitions) and ``storage_servers`` (untrusted hosts):
    # any combination is valid.
    proxy_workers: int = 1

    # Conflict resolution: what the proxy does with transactions that lose
    # an MVTSO conflict (a late write hit a read marker, or a dependency
    # aborted).  "retry" (the default, byte-identical to the historical
    # behaviour) leaves recovery to the loop drivers' abort+retry path;
    # "repair" re-executes losers against the winning versions inside the
    # epoch that detected the conflict, under the same epoch barrier
    # (``ObladiProxy._repair_conflict_losers``; ARCHITECTURE "Conflict
    # resolution").
    conflict_strategy: str = "retry"

    # Security toggles (used by ablation benchmarks).
    encrypt: bool = True
    cache_stash_reads: bool = True
    buffer_writes: bool = True       # delayed visibility (Figure 10d ablation)

    # Durability.
    durability: bool = True
    checkpoint_frequency: int = 4    # full checkpoint every k epochs (Figure 11a)

    # Topology generation (``repro.elasticity``): bumped by one at every
    # reshard cutover.  Generation 0 — the value every statically provisioned
    # config carries — adds no storage prefix, so the historical layouts stay
    # byte-identical; generation g > 0 namespaces the partitions and their
    # checkpoint components under ``g<g>/``, which is what lets two topology
    # generations coexist on the same storage during a live migration and
    # lets ``recover()`` land on exactly one side of the cutover fence.
    generation: int = 0

    # Misc.
    seed: Optional[int] = 0
    cost_model: CpuCostModel = field(default_factory=CpuCostModel)

    def __post_init__(self) -> None:
        if self.read_batches < 1:
            raise ValueError("an epoch needs at least one read batch")
        if self.read_batch_size < 1 or self.write_batch_size < 1:
            raise ValueError("batch sizes must be positive")
        if not 0 <= self.batch_interval_ms < math.inf:
            raise ValueError(f"batch interval must be finite and non-negative, "
                             f"got {self.batch_interval_ms}")
        if not 0 <= self.cost_model.cc_op_ms < math.inf:
            raise ValueError(f"cc_op_ms must be finite and non-negative, "
                             f"got {self.cost_model.cc_op_ms}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if self.checkpoint_frequency < 1:
            raise ValueError("checkpoint frequency must be at least 1")
        if self.shards < 1:
            raise ValueError("need at least one ORAM partition")
        if self.storage_servers < 1:
            raise ValueError("need at least one storage server")
        if self.storage_servers > self.shards:
            raise ValueError(
                f"cannot spread {self.shards} partition(s) over "
                f"{self.storage_servers} storage servers; "
                f"storage_servers must not exceed shards")
        if len(self.link_extra_rtt_ms) > self.storage_servers:
            raise ValueError(
                f"{len(self.link_extra_rtt_ms)} link_extra_rtt_ms entries for "
                f"{self.storage_servers} storage server(s); give at most one "
                f"per server")
        if not all(0 <= extra < math.inf for extra in self.link_extra_rtt_ms):
            raise ValueError(f"link_extra_rtt_ms entries must be finite and "
                             f"non-negative, got {self.link_extra_rtt_ms}")
        if self.proxy_workers < 1:
            raise ValueError(
                f"need at least one proxy worker, got "
                f"{self.proxy_workers}; proxy_workers shards the *trusted* "
                f"MVTSO/version-cache tier and is independent of shards "
                f"(={self.shards}, ORAM partitions of the data layer) and "
                f"storage_servers (={self.storage_servers}, untrusted "
                f"hosts) — any combination of the three is valid, but each "
                f"knob must be >= 1")
        if self.conflict_strategy not in ("retry", "repair"):
            raise ValueError(
                f"unknown conflict_strategy {self.conflict_strategy!r}; "
                f"valid: retry, repair")
        if self.generation < 0:
            raise ValueError("topology generation cannot be negative")

    # ------------------------------------------------------------------ #
    # Sharding-derived quantities
    # ------------------------------------------------------------------ #
    @property
    def partition_read_batch_size(self) -> int:
        """Per-partition read-batch quota (``ceil(b_read / shards)``).

        Every partition executes a padded batch of exactly this many slots
        per round, so the per-partition adversary view stays workload
        independent.
        """
        return math.ceil(self.read_batch_size / self.shards)

    @property
    def partition_write_batch_size(self) -> int:
        """Per-partition write-batch quota (``ceil(b_write / shards)``)."""
        return math.ceil(self.write_batch_size / self.shards)

    @property
    def generation_prefix(self) -> str:
        """Storage namespace prefix of this topology generation.

        Empty for generation 0 (the statically provisioned layouts keep
        their historical key space byte-for-byte); ``g<g>/`` afterwards, so
        partition ``i`` of generation ``g`` lives under ``g<g>/p<i>/`` and
        its checkpoint components under the same prefix — disjoint from
        every earlier generation on the same storage.
        """
        return "" if self.generation == 0 else f"g{self.generation}/"

    @property
    def fanout_lanes(self) -> int:
        """Concurrent partition batches the proxy can drive (§7 scale model).

        The proxy fans an epoch batch out to every partition's server, but it
        only has ``parallelism`` request-driving slots: when partitions
        outnumber them the fan-out is *staggered* — partition batches are
        list-scheduled onto this many lanes instead of all starting at once.
        """
        return max(1, min(self.parallelism, self.shards))

    @property
    def position_delta_pad_entries(self) -> int:
        """Per-partition padding bound for position-map delta checkpoints (§8).

        A partition's position map changes at most its share of the epoch's
        read slots plus its share of the write batch (``R·b_read + b_write``
        on a single tree).
        """
        return (self.read_batches * self.partition_read_batch_size
                + self.partition_write_batch_size)

    # ------------------------------------------------------------------ #
    # Builders: each returns a validated copy and leaves ``self`` alone
    # ------------------------------------------------------------------ #
    def with_workload(self, profile: str) -> "ObladiConfig":
        """Adopt a §6.4 preset for R / b_read / b_write / Δ.

        ``tpcc``       — heterogeneous OLTP: deep epochs (8 read batches), a
                         large write batch (the paper uses 2,000 at EC2 scale).
        ``smallbank``  — short homogeneous transactions: shallow epochs.
        ``freehealth`` — read-mostly EHR workload: five read batches, small
                         write batch.
        ``ycsb``       — microbenchmark: a single large read batch.

        Builders called afterwards override the preset.
        """
        if profile not in _WORKLOAD_PRESETS:
            raise KeyError(f"unknown workload profile {profile!r}; "
                           f"valid: {', '.join(sorted(_WORKLOAD_PRESETS))}")
        return replace(self, **_WORKLOAD_PRESETS[profile])

    def with_backend(self, backend: str) -> "ObladiConfig":
        """Target a storage latency model (``server``/``server_wan``/``dynamo``/``dummy``)."""
        return replace(self, backend=backend)

    def with_oram(self, oram: Optional[RingOramConfig] = None,
                  **oram_fields) -> "ObladiConfig":
        """Set the Ring ORAM sizing, whole or field by field.

        Field overrides apply on top of ``oram`` when it is given, and on
        top of the current sizing otherwise.
        """
        base = oram if oram is not None else self.oram
        return replace(self, oram=replace(base, **oram_fields))

    def with_batching(self, *, read_batches: Optional[int] = None,
                      read_batch_size: Optional[int] = None,
                      write_batch_size: Optional[int] = None,
                      batch_interval_ms: Optional[float] = None) -> "ObladiConfig":
        """Set the epoch shape (R / b_read / b_write / Δ); ``None`` keeps the current value."""
        updates = {key: value for key, value in (
            ("read_batches", read_batches),
            ("read_batch_size", read_batch_size),
            ("write_batch_size", write_batch_size),
            ("batch_interval_ms", batch_interval_ms)) if value is not None}
        return replace(self, **updates)

    def with_sharding(self, shards: int) -> "ObladiConfig":
        """Hash the keyspace across ``shards`` parallel ORAM trees (1 = one tree)."""
        return replace(self, shards=shards)

    def with_storage_servers(self, storage_servers: int,
                             link_extra_rtt_ms: Optional[Tuple[float, ...]] = None
                             ) -> "ObladiConfig":
        """Host the partitions on ``storage_servers`` distinct servers.

        Partition ``i`` lives on server ``i % storage_servers``, so the count
        must not exceed ``shards``; set :meth:`with_sharding` first.
        ``link_extra_rtt_ms[i]`` adds round-trip time to server ``i``'s link.
        """
        if link_extra_rtt_ms is None:
            return replace(self, storage_servers=storage_servers)
        return replace(self, storage_servers=storage_servers,
                       link_extra_rtt_ms=tuple(link_extra_rtt_ms))

    def with_proxy_workers(self, proxy_workers: int) -> "ObladiConfig":
        """Divide the trusted MVTSO work across ``proxy_workers`` lanes (``repro.proxytier``)."""
        return replace(self, proxy_workers=proxy_workers)

    def with_conflict_strategy(self, strategy: str) -> "ObladiConfig":
        """``"retry"`` aborts MVTSO conflict losers; ``"repair"`` re-executes them in the epoch."""
        return replace(self, conflict_strategy=strategy)

    def with_parallelism(self, parallelism: int) -> "ObladiConfig":
        """Cap the proxy's in-flight physical requests (and fan-out lanes)."""
        return replace(self, parallelism=parallelism)

    def with_durability(self, enabled: bool = True,
                        checkpoint_frequency: Optional[int] = None) -> "ObladiConfig":
        """Toggle WAL + checkpointing, optionally setting the full-checkpoint period."""
        config = replace(self, durability=enabled)
        if checkpoint_frequency is not None:
            config = replace(config, checkpoint_frequency=checkpoint_frequency)
        return config

    def with_encryption(self, enabled: bool = True) -> "ObladiConfig":
        """Toggle ORAM block / WAL / checkpoint encryption (ablation benchmarks)."""
        return replace(self, encrypt=enabled)

    def with_cc_cost(self, cc_op_ms: float) -> "ObladiConfig":
        """Charge ``cc_op_ms`` of proxy CPU per MVTSO operation (default 0.0)."""
        return replace(self, cost_model=replace(self.cost_model, cc_op_ms=cc_op_ms))

    def with_seed(self, seed: Optional[int]) -> "ObladiConfig":
        """Fix the deterministic RNG seed (``None`` = non-reproducible run)."""
        return replace(self, seed=seed)

    def describe(self) -> str:
        """One-line summary of the epoch, sharding and topology parameters."""
        sharding = f"shards={self.shards}, " if self.shards > 1 else ""
        servers = (f"servers={self.storage_servers}, "
                   if self.storage_servers > 1 else "")
        workers = (f"proxy_workers={self.proxy_workers}, "
                   if self.proxy_workers > 1 else "")
        return (
            f"ObladiConfig(R={self.read_batches}, b_read={self.read_batch_size}, "
            f"b_write={self.write_batch_size}, Δ={self.batch_interval_ms}ms, "
            f"{sharding}{servers}{workers}backend={self.backend}, "
            f"{self.oram.to_parameters().describe()})"
        )
