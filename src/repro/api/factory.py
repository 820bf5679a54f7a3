"""Engine construction: :func:`create_engine` and the fluent :class:`EngineConfig`.

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

The same :class:`EngineConfig` configures all three engines; fields that do
not apply to a given engine (e.g. ORAM sizing for the baselines) are simply
ignored, so one config object can drive a full Figure-9-style comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.api.adapters import MySQLEngine, NoPrivEngine, ObladiEngine
from repro.api.engine import TransactionEngine
from repro.core.config import ObladiConfig, RingOramConfig

#: The engine kinds :func:`create_engine` builds — what comparison harnesses
#: iterate over.
ENGINE_KINDS = ("obladi", "nopriv", "mysql")


@dataclass(frozen=True)
class EngineConfig:
    """Engine-agnostic configuration with a fluent builder surface.

    Every ``with_*`` method returns a new config (the dataclass is frozen),
    so partially-built configs can be shared and specialised::

        base = EngineConfig().with_workload("tpcc").with_seed(7)
        lan, wan = base.with_backend("server"), base.with_backend("server_wan")

    ``None`` fields mean "use the workload preset / system default".
    """

    #: Workload profile for :meth:`ObladiConfig.for_workload` presets.
    workload: Optional[str] = None
    #: Storage latency model (``server``, ``server_wan``, ``dynamo``, ``dummy``).
    backend: str = "server"
    #: ORAM sizing (Obladi only).
    oram: Optional[RingOramConfig] = None
    num_blocks: Optional[int] = None

    # Epoch/batching overrides (Obladi only; ``None`` = preset value).
    read_batches: Optional[int] = None
    read_batch_size: Optional[int] = None
    write_batch_size: Optional[int] = None
    batch_interval_ms: Optional[float] = None

    # Sharding (Obladi only): number of parallel Ring ORAM partitions the
    # keyspace is hashed across, and the hash perturbation seed.
    shards: Optional[int] = None
    partition_seed: Optional[int] = None

    # Server topology (Obladi only): number of distinct simulated storage
    # servers hosting the partitions (1 = colocated namespaces on one
    # server), optional per-link extra RTT, and the proxy's request-driving
    # parallelism (which also caps concurrent partition-batch fan-out).
    storage_servers: Optional[int] = None
    link_extra_rtt_ms: Optional[tuple] = None
    parallelism: Optional[int] = None

    # Proxy tier (Obladi only): number of trusted proxy workers the MVTSO
    # concurrency-control work is divided across (1 = the paper's single
    # proxy; see ``repro.proxytier``).
    proxy_workers: Optional[int] = None

    # Conflict resolution (Obladi only): what the proxy does with MVTSO
    # conflict losers — ``"retry"`` (abort and let the loop drivers requeue,
    # the historical default) or ``"repair"`` (re-execute against the
    # winning versions inside the detecting epoch; ``repro.concurrency.
    # repair``).  ``None`` = the system default ("retry").
    conflict_strategy: Optional[str] = None

    # Durability / security toggles (Obladi only).
    durability: Optional[bool] = None
    encrypt: Optional[bool] = None
    checkpoint_frequency: Optional[int] = None

    # Concurrency-control CPU per MVTSO operation (Obladi only); ``None``
    # keeps the cost model's 0.0 default (no CC CPU charged — the seed
    # behaviour).  Raising it makes epochs proxy-CPU-bound, which is what
    # gives a larger ``proxy_workers`` topology a genuine throughput edge.
    cc_op_ms: Optional[float] = None

    seed: Optional[int] = 0

    # ------------------------------------------------------------------ #
    # Fluent builder methods
    # ------------------------------------------------------------------ #
    def with_workload(self, profile: str) -> "EngineConfig":
        """Adopt a paper workload preset (``tpcc``/``smallbank``/``freehealth``/``ycsb``)."""
        return replace(self, workload=profile)

    def with_backend(self, backend: str) -> "EngineConfig":
        """Target a storage latency model (``server``/``server_wan``/``dynamo``/``dummy``)."""
        return replace(self, backend=backend)

    def with_oram(self, oram: Optional[RingOramConfig] = None, *,
                  num_blocks: Optional[int] = None, **oram_fields) -> "EngineConfig":
        """Set the Ring ORAM sizing, either whole or field-by-field.

        Field overrides compose: they apply on top of ``oram`` when both are
        given, and on top of the config's current ORAM otherwise.
        """
        if num_blocks is not None:
            oram_fields["num_blocks"] = num_blocks
        if oram_fields:
            base = oram if oram is not None else (
                self.oram if self.oram is not None else RingOramConfig())
            oram = replace(base, **oram_fields)
        if oram is None:
            oram = self.oram
        return replace(self, oram=oram,
                       num_blocks=oram.num_blocks if oram is not None else self.num_blocks)

    def with_batching(self, *, read_batches: Optional[int] = None,
                      read_batch_size: Optional[int] = None,
                      write_batch_size: Optional[int] = None,
                      batch_interval_ms: Optional[float] = None) -> "EngineConfig":
        """Override the epoch shape (R / b_read / b_write / Δ); ``None`` keeps the preset."""
        updates = {key: value for key, value in (
            ("read_batches", read_batches),
            ("read_batch_size", read_batch_size),
            ("write_batch_size", write_batch_size),
            ("batch_interval_ms", batch_interval_ms)) if value is not None}
        return replace(self, **updates)

    def with_sharding(self, shards: int,
                      partition_seed: Optional[int] = None) -> "EngineConfig":
        """Partition the keyspace across ``shards`` parallel ORAM trees.

        ``shards=1`` is the paper's single-tree proxy.  Each partition gets
        its own position map, stash, metadata, storage namespace and share
        of every epoch batch; epoch batch time is the maximum over
        partitions (they run in parallel).
        """
        config = replace(self, shards=shards)
        if partition_seed is not None:
            config = replace(config, partition_seed=partition_seed)
        return config

    def with_storage_servers(self, storage_servers: int,
                             link_extra_rtt_ms: Optional[tuple] = None
                             ) -> "EngineConfig":
        """Host the ORAM partitions on ``storage_servers`` distinct servers.

        ``storage_servers=1`` (the default) colocates every partition on one
        simulated server via key namespaces; ``storage_servers == shards``
        gives every partition its own server; values in between group
        partitions round-robin (partition ``i`` on server ``i % M``).  Each
        server keeps its own adversary trace and its link its own latency
        model; ``link_extra_rtt_ms[i]`` adds round-trip time to server
        ``i``'s link for heterogeneous-network experiments.
        """
        config = replace(self, storage_servers=storage_servers)
        if link_extra_rtt_ms is not None:
            config = replace(config, link_extra_rtt_ms=tuple(link_extra_rtt_ms))
        return config

    def with_proxy_workers(self, proxy_workers: int) -> "EngineConfig":
        """Shard the trusted MVTSO/version-cache tier across N proxy workers.

        ``proxy_workers=1`` is the paper's single proxy (and stays
        byte-identical to it); larger values route each key's version chain
        and cached base value to one of N ``ProxyWorker`` slices, charge
        concurrency-control CPU as parallel worker lanes, and commit each
        epoch through a cross-worker vote barrier (``repro.proxytier``).
        Orthogonal to :meth:`with_sharding` (ORAM partitions) and
        :meth:`with_storage_servers` (untrusted hosts).
        """
        return replace(self, proxy_workers=proxy_workers)

    def with_conflict_strategy(self, strategy: str) -> "EngineConfig":
        """Pick the conflict-resolution strategy (``"retry"``/``"repair"``).

        ``"retry"`` (the default) aborts MVTSO conflict losers and leaves
        them to the loop drivers, which re-queue them into the next wave.
        ``"repair"`` re-executes losers against the winning versions inside
        the epoch that detected the conflict, so salvaged transactions ride
        the same padded write batch instead of costing a full extra
        attempt (see :meth:`repro.core.proxy.ObladiProxy._repair_conflict_losers`
        and the "Conflict resolution" chapter of ``docs/ARCHITECTURE.md``).
        """
        return replace(self, conflict_strategy=strategy)

    def with_parallelism(self, parallelism: int) -> "EngineConfig":
        """Cap the proxy's in-flight physical requests (and fan-out lanes).

        Beyond throttling requests inside one partition batch, this bounds
        how many partition batches the proxy can drive concurrently: with
        ``shards > parallelism`` the epoch fan-out is *staggered* and its
        wall-time lands between the ideal-parallel and serial bounds.
        """
        return replace(self, parallelism=parallelism)

    def with_durability(self, enabled: bool = True,
                        checkpoint_frequency: Optional[int] = None) -> "EngineConfig":
        """Toggle WAL + checkpointing, optionally setting the full-checkpoint period."""
        config = replace(self, durability=enabled)
        if checkpoint_frequency is not None:
            config = replace(config, checkpoint_frequency=checkpoint_frequency)
        return config

    def with_encryption(self, enabled: bool = True) -> "EngineConfig":
        """Toggle ORAM block / WAL / checkpoint encryption (ablation benchmarks)."""
        return replace(self, encrypt=enabled)

    def with_cc_cost(self, cc_op_ms: float) -> "EngineConfig":
        """Charge ``cc_op_ms`` milliseconds of proxy CPU per MVTSO operation.

        The seed default is 0.0 (no explicit CC CPU).  A positive cost makes
        epochs proxy-CPU-bound: a single proxy pays it serially while a
        sharded proxy tier (:meth:`with_proxy_workers`) schedules each
        worker's share as parallel lanes.
        """
        return replace(self, cc_op_ms=cc_op_ms)

    def with_seed(self, seed: Optional[int]) -> "EngineConfig":
        """Fix the deterministic RNG seed (``None`` = non-reproducible run)."""
        return replace(self, seed=seed)

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #
    def to_obladi_config(self) -> ObladiConfig:
        """Resolve to a full :class:`ObladiConfig` (presets + overrides)."""
        overrides = {}
        for field_name in ("read_batches", "read_batch_size", "write_batch_size",
                           "batch_interval_ms", "durability", "encrypt",
                           "checkpoint_frequency", "shards", "partition_seed",
                           "storage_servers", "link_extra_rtt_ms", "parallelism",
                           "proxy_workers", "conflict_strategy"):
            value = getattr(self, field_name)
            if value is not None:
                overrides[field_name] = value
        overrides["seed"] = self.seed
        if self.cc_op_ms is not None:
            from repro.sim.latency import CpuCostModel
            overrides["cost_model"] = CpuCostModel(cc_op_ms=self.cc_op_ms)

        num_blocks = self.num_blocks
        oram = self.oram
        if oram is None and num_blocks is not None:
            oram = RingOramConfig(num_blocks=num_blocks)
        if oram is not None:
            overrides["oram"] = oram
            num_blocks = oram.num_blocks

        if self.workload is not None:
            return ObladiConfig.for_workload(
                self.workload, num_blocks=num_blocks if num_blocks else 10_000,
                backend=self.backend, **overrides)
        return ObladiConfig(backend=self.backend, **overrides)


def create_engine(kind: str,
                  config: Optional[Union[EngineConfig, ObladiConfig]] = None,
                  *, storage=None, clock=None, **overrides) -> TransactionEngine:
    """Create a :class:`TransactionEngine` of the given ``kind``.

    Parameters
    ----------
    kind:
        One of :data:`ENGINE_KINDS`: ``"obladi"``, ``"nopriv"`` or
        ``"mysql"``.
    config:
        An :class:`EngineConfig`, or — for the Obladi engine only — a fully
        resolved :class:`ObladiConfig`.  Defaults to ``EngineConfig()``.
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
        ``EngineConfig`` field overrides applied on top of ``config``, so
        quick one-offs read ``create_engine("nopriv", backend="server_wan")``.
    """
    normalized = kind.lower()
    if normalized not in ENGINE_KINDS:
        raise KeyError(f"unknown engine kind {kind!r}; valid: "
                       f"{', '.join(ENGINE_KINDS)}")

    obladi_config: Optional[ObladiConfig] = None
    if isinstance(config, ObladiConfig):
        if normalized != "obladi":
            raise TypeError("an ObladiConfig can only configure the 'obladi' engine")
        if overrides:
            raise TypeError("pass EngineConfig (not ObladiConfig) to combine overrides")
        obladi_config = config
        engine_config = EngineConfig(backend=config.backend, seed=config.seed)
    else:
        engine_config = config if config is not None else EngineConfig()
        if overrides:
            engine_config = replace(engine_config, **overrides)

    if normalized == "obladi":
        from repro.proxytier import build_proxy
        if obladi_config is None:
            obladi_config = engine_config.to_obladi_config()
        return ObladiEngine(build_proxy(obladi_config, storage=storage, clock=clock))

    if normalized == "nopriv":
        from repro.baseline.nopriv import NoPrivProxy
        return NoPrivEngine(NoPrivProxy(backend=engine_config.backend, clock=clock,
                                        storage=storage))

    from repro.baseline.mysql_like import TwoPhaseLockingStore
    return MySQLEngine(TwoPhaseLockingStore(backend=engine_config.backend,
                                            clock=clock, storage=storage))
