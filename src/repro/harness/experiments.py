"""Experiment implementations: one function per figure/table of §11.

Every function accepts scale parameters so the same code serves both the
quick benchmark suite (small object counts, few transactions) and fuller
runs (``REPRO_BENCH_SCALE=paper``).  All results are in simulated time.

==============  ====================================================
Figure 9a/9b    :func:`run_end_to_end`
Figure 10a      :func:`run_parallelism`
Figure 10b/10c  :func:`run_batch_size_sweep`
Figure 10d      :func:`run_delayed_visibility`
Figure 10e      :func:`run_epoch_size_oram`
Figure 10f      :func:`run_epoch_size_proxy`
Figure 11a      :func:`run_checkpoint_frequency`
Table 11b       :func:`run_recovery_table`
(open loop)     :func:`run_saturation_sweep`
(elasticity)    :func:`run_elasticity_comparison`
==============  ====================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.api import EngineConfig, PoissonArrivals, RunStats, create_engine
from repro.audit import AuditingObserver
from repro.core.config import ObladiConfig, RingOramConfig
from repro.elasticity import AutoscalePolicy, FlashCrowdArrivals
from repro.oram.batch_executor import EpochBatchExecutor
from repro.oram.crypto import CipherSuite
from repro.oram.parameters import derive_parameters
from repro.oram.ring_oram import RingOram
from repro.sim.clock import SimClock
from repro.sim.latency import CpuCostModel
from repro.storage.memory import InMemoryStorageServer
from repro.workloads.freehealth import FreeHealthConfig, FreeHealthWorkload
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload
from repro.workloads.tpcc import TPCCConfig, TPCCWorkload
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #
DEFAULT_ORAM_OBJECTS = 100_000
MICROBENCH_Z = 16


def _build_oram(num_blocks: int, charge_crypto: bool) -> RingOram:
    """A Ring ORAM over a fresh store, sized like the microbenchmarks (§11.2).

    The cipher is disabled: values are irrelevant to these experiments, only
    the *simulated* crypto cost matters, and ``charge_crypto`` says whether
    it is charged.
    """
    clock = SimClock()
    storage = InMemoryStorageServer(clock=clock, record_trace=False)
    params = derive_parameters(num_blocks=num_blocks, z_real=MICROBENCH_Z, block_size=64)
    return RingOram(params, storage, cipher=CipherSuite(block_size=72, enabled=False),
                    clock=clock, seed=0, charge_crypto=charge_crypto)


def _ops_per_s(operations: int, elapsed_ms: float) -> float:
    """Throughput of ``operations`` completed in ``elapsed_ms`` simulated ms."""
    return operations * 1000.0 / elapsed_ms if elapsed_ms > 0 else float("inf")


def _workload_objects(name: str, scale: float = 1.0):
    """Build a workload instance at a fraction of the paper's scale."""
    if name == "tpcc":
        # The paper always runs 10 warehouses; scale shrinks the per-district
        # populations (customers, items) but keeps the contention structure.
        return TPCCWorkload(TPCCConfig(
            warehouses=10,
            districts_per_warehouse=10,
            customers_per_district=max(3, int(30 * scale)),
            items=max(20, int(1000 * scale)),
            seed=7,
        ))
    if name == "smallbank":
        return SmallBankWorkload(SmallBankConfig(
            num_accounts=max(100, int(10_000 * scale)), seed=7))
    if name == "freehealth":
        return FreeHealthWorkload(FreeHealthConfig(
            num_patients=max(50, int(2000 * scale)),
            num_drugs=max(20, int(200 * scale)), seed=7))
    raise KeyError(f"unknown application {name!r}")


# --------------------------------------------------------------------------- #
# Figure 9: end-to-end application performance
# --------------------------------------------------------------------------- #
@dataclass
class EndToEndRow:
    """One bar of Figures 9a/9b."""

    application: str
    system: str
    throughput_tps: float
    mean_latency_ms: float
    committed: int
    aborted: int
    abort_rate: float


#: Systems evaluated in Figure 9 and the storage backend each one uses.
END_TO_END_SYSTEMS = ("obladi", "nopriv", "mysql", "obladi_wan", "nopriv_wan")


def _obladi_config_for(app: str, num_keys: int, backend: str,
                       encrypt: bool, clients: int) -> ObladiConfig:
    """Configure Obladi for an application the way §6.4 prescribes.

    Batch sizes are provisioned from the expected concurrent load: the read
    capacity must cover each client's reads per round and the write batch the
    epoch's committed write set.  TPC-C gets deep epochs and a large write
    batch; FreeHealth a small write batch; SmallBank shallow epochs.  The
    tree holds twice the loaded keys.
    """
    num_blocks = max(num_keys * 2, 2048)
    oram = RingOramConfig(num_blocks=num_blocks, z_real=32, block_size=384)
    per_round_reads = {"tpcc": 12, "smallbank": 3, "freehealth": 4}
    writes_per_txn = {"tpcc": 14, "smallbank": 2, "freehealth": 2}
    read_batch = max(32, clients * per_round_reads[app])
    write_batch = max(32, clients * writes_per_txn[app])
    return ObladiConfig.for_workload(app, num_blocks=num_blocks, backend=backend,
                                     oram=oram, durability=True, encrypt=encrypt,
                                     checkpoint_frequency=8,
                                     read_batch_size=read_batch,
                                     write_batch_size=write_batch)


def run_end_to_end(applications: Sequence[str] = ("tpcc", "freehealth", "smallbank"),
                   systems: Sequence[str] = END_TO_END_SYSTEMS,
                   transactions: int = 256, clients: int = 64, scale: float = 0.1,
                   encrypt: bool = False, seed: int = 7) -> List[EndToEndRow]:
    """Figure 9a/9b: throughput and latency of every system on every application.

    ``scale`` shrinks the database populations relative to the paper (whose
    EC2 deployment used full TPC-C scale and one million SmallBank accounts);
    the relative ordering of the systems is what the experiment reproduces.
    """
    rows: List[EndToEndRow] = []
    for app in applications:
        for system in systems:
            workload = _workload_objects(app, scale)
            data = workload.initial_data()
            backend = "server_wan" if system.endswith("_wan") else "server"

            if system.startswith("obladi"):
                engine = create_engine("obladi", _obladi_config_for(
                    app, len(data), backend=backend, encrypt=encrypt, clients=clients))
            elif system.startswith("nopriv") or system == "mysql":
                # MySQL in the paper runs locally, so it never sees the WAN.
                engine = create_engine(system.split("_")[0],
                                       EngineConfig(backend=backend, seed=seed))
            else:
                raise KeyError(f"unknown system {system!r}")

            engine.load_initial_data(data)
            run = engine.run_closed_loop(workload.transaction_factory,
                                         total_transactions=transactions,
                                         clients=clients)

            rows.append(EndToEndRow(
                application=app,
                system=system,
                throughput_tps=run.throughput_tps,
                mean_latency_ms=run.average_latency_ms,
                committed=run.committed,
                aborted=run.aborted,
                abort_rate=run.abort_rate,
            ))
    return rows


# --------------------------------------------------------------------------- #
# Figure 10a: parallelism
# --------------------------------------------------------------------------- #
@dataclass
class ParallelismRow:
    """One bar of Figure 10a (throughput of a 500-op batch)."""

    backend: str
    mode: str                    # sequential / parallel / parallel_crypto
    throughput_ops_per_s: float
    elapsed_ms: float


def _run_parallel_ops(num_blocks: int, backend: str, operations: int, batch_size: int,
                      charge_crypto: bool, buffer_writes: bool = True,
                      batches_per_epoch: int = 1, access_seed: int = 0,
                      parallelism: int = 1024,
                      cost_model: Optional[CpuCostModel] = None) -> float:
    """Simulated duration of ``operations`` accesses through the epoch executor.

    The simulated crypto cost is charged unless ``charge_crypto`` is False,
    matching the paper's Parallel vs ParallelCrypto distinction.  The
    accessed blocks are drawn from ``access_seed``.  ``parallelism`` and
    ``cost_model`` go to the executor (``None``: the tree's default model).
    """
    oram = _build_oram(num_blocks, charge_crypto)
    executor = EpochBatchExecutor(oram, latency=backend, parallelism=parallelism,
                                  cost_model=cost_model, buffer_writes=buffer_writes)
    rng = random.Random(access_seed)
    clock = oram.clock
    start = clock.now_ms
    remaining = operations
    while remaining > 0:
        executor.begin_epoch()
        for _ in range(batches_per_epoch):
            if remaining <= 0:
                break
            count = min(batch_size, remaining)
            block_ids = [rng.randrange(num_blocks) for _ in range(count)]
            executor.execute_read_batch(block_ids, batch_size=count)
            remaining -= count
        executor.flush_epoch()
        executor.collect()
    return clock.now_ms - start


def run_parallelism(backends: Sequence[str] = ("dummy", "server", "server_wan", "dynamo"),
                    batch_size: int = 500, operations: int = 500,
                    num_blocks: int = DEFAULT_ORAM_OBJECTS,
                    modes: Sequence[str] = ("sequential", "parallel", "parallel_crypto"),
                    ) -> List[ParallelismRow]:
    """Figure 10a: sequential vs parallel ORAM throughput per backend.

    "Sequential" is Ring ORAM without batching or parallelism: the same
    executor at one read per epoch, one request in flight and immediate
    write-back.  It pays no multilevel-serializability coordination, as
    :meth:`~repro.sim.latency.CpuCostModel.sequential_block_cost_ms` defines
    sequential mode.
    """
    sequential_cost = CpuCostModel(coordination_per_block_ms=0.0)
    rows: List[ParallelismRow] = []
    for backend in backends:
        for mode in modes:
            if mode == "sequential":
                elapsed = _run_parallel_ops(num_blocks, backend, operations, batch_size=1,
                                            charge_crypto=True, buffer_writes=False,
                                            parallelism=1, cost_model=sequential_cost)
            elif mode in ("parallel", "parallel_crypto"):
                elapsed = _run_parallel_ops(num_blocks, backend, operations, batch_size,
                                            charge_crypto=mode == "parallel_crypto")
            else:
                raise KeyError(f"unknown mode {mode!r}")
            rows.append(ParallelismRow(backend=backend, mode=mode,
                                       throughput_ops_per_s=_ops_per_s(operations, elapsed),
                                       elapsed_ms=elapsed))
    return rows


# --------------------------------------------------------------------------- #
# Figures 10b/10c: batch size sweep
# --------------------------------------------------------------------------- #
@dataclass
class BatchSizeRow:
    """One point of Figures 10b (throughput) and 10c (latency)."""

    backend: str
    batch_size: int
    throughput_ops_per_s: float
    latency_ms: float


def run_batch_size_sweep(backends: Sequence[str] = ("dummy", "server", "server_wan", "dynamo"),
                         batch_sizes: Sequence[int] = (1, 10, 100, 500, 1000, 2000),
                         num_blocks: int = DEFAULT_ORAM_OBJECTS,
                         min_operations: int = 600) -> List[BatchSizeRow]:
    """Figures 10b/10c: throughput and latency vs batch size.

    Each configuration executes at least ``min_operations`` logical reads so
    the deterministic eviction work is represented in every data point (a
    single tiny batch would otherwise dodge evictions entirely and look
    artificially fast); latency is the average duration of one batch
    (dispatch to flush).
    """
    rows: List[BatchSizeRow] = []
    for backend in backends:
        for batch_size in batch_sizes:
            batches = max(1, -(-min_operations // batch_size))
            total_ops = batches * batch_size      # one full batch per epoch
            elapsed = _run_parallel_ops(num_blocks, backend, total_ops, batch_size,
                                        charge_crypto=True, access_seed=1)
            rows.append(BatchSizeRow(backend=backend, batch_size=batch_size,
                                     throughput_ops_per_s=_ops_per_s(total_ops, elapsed),
                                     latency_ms=elapsed / batches))
    return rows


# --------------------------------------------------------------------------- #
# Figure 10d: delayed visibility (write buffering)
# --------------------------------------------------------------------------- #
@dataclass
class DelayedVisibilityRow:
    """One bar pair of Figure 10d."""

    backend: str
    mode: str                    # "normal" (immediate write-back) or "write_back"
    throughput_ops_per_s: float


def run_delayed_visibility(backends: Sequence[str] = ("dummy", "server", "server_wan", "dynamo"),
                           batch_size: int = 200, batches_per_epoch: int = 8,
                           num_blocks: int = DEFAULT_ORAM_OBJECTS) -> List[DelayedVisibilityRow]:
    """Figure 10d: effect of buffering bucket writes until the epoch ends."""
    operations = batch_size * batches_per_epoch
    rows: List[DelayedVisibilityRow] = []
    for backend in backends:
        for mode, buffer_writes in (("normal", False), ("write_back", True)):
            elapsed = _run_parallel_ops(num_blocks, backend, operations, batch_size,
                                        charge_crypto=True, buffer_writes=buffer_writes,
                                        batches_per_epoch=batches_per_epoch)
            rows.append(DelayedVisibilityRow(
                backend=backend, mode=mode,
                throughput_ops_per_s=_ops_per_s(operations, elapsed)))
    return rows


# --------------------------------------------------------------------------- #
# Figure 10e: epoch size impact on the ORAM
# --------------------------------------------------------------------------- #
@dataclass
class EpochSizeOramRow:
    """One point of Figure 10e (relative throughput vs batches per epoch)."""

    backend: str
    batches_per_epoch: int
    throughput_ops_per_s: float
    relative_increase: float


def run_epoch_size_oram(backends: Sequence[str] = ("dummy", "server", "server_wan", "dynamo"),
                        batch_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
                        batch_size: int = 200,
                        num_blocks: int = DEFAULT_ORAM_OBJECTS) -> List[EpochSizeOramRow]:
    """Figure 10e: larger epochs buffer more buckets locally and reduce I/O."""
    rows: List[EpochSizeOramRow] = []
    for backend in backends:
        base_throughput: Optional[float] = None
        for batches in batch_counts:
            operations = batch_size * batches * 2
            elapsed = _run_parallel_ops(num_blocks, backend, operations, batch_size,
                                        charge_crypto=True, buffer_writes=True,
                                        batches_per_epoch=batches)
            throughput = _ops_per_s(operations, elapsed)
            if base_throughput is None:
                base_throughput = throughput
            rows.append(EpochSizeOramRow(
                backend=backend, batches_per_epoch=batches,
                throughput_ops_per_s=throughput,
                relative_increase=throughput / base_throughput if base_throughput else 1.0))
    return rows


# --------------------------------------------------------------------------- #
# Figure 10f: epoch size impact on the proxy (applications)
# --------------------------------------------------------------------------- #
@dataclass
class EpochSizeProxyRow:
    """One point of Figure 10f."""

    application: str
    epoch_ms: float
    read_batches: int
    throughput_tps: float
    abort_rate: float


def run_epoch_size_proxy(applications: Sequence[str] = ("smallbank", "freehealth", "tpcc"),
                         epoch_sizes_ms: Sequence[float] = (25, 50, 75, 100, 125, 150),
                         batch_interval_ms: float = 25.0,
                         transactions: int = 80, clients: int = 12,
                         scale: float = 0.05, encrypt: bool = False) -> List[EpochSizeProxyRow]:
    """Figure 10f: application throughput as a function of the epoch length.

    The epoch length maps to the number of read batches it contains
    (``epoch_ms / batch_interval_ms``): epochs too short abort transactions
    that need more rounds; epochs too long leave the proxy idle.
    """
    rows: List[EpochSizeProxyRow] = []
    for app in applications:
        for epoch_ms in epoch_sizes_ms:
            read_batches = max(1, int(round(epoch_ms / batch_interval_ms)))
            workload = _workload_objects(app, scale)
            data = workload.initial_data()
            config = _obladi_config_for(app, len(data), backend="server",
                                        encrypt=encrypt, clients=clients)
            config = replace(config, read_batches=read_batches,
                             batch_interval_ms=batch_interval_ms, durability=False)
            engine = create_engine("obladi", config)
            engine.load_initial_data(data)
            run = engine.run_closed_loop(workload.transaction_factory,
                                         total_transactions=transactions, clients=clients)
            rows.append(EpochSizeProxyRow(application=app, epoch_ms=epoch_ms,
                                          read_batches=read_batches,
                                          throughput_tps=run.throughput_tps,
                                          abort_rate=run.abort_rate))
    return rows


# --------------------------------------------------------------------------- #
# Open-loop saturation sweep (offered load vs latency/throughput)
# --------------------------------------------------------------------------- #
@dataclass
class SaturationRow:
    """One offered-load point of an open-loop saturation sweep."""

    engine: str
    rate_multiplier: float        # offered rate as a fraction of the ceiling
    target_rate_tps: float        # the configured arrival rate
    offered_tps: float            # measured arrivals / elapsed (service-bound
                                  # once a backlog forms, so it plateaus too)
    achieved_tps: float
    mean_total_latency_ms: float  # queueing delay + service latency
    p95_total_latency_ms: float
    p99_total_latency_ms: float
    mean_queue_delay_ms: float
    max_queue_depth: int
    dropped: int
    abort_rate: float
    closed_loop_tps: float        # the engine's closed-loop ceiling
    closed_loop_latency_ms: float
    audit_ok: bool = True         # streaming serializability verdict
    audit_max_retained: int = 0   # auditor's retained-node high-water mark


def _small_engine(kind: str, topology: Tuple[int, int, int], clients: int,
                  num_accounts: int, seed: int,
                  conflict_strategy: Optional[str] = None,
                  cc_op_ms: Optional[float] = None, autoscale=None):
    """A small, fast engine sized so ``clients`` fit in one epoch wave.

    ``topology`` is ``(shards, storage_servers, proxy_workers)``.  A positive
    ``cc_op_ms`` makes epochs proxy-CPU-bound (the seed charges no CC CPU),
    so a rung with more proxy workers genuinely serves more load — the axis
    the autoscale ladder climbs.  ``None`` leaves an option at its default.
    """
    shards, storage_servers, proxy_workers = topology
    config = (EngineConfig()
              .with_workload("smallbank")
              .with_backend("server")
              .with_oram(num_blocks=max(2048, 2 * num_accounts), z_real=8,
                         block_size=192)
              .with_batching(read_batches=3, read_batch_size=2 * clients,
                             write_batch_size=2 * clients,
                             batch_interval_ms=2.0)
              .with_sharding(shards)
              .with_storage_servers(storage_servers)
              .with_proxy_workers(proxy_workers)
              .with_conflict_strategy(conflict_strategy)
              .with_cc_cost(cc_op_ms)
              .with_autoscale(autoscale)
              .with_durability(False)
              .with_encryption(False)
              .with_seed(seed))
    return create_engine(kind, config)


def _audited_open_loop(engine, workload, transactions: int, clients: int,
                       arrivals, queue_limit: Optional[int] = None) -> RunStats:
    """Load ``workload`` into ``engine`` and offer it open loop, with a
    streaming serializability auditor (:class:`repro.audit.AuditingObserver`)
    attached: ``run.audit`` certifies the run's own history."""
    engine.load_initial_data(workload.initial_data())
    engine.attach_observer(AuditingObserver())
    return engine.run_open_loop(workload.transaction_factory,
                                total_transactions=transactions, arrivals=arrivals,
                                clients=clients, queue_limit=queue_limit)


def _knee_sweep(make_engine: Callable[[], object], make_workload: Callable[[], object],
                rate_multipliers: Sequence[float], transactions: int, clients: int,
                arrival_seed: int) -> Iterator[Tuple[float, float, RunStats, RunStats]]:
    """The method of both knee sweeps: the ceiling, then the multipliers.

    First measures the *closed-loop ceiling* (``run_closed_loop`` with
    ``clients`` slots — the service capacity an open loop cannot exceed),
    then, on a fresh engine and workload per point, offers seeded-Poisson
    arrivals at ``multiplier x ceiling``, audited, and yields
    ``(multiplier, rate, ceiling, run)``.
    """
    workload, engine = make_workload(), make_engine()
    engine.load_initial_data(workload.initial_data())
    ceiling = engine.run_closed_loop(workload.transaction_factory,
                                     total_transactions=transactions,
                                     clients=clients)
    for multiplier in rate_multipliers:
        rate = max(1e-6, multiplier * ceiling.throughput_tps)
        workload, engine = make_workload(), make_engine()
        run = _audited_open_loop(engine, workload, transactions, clients,
                                 PoissonArrivals(rate, seed=arrival_seed))
        yield multiplier, rate, ceiling, run


def run_saturation_sweep(kinds: Sequence[str] = ("obladi", "nopriv"),
                         rate_multipliers: Sequence[float] = (0.05, 0.5, 2.0, 4.0),
                         transactions: int = 96, clients: int = 16,
                         num_accounts: int = 400, shards: int = 1,
                         proxy_workers: int = 1, arrival_seed: int = 7,
                         seed: int = 11) -> List[SaturationRow]:
    """Open-loop saturation sweep: offered load as a fraction of capacity.

    For each engine kind the sweep measures the closed-loop ceiling, then
    offers arrivals at ``multiplier x ceiling`` (:func:`_knee_sweep`) and
    records achieved throughput and queue-inclusive latency.  Below the knee
    (``multiplier < 1``) latency should sit near the closed-loop latency;
    past it, queueing delay grows with the multiplier while achieved
    throughput plateaus at the ceiling — the open-loop shape of the paper's
    Figure 9 latency/throughput trade-off.

    Every open-loop point is audited, so each row also certifies its own
    history (``audit_ok``) and records the auditor's bounded-memory
    high-water mark (``audit_max_retained``).

    An epoch-batched engine adds ~half an epoch of queueing at *any* rate
    above one arrival per epoch (the pipeline never idles, and an arrival
    waits out the in-flight epoch), so the default sweep's lowest point is
    sparse enough (5% of the ceiling) that arrivals usually find the
    system idle — that is the regime where open-loop latency genuinely
    approaches the closed-loop number.
    """
    rows: List[SaturationRow] = []
    for kind in kinds:
        points = _knee_sweep(
            lambda: _small_engine(kind, (shards, 1, proxy_workers), clients,
                                  num_accounts, seed),
            lambda: SmallBankWorkload(SmallBankConfig(num_accounts=num_accounts,
                                                      seed=seed)),
            rate_multipliers, transactions, clients, arrival_seed)
        for multiplier, rate, ceiling, run in points:
            rows.append(SaturationRow(
                engine=kind,
                rate_multiplier=multiplier,
                target_rate_tps=rate,
                offered_tps=run.offered_tps,
                achieved_tps=run.achieved_tps,
                mean_total_latency_ms=run.average_total_latency_ms,
                p95_total_latency_ms=run.p95_total_latency_ms,
                p99_total_latency_ms=run.p99_total_latency_ms,
                mean_queue_delay_ms=run.average_queue_delay_ms,
                max_queue_depth=run.max_queue_depth,
                dropped=run.dropped,
                abort_rate=run.abort_rate,
                closed_loop_tps=ceiling.throughput_tps,
                closed_loop_latency_ms=ceiling.average_latency_ms,
                audit_ok=run.audit.ok,
                audit_max_retained=run.audit.max_retained_nodes,
            ))
    return rows


# --------------------------------------------------------------------------- #
# Conflict resolution: retry vs repair at the contention knee
# --------------------------------------------------------------------------- #
@dataclass
class RepairComparisonRow:
    """One strategy x offered-load point of the retry-vs-repair knee sweep."""

    strategy: str                 # "retry" or "repair"
    rate_multiplier: float        # offered rate as a fraction of the ceiling
    target_rate_tps: float
    achieved_tps: float
    committed: int
    aborted: int
    retries: int
    repaired: int                 # conflict losers salvaged in-epoch
    repair_failed: int            # repair attempts that still aborted
    wasted_attempts: int          # discarded work (aborts + failed repairs)
    abort_rate: float
    mean_total_latency_ms: float
    closed_loop_tps: float        # this strategy's own closed-loop ceiling
    audit_ok: bool = True         # streaming serializability verdict


def run_repair_comparison(rate_multipliers: Sequence[float] = (1.0, 2.0, 4.0),
                          transactions: int = 96, clients: int = 16,
                          num_accounts: int = 400,
                          hotspot_probability: float = 0.9,
                          shards: int = 1, proxy_workers: int = 1,
                          arrival_seed: int = 7, seed: int = 11,
                          workload: str = "smallbank") -> List[RepairComparisonRow]:
    """Head-to-head retry vs repair on a contended workload at the knee.

    Reuses the saturation-sweep method (:func:`_knee_sweep`) but pins the
    workload to a contended shape — ``workload="smallbank"`` puts
    ``hotspot_probability`` of operations on the hot 10% of accounts;
    ``workload="ycsb"`` draws keys Zipfian(0.99) over ``num_accounts``
    records — so MVTSO conflicts dominate, and runs every point twice:
    once under ``conflict_strategy="retry"`` (losers re-queue into the next
    wave and re-execute from scratch) and once under ``"repair"``
    (losers re-execute against the winning versions inside the epoch that
    detected the conflict).  At and past the knee the retry path
    amplifies hotspot work — every loser's full re-execution conflicts
    again with high probability — while repair resolves most losers
    within their epoch; the rows expose exactly that difference through
    ``repaired`` / ``wasted_attempts`` / ``achieved_tps``.

    Every open-loop point is audited, so each row certifies its own
    (possibly repaired) history.
    """
    def hotspot_workload():
        if workload == "ycsb":
            return YCSBWorkload(YCSBConfig(
                num_records=num_accounts, distribution="zipfian",
                zipfian_theta=0.99, read_proportion=0.3,
                update_proportion=0.7, seed=seed))
        if workload != "smallbank":
            raise ValueError(f"unknown workload {workload!r}; "
                             f"expected 'smallbank' or 'ycsb'")
        return SmallBankWorkload(SmallBankConfig(
            num_accounts=num_accounts,
            hotspot_probability=hotspot_probability, seed=seed))

    rows: List[RepairComparisonRow] = []
    for strategy in ("retry", "repair"):
        points = _knee_sweep(
            lambda: _small_engine("obladi", (shards, 1, proxy_workers), clients,
                                  num_accounts, seed, conflict_strategy=strategy),
            hotspot_workload, rate_multipliers, transactions, clients, arrival_seed)
        for multiplier, rate, ceiling, run in points:
            rows.append(RepairComparisonRow(
                strategy=strategy,
                rate_multiplier=multiplier,
                target_rate_tps=rate,
                achieved_tps=run.achieved_tps,
                committed=run.committed,
                aborted=run.aborted,
                retries=run.retries,
                repaired=run.repaired,
                repair_failed=run.repair_failed,
                wasted_attempts=run.wasted_attempts,
                abort_rate=run.abort_rate,
                mean_total_latency_ms=run.average_total_latency_ms,
                closed_loop_tps=ceiling.throughput_tps,
                audit_ok=run.audit.ok,
            ))
    return rows


# --------------------------------------------------------------------------- #
# Figure 11a: checkpoint frequency
# --------------------------------------------------------------------------- #
@dataclass
class CheckpointFrequencyRow:
    """One point of Figure 11a."""

    backend: str
    checkpoint_frequency: int
    throughput_ops_per_s: float


def run_checkpoint_frequency(frequencies: Sequence[int] = (1, 4, 16, 64, 256),
                             backends: Sequence[str] = ("server", "server_wan", "dynamo"),
                             num_records: int = 2000, transactions: int = 60,
                             clients: int = 12, ops_per_transaction: int = 4
                             ) -> List[CheckpointFrequencyRow]:
    """Figure 11a: delta checkpoints amortise the cost of durability."""
    rows: List[CheckpointFrequencyRow] = []
    for backend in backends:
        for frequency in frequencies:
            _engine, run = _ycsb_obladi_run(
                num_records, durability=True, backend=backend,
                transactions=transactions, clients=clients,
                checkpoint_frequency=frequency,
                ops_per_transaction=ops_per_transaction, seed=3)
            ops = run.committed * ops_per_transaction
            tput = ops * 1000.0 / run.elapsed_ms if run.elapsed_ms > 0 else 0.0
            rows.append(CheckpointFrequencyRow(backend=backend, checkpoint_frequency=frequency,
                                               throughput_ops_per_s=tput))
    return rows


# --------------------------------------------------------------------------- #
# Table 11b: recovery
# --------------------------------------------------------------------------- #
@dataclass
class RecoveryRow:
    """One column of Table 11b."""

    num_objects: int
    tree_levels: int
    durability_slowdown: float
    recovery_time_ms: float
    network_ms: float
    position_ms: float
    permutation_ms: float
    paths_ms: float


def _ycsb_obladi_run(num_records: int, durability: bool, backend: str,
                     transactions: int, clients: int, checkpoint_frequency: int = 4,
                     ops_per_transaction: int = 4, seed: int = 5):
    """A closed-loop YCSB run on an Obladi engine whose batches hold one
    operation per client per transaction; returns ``(engine, run)``."""
    ycsb = YCSBWorkload(YCSBConfig(num_records=num_records,
                                   ops_per_transaction=ops_per_transaction, seed=seed))
    data = ycsb.initial_data()
    config = ObladiConfig.for_workload("ycsb", num_blocks=num_records * 2, backend=backend,
                                       oram=RingOramConfig(num_blocks=num_records * 2,
                                                           z_real=32, block_size=192),
                                       durability=durability, encrypt=False,
                                       checkpoint_frequency=checkpoint_frequency,
                                       read_batch_size=clients * ops_per_transaction,
                                       write_batch_size=clients * ops_per_transaction)
    engine = create_engine("obladi", config)
    engine.load_initial_data(data)
    run = engine.run_closed_loop(ycsb.transaction_factory,
                                 total_transactions=transactions, clients=clients)
    return engine, run


def run_recovery_table(sizes: Sequence[int] = (1_000, 10_000, 100_000),
                       backend: str = "server_wan", transactions: int = 40,
                       clients: int = 10) -> List[RecoveryRow]:
    """Table 11b: durability slowdown and recovery-time breakdown vs ORAM size."""
    rows: List[RecoveryRow] = []
    for size in sizes:
        # Normal-execution slowdown: with vs without durability.
        _engine_off, run_off = _ycsb_obladi_run(size, durability=False, backend=backend,
                                                transactions=transactions, clients=clients)
        engine_on, run_on = _ycsb_obladi_run(size, durability=True, backend=backend,
                                             transactions=transactions, clients=clients)
        slowdown = (run_on.throughput_tps / run_off.throughput_tps
                    if run_off.throughput_tps > 0 else 0.0)

        # Crash the durable proxy mid-epoch — a storage outage once its first
        # mutation, the WAL record of the epoch's first read batch, is
        # stored — and recover it.
        ycsb = YCSBWorkload(YCSBConfig(num_records=size, ops_per_transaction=4, seed=11))
        engine_on.storage.fail(after=1)
        try:
            engine_on.submit_many([ycsb.transaction_factory() for _ in range(clients)])
        except ConnectionError:
            pass
        engine_on.storage.recover()
        result = engine_on.recover()
        levels = engine_on.proxy.data_layer.partitions[0].oram.params.depth
        rows.append(RecoveryRow(
            num_objects=size,
            tree_levels=levels,
            durability_slowdown=slowdown,
            recovery_time_ms=result.total_ms,
            network_ms=result.network_ms,
            position_ms=result.position_ms,
            permutation_ms=result.permutation_ms,
            paths_ms=result.paths_ms,
        ))
    return rows


# --------------------------------------------------------------------------- #
# Elastic topologies: autoscaled vs static under a flash crowd
# --------------------------------------------------------------------------- #
@dataclass
class ElasticityRow:
    """One run of the flash-crowd elasticity comparison."""

    mode: str                     # "static" or "autoscaled"
    offered: int                  # arrivals the flash-crowd process generated
    dropped: int                  # arrivals turned away by the bounded queue
    committed: int
    achieved_tps: float
    mean_total_latency_ms: float  # queueing delay + service latency
    p95_total_latency_ms: float
    max_queue_depth: int
    epochs: int
    reshards: int                 # completed migration windows
    scale_ups: int                # controller decisions, by direction
    scale_downs: int
    final_topology: tuple         # (shards, storage_servers, proxy_workers)
    audit_ok: bool = True         # streaming serializability verdict


def run_elasticity_comparison(transactions: int = 900, clients: int = 16,
                              num_accounts: int = 200,
                              base_tps: float = 150.0,
                              spike_tps: float = 1100.0,
                              spike_start_ms: float = 200.0,
                              spike_duration_ms: float = 5000.0,
                              queue_limit: int = 48,
                              cc_op_ms: float = 0.2,
                              arrival_seed: int = 7, seed: int = 11,
                              ladder=((1, 1, 1), (4, 1, 4)),
                              queue_high: int = 24, queue_low: int = 2,
                              patience: int = 2, cooldown: int = 4
                              ) -> List[ElasticityRow]:
    """Flash crowd, twice: once static at the ladder's bottom rung, once with
    the autoscaling control loop attached (``repro.elasticity``).

    Both runs offer the *identical* seeded flash-crowd arrival stream
    (:class:`~repro.elasticity.FlashCrowdArrivals`: ``base_tps`` background
    load, a ``spike_tps`` rectangular spike from ``spike_start_ms`` for
    ``spike_duration_ms``) through the same bounded admission queue, with
    ``cc_op_ms`` of concurrency-control CPU per MVTSO operation so epochs
    are proxy-CPU-bound and the ladder's larger rung genuinely serves more
    load.  The static engine stays at the bottom rung and sheds the spike
    as drops once the queue fills; the autoscaled engine's controller sees
    the same pressure, live-reshards up the ladder (an oblivious migration
    window followed by an epoch-barrier cutover), and serves the remainder
    of the spike at the larger topology — strictly fewer drops and at least
    the static engine's achieved throughput, which is the acceptance bar
    ``benchmarks/test_elasticity_smoke.py`` pins.

    Both runs carry a streaming serializability auditor, so each row also
    certifies its own history across any migration windows it contains.
    """
    arrivals = FlashCrowdArrivals(base_tps=base_tps,
                                  spike_tps=spike_tps,
                                  spike_start_ms=spike_start_ms,
                                  spike_duration_ms=spike_duration_ms,
                                  seed=arrival_seed)
    policy = AutoscalePolicy(ladder=ladder, queue_high=queue_high,
                             queue_low=queue_low, patience=patience,
                             cooldown=cooldown)

    rows: List[ElasticityRow] = []
    for mode in ("static", "autoscaled"):
        workload = SmallBankWorkload(SmallBankConfig(num_accounts=num_accounts,
                                                     seed=seed))
        engine = _small_engine("obladi", ladder[0], clients, num_accounts, seed,
                               cc_op_ms=cc_op_ms,
                               autoscale=policy if mode == "autoscaled" else None)
        run = _audited_open_loop(engine, workload, transactions, clients,
                                 arrivals, queue_limit)
        config = engine.proxy.config
        controller = run.controller
        decisions = () if controller is None else controller.decisions
        rows.append(ElasticityRow(
            mode=mode,
            offered=run.offered,
            dropped=run.dropped,
            committed=run.committed,
            achieved_tps=run.achieved_tps,
            mean_total_latency_ms=run.average_total_latency_ms,
            p95_total_latency_ms=run.p95_total_latency_ms,
            max_queue_depth=run.max_queue_depth,
            epochs=run.epochs,
            reshards=len(run.migrations),
            scale_ups=sum(1 for d in decisions if d.action == "scale_up"),
            scale_downs=sum(1 for d in decisions if d.action == "scale_down"),
            final_topology=(config.shards, config.storage_servers,
                            config.proxy_workers),
            audit_ok=run.audit.ok,
        ))
    return rows
