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
(repair)        :func:`run_repair_comparison`
(elasticity)    :func:`run_elasticity_comparison`
==============  ====================================================

Each function lists its points and turns every point into a row.  The ORAM
microbenchmarks (Figures 10a–10e) return :class:`OramRow`; every other
experiment keeps the :class:`~repro.api.RunStats` each point produced
(``row.run``) and adds only what the run does not know: the point's place on
the figure, and the figure's derived value where it has one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.api import EngineConfig, PoissonArrivals, RunStats, create_engine
from repro.audit import AuditingObserver
from repro.core.config import ObladiConfig, RingOramConfig
from repro.elasticity import AutoscalePolicy, FlashCrowdArrivals
from repro.oram.batch_executor import EpochBatchExecutor
from repro.oram.crypto import CipherSuite
from repro.oram.parameters import derive_parameters
from repro.oram.ring_oram import RingOram
from repro.recovery import RecoveryResult
from repro.sim.clock import SimClock
from repro.sim.latency import CpuCostModel
from repro.storage.memory import InMemoryStorageServer
from repro.workloads.freehealth import FreeHealthConfig, FreeHealthWorkload
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload
from repro.workloads.tpcc import TPCCConfig, TPCCWorkload
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload


# --------------------------------------------------------------------------- #
# Rows
# --------------------------------------------------------------------------- #
@dataclass
class OramRow:
    """One point of Figures 10a–10e: ``operations`` reads through the epoch
    executor in ``mode``, ``batch_size`` reads a batch and
    ``batches_per_epoch`` batches an epoch, taking ``elapsed_ms``."""

    backend: str
    mode: str                    # sequential / parallel / parallel_crypto / normal
    batch_size: int
    batches_per_epoch: int
    operations: int
    elapsed_ms: float

    @property
    def throughput_ops_per_s(self) -> float:
        """Reads completed per simulated second."""
        if self.elapsed_ms <= 0:
            return float("inf")
        return self.operations * 1000.0 / self.elapsed_ms

    @property
    def latency_ms(self) -> float:
        """Mean simulated duration of one epoch (dispatch to flush)."""
        epochs = -(-self.operations // (self.batch_size * self.batches_per_epoch))
        return self.elapsed_ms / epochs


@dataclass
class RunRow:
    """One point of an application-level figure and the run it produced.

    ``series`` is the bar or curve the point belongs to and ``x`` its place
    on the figure's axis; each ``run_*`` says what they are.  The two knee
    sweeps also keep ``ceiling``, the closed-loop run whose throughput the
    offered rate is a multiple ``x`` of.
    """

    series: str
    x: object
    run: RunStats
    ceiling: Optional[RunStats] = None

    @property
    def target_rate_tps(self) -> float:
        """The arrival rate :func:`_knee_sweep` offered at this point: ``x``
        times the ceiling's throughput."""
        return max(1e-6, self.x * self.ceiling.throughput_tps)


@dataclass
class RecoveryRow:
    """One column of Table 11b: the durable run at ``num_objects``, its
    throughput over the same run without durability, and the recovery that
    followed a crash of its proxy."""

    num_objects: int
    tree_levels: int
    durability_slowdown: float
    recovery: RecoveryResult
    run: RunStats


@dataclass
class ElasticityRow:
    """One run of the flash-crowd elasticity comparison and the
    ``(shards, storage_servers, proxy_workers)`` it ended at."""

    mode: str                    # "static" or "autoscaled"
    final_topology: Tuple[int, int, int]
    run: RunStats

    def decisions(self, action: str) -> int:
        """How many autoscale decisions were ``action`` (``"scale_up"`` /
        ``"scale_down"``); 0 for a run without a controller."""
        return sum(d.action == action
                   for d in getattr(self.run.controller, "decisions", ()))


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


def _run_parallel_ops(num_blocks: int, backend: str, mode: str, operations: int,
                      batch_size: int, batches_per_epoch: int = 1,
                      access_seed: int = 0) -> OramRow:
    """``operations`` reads of blocks drawn from ``access_seed`` through the
    epoch executor in ``mode``, one :class:`OramRow`."""
    charge_crypto, buffer_writes, parallelism, cost_model = {
        # Ring ORAM without batching or parallelism (run at batch size 1):
        # one request in flight, immediate write-back, and none of the
        # multilevel-serializability coordination parallel mode pays.
        "sequential": (True, False, 1, CpuCostModel(coordination_per_block_ms=0.0)),
        # The paper's Parallel vs ParallelCrypto: crypto cost charged or not.
        "parallel": (False, True, 1024, None),
        "parallel_crypto": (True, True, 1024, None),
        # ParallelCrypto with bucket writes not buffered to the epoch's end.
        "normal": (True, False, 1024, None),
    }[mode]
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
    return OramRow(backend, mode, batch_size, batches_per_epoch, operations,
                   clock.now_ms - start)


def _closed_loop(engine, workload, data, transactions: int, clients: int) -> RunStats:
    """Load ``data`` into ``engine`` and run ``workload`` closed loop."""
    engine.load_initial_data(data)
    return engine.run_closed_loop(workload.transaction_factory,
                                  total_transactions=transactions, clients=clients)


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
                   encrypt: bool = False, seed: int = 7) -> List[RunRow]:
    """Figure 9a/9b: throughput and latency of every system on every application.

    One :class:`RunRow` a bar: ``x`` is the application, ``series`` the
    system.  ``scale`` shrinks the database populations relative to the
    paper (whose EC2 deployment used full TPC-C scale and one million
    SmallBank accounts); the relative ordering of the systems is what the
    experiment reproduces.
    """
    def bar(app: str, system: str) -> RunRow:
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
        return RunRow(system, app, _closed_loop(engine, workload, data, transactions,
                                                clients))

    return [bar(app, system) for app in applications for system in systems]


# --------------------------------------------------------------------------- #
# Figures 10a–10e: the ORAM microbenchmarks
# --------------------------------------------------------------------------- #
def run_parallelism(backends: Sequence[str] = ("dummy", "server", "server_wan", "dynamo"),
                    batch_size: int = 500, operations: int = 500,
                    num_blocks: int = DEFAULT_ORAM_OBJECTS,
                    modes: Sequence[str] = ("sequential", "parallel", "parallel_crypto"),
                    ) -> List[OramRow]:
    """Figure 10a: sequential vs parallel ORAM throughput per backend.

    "Sequential" is Ring ORAM without batching or parallelism: the same
    executor at one read per epoch, one request in flight and immediate
    write-back.  It pays no multilevel-serializability coordination, as
    :meth:`~repro.sim.latency.CpuCostModel.sequential_block_cost_ms` defines
    sequential mode.
    """
    return [_run_parallel_ops(num_blocks, backend, mode, operations,
                              1 if mode == "sequential" else batch_size)
            for backend in backends for mode in modes]


def run_batch_size_sweep(backends: Sequence[str] = ("dummy", "server", "server_wan", "dynamo"),
                         batch_sizes: Sequence[int] = (1, 10, 100, 500, 1000, 2000),
                         num_blocks: int = DEFAULT_ORAM_OBJECTS,
                         min_operations: int = 600) -> List[OramRow]:
    """Figures 10b/10c: throughput and latency vs batch size.

    Each configuration executes at least ``min_operations`` logical reads,
    one full batch an epoch, so the deterministic eviction work is
    represented in every data point (a single tiny batch would otherwise
    dodge evictions entirely and look artificially fast); latency is the
    average duration of one batch (dispatch to flush).
    """
    return [_run_parallel_ops(num_blocks, backend, "parallel_crypto",
                              max(1, -(-min_operations // size)) * size, size,
                              access_seed=1)
            for backend in backends for size in batch_sizes]


def run_delayed_visibility(backends: Sequence[str] = ("dummy", "server", "server_wan", "dynamo"),
                           batch_size: int = 200, batches_per_epoch: int = 8,
                           num_blocks: int = DEFAULT_ORAM_OBJECTS) -> List[OramRow]:
    """Figure 10d: effect of buffering bucket writes until the epoch ends.

    ``normal`` writes buckets back at once; ``parallel_crypto`` buffers them
    to the epoch's end (the paper's write-back bars)."""
    return [_run_parallel_ops(num_blocks, backend, mode, batch_size * batches_per_epoch,
                              batch_size, batches_per_epoch)
            for backend in backends for mode in ("normal", "parallel_crypto")]


def run_epoch_size_oram(backends: Sequence[str] = ("dummy", "server", "server_wan", "dynamo"),
                        batch_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
                        batch_size: int = 200,
                        num_blocks: int = DEFAULT_ORAM_OBJECTS) -> List[OramRow]:
    """Figure 10e: larger epochs buffer more buckets locally and reduce I/O.

    Every point runs two epochs.  The figure plots each backend's throughput
    relative to its first point's."""
    return [_run_parallel_ops(num_blocks, backend, "parallel_crypto",
                              batch_size * batches * 2, batch_size, batches)
            for backend in backends for batches in batch_counts]


# --------------------------------------------------------------------------- #
# Figure 10f: epoch size impact on the proxy (applications)
# --------------------------------------------------------------------------- #
def run_epoch_size_proxy(applications: Sequence[str] = ("smallbank", "freehealth", "tpcc"),
                         epoch_sizes_ms: Sequence[float] = (25, 50, 75, 100, 125, 150),
                         batch_interval_ms: float = 25.0,
                         transactions: int = 80, clients: int = 12,
                         scale: float = 0.05, encrypt: bool = False) -> List[RunRow]:
    """Figure 10f: application throughput as a function of the epoch length.

    One :class:`RunRow` a point: ``series`` is the application, ``x`` the
    epoch length in ms.  The epoch length maps to the number of read batches
    it contains (``epoch_ms / batch_interval_ms``): epochs too short abort
    transactions that need more rounds; epochs too long leave the proxy idle.
    """
    def point(app: str, epoch_ms: float) -> RunRow:
        workload = _workload_objects(app, scale)
        data = workload.initial_data()
        config = replace(_obladi_config_for(app, len(data), backend="server",
                                            encrypt=encrypt, clients=clients),
                         read_batches=max(1, int(round(epoch_ms / batch_interval_ms))),
                         batch_interval_ms=batch_interval_ms, durability=False)
        return RunRow(app, epoch_ms, _closed_loop(create_engine("obladi", config),
                                                  workload, data, transactions, clients))

    return [point(app, epoch_ms) for app in applications for epoch_ms in epoch_sizes_ms]


# --------------------------------------------------------------------------- #
# Open-loop knee sweeps: saturation, and retry vs repair
# --------------------------------------------------------------------------- #
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
              .with_durability(False).with_encryption(False).with_seed(seed))
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


def _knee_sweep(series: str, make_engine: Callable[[], object],
                make_workload: Callable[[], object], rate_multipliers: Sequence[float],
                transactions: int, clients: int, arrival_seed: int) -> List[RunRow]:
    """The method of both knee sweeps: the ceiling, then the multipliers.

    First measures the *closed-loop ceiling* (``run_closed_loop`` with
    ``clients`` slots — the service capacity an open loop cannot exceed),
    then, on a fresh engine and workload per point, offers seeded-Poisson
    arrivals at ``multiplier x ceiling``, audited: one :class:`RunRow` a
    multiplier, with ``x`` the multiplier.
    """
    workload = make_workload()
    ceiling = _closed_loop(make_engine(), workload, workload.initial_data(),
                           transactions, clients)

    def point(multiplier: float) -> RunRow:
        workload, engine = make_workload(), make_engine()
        rate = max(1e-6, multiplier * ceiling.throughput_tps)
        return RunRow(series, multiplier, _audited_open_loop(
            engine, workload, transactions, clients,
            PoissonArrivals(rate, seed=arrival_seed)), ceiling)

    return [point(multiplier) for multiplier in rate_multipliers]


def run_saturation_sweep(kinds: Sequence[str] = ("obladi", "nopriv"),
                         rate_multipliers: Sequence[float] = (0.05, 0.5, 2.0, 4.0),
                         transactions: int = 96, clients: int = 16,
                         num_accounts: int = 400, shards: int = 1,
                         proxy_workers: int = 1, arrival_seed: int = 7,
                         seed: int = 11) -> List[RunRow]:
    """Open-loop saturation sweep: offered load as a fraction of capacity.

    For each engine kind (``series``) the sweep measures the closed-loop
    ceiling, then offers arrivals at ``multiplier x ceiling``
    (:func:`_knee_sweep`) and records achieved throughput and
    queue-inclusive latency.  Below the knee (``multiplier < 1``) latency
    should sit near the closed-loop latency; past it, queueing delay grows
    with the multiplier while achieved throughput plateaus at the ceiling —
    the open-loop shape of the paper's Figure 9 latency/throughput trade-off.

    Every point is audited: ``run.audit`` certifies its history and holds
    the auditor's bounded-memory high-water mark.

    An epoch-batched engine adds ~half an epoch of queueing at *any* rate
    above one arrival per epoch (an arrival waits out the in-flight epoch),
    so the default sweep's lowest point is sparse enough (5% of the
    ceiling) that arrivals usually find the system idle — the regime where
    open-loop latency genuinely approaches the closed-loop number.
    """
    return [row for kind in kinds for row in _knee_sweep(
        kind,
        lambda: _small_engine(kind, (shards, 1, proxy_workers), clients,
                              num_accounts, seed),
        lambda: SmallBankWorkload(SmallBankConfig(num_accounts=num_accounts, seed=seed)),
        rate_multipliers, transactions, clients, arrival_seed)]


def run_repair_comparison(rate_multipliers: Sequence[float] = (1.0, 2.0, 4.0),
                          transactions: int = 96, clients: int = 16,
                          num_accounts: int = 400,
                          hotspot_probability: float = 0.9,
                          shards: int = 1, proxy_workers: int = 1,
                          arrival_seed: int = 7, seed: int = 11,
                          workload: str = "smallbank") -> List[RunRow]:
    """Head-to-head retry vs repair on a contended workload at the knee.

    Reuses the saturation-sweep method (:func:`_knee_sweep`) but pins the
    workload to a contended shape — ``workload="smallbank"`` puts
    ``hotspot_probability`` of operations on the hot 10% of accounts;
    ``workload="ycsb"`` draws keys Zipfian(0.99) over ``num_accounts``
    records — so MVTSO conflicts dominate, and runs every point twice
    (``series``): once under ``conflict_strategy="retry"`` (losers re-queue
    into the next wave and re-execute from scratch) and once under
    ``"repair"`` (losers re-execute against the winning versions inside the
    epoch that detected the conflict).  At and past the knee the retry path
    amplifies hotspot work — every loser's full re-execution conflicts
    again with high probability — while repair resolves most losers
    within their epoch; the runs expose exactly that difference through
    ``repaired`` / ``wasted_attempts`` / ``achieved_tps``.

    Every open-loop point is audited, so each run certifies its own
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

    return [row for strategy in ("retry", "repair") for row in _knee_sweep(
        strategy,
        lambda: _small_engine("obladi", (shards, 1, proxy_workers), clients,
                              num_accounts, seed, conflict_strategy=strategy),
        hotspot_workload, rate_multipliers, transactions, clients, arrival_seed)]


# --------------------------------------------------------------------------- #
# Figure 11a and Table 11b: durability
# --------------------------------------------------------------------------- #
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
    return engine, _closed_loop(engine, ycsb, data, transactions, clients)


def run_checkpoint_frequency(frequencies: Sequence[int] = (1, 4, 16, 64, 256),
                             backends: Sequence[str] = ("server", "server_wan", "dynamo"),
                             num_records: int = 2000, transactions: int = 60,
                             clients: int = 12, ops_per_transaction: int = 4
                             ) -> List[RunRow]:
    """Figure 11a: delta checkpoints amortise the cost of durability.

    One :class:`RunRow` a point: ``series`` is the backend, ``x`` the
    full-checkpoint period in epochs; each committed transaction performed
    ``ops_per_transaction`` YCSB operations."""
    return [RunRow(backend, frequency, _ycsb_obladi_run(
                num_records, durability=True, backend=backend,
                transactions=transactions, clients=clients,
                checkpoint_frequency=frequency,
                ops_per_transaction=ops_per_transaction, seed=3)[1])
            for backend in backends for frequency in frequencies]


def run_recovery_table(sizes: Sequence[int] = (1_000, 10_000, 100_000),
                       backend: str = "server_wan", transactions: int = 40,
                       clients: int = 10) -> List[RecoveryRow]:
    """Table 11b: durability slowdown and recovery-time breakdown vs ORAM size."""
    def column(size: int) -> RecoveryRow:
        # Normal-execution slowdown: with vs without durability.
        _engine, run_off = _ycsb_obladi_run(size, durability=False, backend=backend,
                                            transactions=transactions, clients=clients)
        engine, run = _ycsb_obladi_run(size, durability=True, backend=backend,
                                       transactions=transactions, clients=clients)
        slowdown = (run.throughput_tps / run_off.throughput_tps
                    if run_off.throughput_tps > 0 else 0.0)

        # Crash the durable proxy mid-epoch — a storage outage once its first
        # mutation, the WAL record of the epoch's first read batch, is
        # stored — and recover it.
        ycsb = YCSBWorkload(YCSBConfig(num_records=size, ops_per_transaction=4, seed=11))
        engine.storage.fail(after=1)
        try:
            engine.submit_many([ycsb.transaction_factory() for _ in range(clients)])
        except ConnectionError:
            pass
        engine.storage.recover()
        recovery = engine.recover()
        return RecoveryRow(size, engine.proxy.data_layer.partitions[0].oram.params.depth,
                           slowdown, recovery, run)

    return [column(size) for size in sizes]


# --------------------------------------------------------------------------- #
# Elastic topologies: autoscaled vs static under a flash crowd
# --------------------------------------------------------------------------- #
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

    Both runs carry a streaming serializability auditor, so each run also
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

    def flash_crowd(mode: str) -> ElasticityRow:
        workload = SmallBankWorkload(SmallBankConfig(num_accounts=num_accounts,
                                                     seed=seed))
        engine = _small_engine("obladi", ladder[0], clients, num_accounts, seed,
                               cc_op_ms=cc_op_ms,
                               autoscale=policy if mode == "autoscaled" else None)
        run = _audited_open_loop(engine, workload, transactions, clients,
                                 arrivals, queue_limit)
        config = engine.proxy.config
        return ElasticityRow(mode, (config.shards, config.storage_servers,
                                    config.proxy_workers), run)

    return [flash_crowd(mode) for mode in ("static", "autoscaled")]
