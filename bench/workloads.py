"""The four benchmark workloads, with their frozen parameters.

Every parameter below is part of the benchmark's definition: change one and
every recorded number for that workload stops being comparable.  The only
thing a run may vary is the seed, which feeds the workload generator, the
engine and (open loop) the arrival process; the engine only ever sees the
generated programs.

Each workload says *why* it exists — which layers it stresses and which
optimisation it exercises or bypasses — in ``why`` (mirrored into
``BENCHMARK.json``) and at length in ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Tuple

from repro.api import EngineConfig, PoissonArrivals
from repro.audit import AuditingObserver
from repro.audit.observer import EngineObserver
from repro.core.config import RingOramConfig
from repro.elasticity import ReshardPlan
from repro.workloads.freehealth import FreeHealthConfig, FreeHealthWorkload
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload
from repro.workloads.tpcc import TPCCConfig, TPCCWorkload
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

#: How often the loop drivers re-queue an aborted program: more than any
#: round has waves, i.e. until it commits or the round ends, as the paper's
#: clients do.  A smaller bound makes programs *fail* by bad luck alone —
#: under retry-first MVTSO a re-queued writer gets the wave's oldest
#: timestamps and can lose the same hot row to younger readers a dozen times
#: running — and an operation that fails is not one a benchmark can time.
RETRIES = 1000


class _ReshardAfterWave(EngineObserver):
    """Stages one live reshard once ``wave`` waves have completed."""

    def __init__(self, wave: int, plan: ReshardPlan) -> None:
        self.wave = wave
        self.plan = plan
        self.seen = 0

    def on_wave(self, engine, results) -> None:
        self.seen += 1
        if self.seen == self.wave:
            engine.reshard(self.plan)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: generator, engine configuration, load driver.

    ``size`` is the length of a round in *waves* (one wave is one Obladi
    epoch): the loop driver runs exactly that many and stops, as a benchmark
    runs for a fixed time — a closed loop keeps every wave full, an open loop
    serves what has arrived — so no half-empty drain tail of stragglers
    decides the numbers.  Programs still queued or waiting for a retry when
    the last wave ends are *unfinished*, neither committed nor failed.
    ``slo_ms`` is the frozen simulated-latency limit behind ``sim_slo_share``
    (about twice the workload's p50 when the benchmark was defined).
    ``durable`` workloads crash and recover after the first round's timed
    window; ``final_topology`` is what ``(shards, servers, workers)`` must
    read when a round ends.
    """

    name: str
    why: str
    size: int
    smoke_size: int
    clients: int
    slo_ms: float
    durable: bool
    final_topology: Tuple[int, int, int]
    generator: Callable[[int, float], object]      # (seed, data scale)
    make_config: Callable[[int, int, int], EngineConfig]
    open_loop_tps: float = 0.0      # 0 = closed loop
    queue_limit: int = 0
    reshard_after_wave: int = 0     # 0 = static topology
    audited: bool = False
    data_scale: float = 1.0

    @property
    def open_loop(self) -> bool:
        return self.open_loop_tps > 0

    def smoke(self) -> "Workload":
        """The same code paths at a tiny fixed size, for the smoke test.

        A tenth of the data, a handful of waves, the reshard (if any) staged
        early enough to cut over inside them.  Numbers from a smoke run are
        comparable with nothing.
        """
        return replace(self, size=self.smoke_size, data_scale=0.1,
                       reshard_after_wave=min(self.reshard_after_wave, 2))

    def make_generator(self, seed: int):
        return self.generator(seed, self.data_scale)

    def engine_config(self, seed: int, num_keys: int) -> EngineConfig:
        return self.make_config(seed, num_keys, self.clients)

    def attach_observers(self, engine) -> None:
        """Attach the workload's own observers: the auditor, the reshard."""
        if self.audited:
            engine.attach_observer(AuditingObserver())
        if self.reshard_after_wave:
            shards, servers, _ = self.final_topology
            engine.attach_observer(_ReshardAfterWave(
                self.reshard_after_wave,
                ReshardPlan(shards=shards, storage_servers=servers)))

    def drive(self, engine, factory_source, seed: int):
        """Run the timed load; returns the driver's ``RunStats``."""
        # One fresh program per slot per wave is a supply that cannot run dry
        # (ten times that for the open loop, which draws by the clock).
        supply = self.size * self.clients
        if self.open_loop:
            return engine.run_open_loop(
                factory_source, 10 * supply,
                arrivals=PoissonArrivals(self.open_loop_tps, seed=seed),
                clients=self.clients, queue_limit=self.queue_limit,
                max_retries=RETRIES, max_waves=self.size)
        return engine.run_closed_loop(
            factory_source, total_transactions=supply, clients=self.clients,
            max_retries=RETRIES, max_batches=self.size)


def _oram_blocks(num_keys: int) -> int:
    """Tree capacity: twice the loaded keys, at least 4096 blocks."""
    return max(4096, 2 * num_keys)


# --------------------------------------------------------------------------- #
# smallbank_sharded
# --------------------------------------------------------------------------- #
def _smallbank_generator(seed: int, scale: float):
    return SmallBankWorkload(SmallBankConfig(num_accounts=int(4000 * scale),
                                             seed=seed))


def _smallbank_config(seed: int, num_keys: int, clients: int) -> EngineConfig:
    del clients
    # The PR-10 ledger's configuration at 10x: the tree holds exactly the
    # loaded keys (two per account), not twice as many.
    return (EngineConfig().with_workload("smallbank").with_backend("server")
            .with_oram(num_blocks=num_keys, z_real=8, block_size=192)
            .with_batching(read_batches=3, read_batch_size=64,
                           write_batch_size=64, batch_interval_ms=1.0)
            .with_durability(False).with_encryption(True)
            .with_sharding(4).with_seed(seed))


# --------------------------------------------------------------------------- #
# tpcc_durable
# --------------------------------------------------------------------------- #
def _tpcc_generator(seed: int, scale: float):
    # Ten warehouses as in the paper; TPC-C scale 0.05 shrinks the
    # per-district populations (3 customers, 50 items) but keeps the
    # contention structure.  Already small: the smoke scale leaves it alone.
    del scale
    return TPCCWorkload(TPCCConfig(warehouses=10, districts_per_warehouse=10,
                                   customers_per_district=3, items=50,
                                   seed=seed))


def _tpcc_config(seed: int, num_keys: int, clients: int) -> EngineConfig:
    # Sized the way harness.experiments._obladi_config_for provisions TPC-C:
    # 12 reads per client per round, 14 writes per client per epoch, on the
    # tpcc preset (R=8, delta=10 ms) and the RingOramConfig defaults
    # (Z=16, 256-byte blocks).
    return (EngineConfig().with_workload("tpcc").with_backend("server")
            .with_oram(RingOramConfig(num_blocks=_oram_blocks(num_keys)))
            .with_batching(read_batch_size=12 * clients,
                           write_batch_size=14 * clients)
            .with_durability(True, checkpoint_frequency=8)
            .with_encryption(True).with_seed(seed))


# --------------------------------------------------------------------------- #
# freehealth_openloop
# --------------------------------------------------------------------------- #
def _freehealth_generator(seed: int, scale: float):
    return FreeHealthWorkload(FreeHealthConfig(num_patients=int(300 * scale),
                                               num_drugs=30, seed=seed))


def _freehealth_config(seed: int, num_keys: int, clients: int) -> EngineConfig:
    del clients
    return (EngineConfig().with_workload("freehealth").with_backend("server")
            .with_oram(RingOramConfig(num_blocks=_oram_blocks(num_keys),
                                      z_real=8, block_size=256))
            .with_durability(True).with_encryption(True)
            .with_sharding(2).with_seed(seed))


# --------------------------------------------------------------------------- #
# ycsb_hot_elastic
# --------------------------------------------------------------------------- #
def _ycsb_generator(seed: int, scale: float):
    return YCSBWorkload(YCSBConfig(num_records=int(2000 * scale),
                                   distribution="zipfian",
                                   zipfian_theta=0.99, ops_per_transaction=4,
                                   seed=seed))


def _ycsb_config(seed: int, num_keys: int, clients: int) -> EngineConfig:
    del clients
    return (EngineConfig().with_workload("ycsb").with_backend("server")
            .with_oram(RingOramConfig(num_blocks=_oram_blocks(num_keys),
                                      z_real=8, block_size=192))
            .with_batching(read_batches=4, read_batch_size=128,
                           write_batch_size=128, batch_interval_ms=1.0)
            .with_durability(False).with_encryption(False)
            .with_sharding(2).with_storage_servers(2).with_proxy_workers(2)
            .with_conflict_strategy("repair").with_seed(seed))


WORKLOADS: List[Workload] = [
    Workload(
        name="smallbank_sharded",
        why=("balanced write-heavy closed loop on the sharded fan-out path: "
             "oram, crypto, storage and sim all carry host time; the "
             "continuity workload of the PR-10 ledger at 10x"),
        size=40, smoke_size=3, clients=24, slo_ms=9.0,
        durable=False,
        final_topology=(4, 1, 1),
        generator=_smallbank_generator, make_config=_smallbank_config),
    Workload(
        name="tpcc_durable",
        why=("the paper's headline application on the single-tree path with "
             "Z=16, deep epochs, WAL and checkpoints, real MVTSO contention "
             "and a crash/recover read-back; crypto leads the host time"),
        size=26, smoke_size=2, clients=12, slo_ms=200.0,
        durable=True,
        final_topology=(1, 1, 1),
        generator=_tpcc_generator, make_config=_tpcc_config),
    Workload(
        name="freehealth_openloop",
        why=("read-mostly open loop below the knee with durability on: "
             "partially filled epochs, so padding waste and queueing, not "
             "conflicts, set tail latency and physical ops per txn"),
        size=44, smoke_size=5, clients=16, slo_ms=100.0,
        durable=True,
        final_topology=(2, 1, 1),
        generator=_freehealth_generator, make_config=_freehealth_config,
        open_loop_tps=340.0, queue_limit=64),
    Workload(
        name="ycsb_hot_elastic",
        why=("crypto bypass (cipher off, so a keystream or MAC change must "
             "show no change here) on hot Zipfian keys, driving every seam "
             "added after the paper: proxy tier, cluster, repair, audit and "
             "a live reshard"),
        size=30, smoke_size=6, clients=32, slo_ms=26.0,
        durable=False,
        final_topology=(4, 2, 2),
        generator=_ycsb_generator, make_config=_ycsb_config,
        reshard_after_wave=5, audited=True),
]

BY_NAME: Dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}
