"""One benchmark round: set up a fresh engine, run the timed load, check it.

A *round* is the unit every host-clock number is sampled in: a fresh engine
built from the workload's frozen parameters and the run's seed, bulk-loaded,
then driven by the workload's closed or open loop inside the timed window.
Rounds of one run are replicas — same seed, same programs — so their
simulated results must be bit-identical (``sim_digest``), and only the host
clock differs between them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api import EngineConfig, create_engine
from repro.audit.observer import EngineObserver
from repro.concurrency import check_serializable
from repro.core.client import AbortRequest, Read
from repro.storage.backend import StorageOp

import calibrate
from trace import Tracer
from workloads import Workload

READ_BACK_KEYS = 64
_READ_BACK_TRIES = 6


def _decline_quietly(generator):
    """Run a workload program, ending it normally where it asks to abort.

    SmallBank and FreeHealth programs yield ``AbortRequest`` when the
    application declines (insufficient funds, inactive patient) — always
    before their first write.  The engine would abort them and the loop
    drivers would then re-queue them like conflict losers, wave after wave,
    which burns slots and, with the retry bound this benchmark needs, never
    ends.  A declined request is a completed one: it commits read-only.
    """
    value = None
    try:
        while True:
            try:
                operation = generator.send(value)
            except StopIteration as stop:
                return stop.value
            if isinstance(operation, AbortRequest):
                return None
            value = yield operation
    finally:
        generator.close()


class ProgramSource:
    """The workload's ``factory_source`` as the engine gets it.

    Counts the programs it hands out — ``RunStats`` counts attempts, and only
    the open loop reports what was offered — and makes declines commit
    read-only (:func:`_decline_quietly`).
    """

    def __init__(self, factory_source) -> None:
        self._source = factory_source
        self.produced = 0

    def __call__(self):
        factory = self._source()
        self.produced += 1
        return lambda: _decline_quietly(factory())


class WaveCounters(EngineObserver):
    """Per-epoch ORAM counters the engine resets every epoch (traced rounds).

    ``EpochBatchExecutor.stats`` is public but epoch-scoped, and a reshard
    replaces the executors mid-run, so lifetime totals are summed here, one
    wave at a time, from the live data layer.  (On the one wave that ends in
    a cutover the live layer is already the new generation's, so that wave
    reports the last copy batch instead of the foreground epoch.)
    """

    FIELDS = ("evictions", "early_reshuffles", "stash_hits", "local_buffer_hits",
              "buffered_bucket_writes_saved")

    def __init__(self) -> None:
        self.totals: Dict[str, int] = {name: 0 for name in self.FIELDS}
        self.stash_peak_blocks = 0

    def on_wave(self, engine, results) -> None:
        for part in engine.proxy.data_layer.partitions:
            stats = part.executor.stats
            for name in self.FIELDS:
                self.totals[name] += getattr(stats, name)
            self.stash_peak_blocks = max(self.stash_peak_blocks, len(part.oram.stash))


@dataclass
class Recovery:
    """Crash -> recover measurements of a durable workload."""

    host_seconds: float
    pass_seconds: List[float]
    sim_ms: float
    bytes_read: int


@dataclass
class Round:
    """Everything one round measured."""

    traced: bool
    stats: object                       # the driver's RunStats
    digest: str
    offered: int                        # programs generated (dropped ones included)
    committed: int
    failed: int                         # dropped on arrival: nothing else is final
    unfinished: int                     # still held by the driver at the last wave
    slo_share: float
    setup_seconds: float
    setup_pass_seconds: List[float]
    work_seconds: float
    pass_seconds: List[float]
    wave_seconds: List[float]
    cpu_wall_ratio: float
    peak_rss_mb: float
    initial_keys: int
    user_bytes: int
    problems: List[str] = field(default_factory=list)
    recovery: Optional[Recovery] = None
    # Traced rounds only.
    tracer: Optional[Tracer] = None
    counters: Optional[WaveCounters] = None
    engine: Optional[object] = None
    storage_before: Optional[Dict[str, int]] = None

    @property
    def host_ms(self) -> float:
        """Calibrated host time of the timed window."""
        return calibrate.calibrated_ms(self.work_seconds, self.pass_seconds)

    @property
    def cu_spread(self) -> float:
        return calibrate.spread(self.pass_seconds)

    @property
    def disturbed(self) -> bool:
        return calibrate.is_disturbed(self.cu_spread, self.cpu_wall_ratio)


def sim_digest(stats) -> str:
    """sha256 of ``repr(RunStats)``: the simulated outcome, bit for bit."""
    return hashlib.sha256(repr(stats).encode("utf-8")).hexdigest()[:16]


def servers_of(storage) -> list:
    """The storage servers behind ``storage`` (one, or a cluster's)."""
    return list(getattr(storage, "servers", None) or [storage])


def storage_snapshot(engine) -> Dict[str, int]:
    """Public storage and durability counters, summed over the servers."""
    servers = servers_of(engine.storage)
    traces = [server.trace for server in servers if server.trace is not None]
    recovery = engine.proxy.recovery
    return {
        "reads": sum(server.stats_reads for server in servers),
        "writes": sum(server.stats_writes for server in servers),
        "stored_bytes": sum(server.size_bytes() for server in servers),
        "trace_events": sum(len(trace) for trace in traces),
        "bytes_written": sum(trace.total_bytes(StorageOp.WRITE) for trace in traces),
        "durable_bytes": 0 if recovery is None else (
            recovery.stats_wal_bytes + recovery.stats_checkpoint_bytes),
    }


def time_set_up(workload: Workload, seed: int, data: Dict[str, bytes]):
    """The set-up every run pays — build the engine, bulk-load, first full
    checkpoint — bracketed by kernel passes; returns (engine, s, passes)."""
    gc.collect()
    passes = calibrate.bracket()
    started = time.perf_counter()
    engine = create_engine("obladi", workload.engine_config(seed, len(data)))
    engine.load_initial_data(data)
    seconds = time.perf_counter() - started
    passes += calibrate.bracket()
    return engine, seconds, passes


def run_round(workload: Workload, seed: int, traced: bool,
              full_checks: bool) -> Round:
    """Run one round; ``full_checks`` adds the read-back (and crash) checks."""
    generator = workload.make_generator(seed)
    data = generator.initial_data()
    sampler = calibrate.WaveSampler()
    tracer = counters = None
    phase = contextlib.nullcontext
    if traced:
        tracer, counters = Tracer(), WaveCounters()
        phase = tracer.phase
        # Benchmark-owned hooks run inside the wave; as ``harness`` spans
        # their time is kept out of every layer.
        sampler.on_wave = tracer.wrap_callable(sampler.on_wave, "harness.sampler")
        counters.on_wave = tracer.wrap_callable(counters.on_wave, "harness.counters")
        tracer.install()
    try:
        with phase("bench.setup"):
            engine, setup_seconds, setup_passes = time_set_up(workload, seed, data)
        programs = source = ProgramSource(generator.transaction_factory)
        workload.attach_observers(engine)
        storage_before = None
        if traced:
            source = tracer.wrap_callable(source, "workloads.factory")
            engine.attach_observer(counters)
            storage_before = storage_snapshot(engine)
        engine.attach_observer(sampler)

        gc.collect()
        cpu_started = time.process_time()
        started = time.perf_counter()
        sampler.start()
        with phase("bench.run"):
            stats = workload.drive(engine, source, seed)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
    finally:
        if traced:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    offered = programs.produced + stats.dropped
    within = sum(1 for latency in stats.total_latencies_ms
                 if latency <= workload.slo_ms)
    outcome = Round(
        traced=traced, stats=stats, digest=sim_digest(stats), offered=offered,
        committed=stats.committed, failed=stats.dropped,
        unfinished=programs.produced - stats.committed,
        slo_share=within / max(1, stats.committed + stats.dropped),
        setup_seconds=setup_seconds, setup_pass_seconds=setup_passes,
        work_seconds=wall - sampler.own_seconds,
        pass_seconds=sampler.pass_seconds, wave_seconds=sampler.wave_seconds,
        cpu_wall_ratio=cpu / wall, peak_rss_mb=peak_rss_mb,
        initial_keys=len(data),
        user_bytes=sum(len(value) for value in data.values()),
        tracer=tracer, counters=counters, storage_before=storage_before,
        engine=engine if traced else None)

    # The accounting identity committed + aborted == offered - dropped +
    # retries - unfinished, for drivers told to retry until the round ends:
    # no abort is final, so every one of them must have been re-queued, and
    # no program can have committed twice.
    problems = outcome.problems
    if stats.aborted != stats.retries:
        problems.append(f"{stats.aborted} aborted attempts but {stats.retries} "
                        f"re-queues: an abort became final")
    if not 0 <= stats.committed <= programs.produced:
        problems.append(f"{stats.committed} commits of {programs.produced} programs")
    if workload.open_loop and stats.offered != offered:
        problems.append(f"RunStats.offered is {stats.offered}, the generator "
                        f"produced {offered}")
    serializable, cycle = check_serializable(engine.committed_history)
    if not serializable:
        problems.append(f"committed history is not serializable: cycle {cycle}")
    problems += _topology_checks(workload, engine, stats)
    if full_checks:
        if workload.durable:
            outcome.recovery = _crash_and_recover(engine)
        problems += _read_back(engine, data, seed)
    return outcome


def nopriv_baseline(workload: Workload, seed: int):
    """The same workload and seed on the NoPriv engine; returns its RunStats."""
    generator = workload.make_generator(seed)
    engine = create_engine("nopriv", EngineConfig(backend="server", seed=seed))
    engine.load_initial_data(generator.initial_data())
    # The same programs the Obladi engine was given, declines included.
    return workload.drive(engine, ProgramSource(generator.transaction_factory), seed)


def _topology_checks(workload: Workload, engine, stats) -> List[str]:
    problems: List[str] = []
    config = engine.proxy.config
    topology = (config.shards, config.storage_servers, config.proxy_workers)
    if topology != workload.final_topology:
        problems.append(f"final topology {topology}, expected "
                        f"{workload.final_topology}")
    expected_migrations = 1 if workload.reshard_after_wave else 0
    if len(stats.migrations) != expected_migrations:
        problems.append(f"{len(stats.migrations)} migration report(s), expected "
                        f"{expected_migrations}")
    if workload.audited and (stats.audit is None or not stats.audit.ok):
        problems.append("streaming audit verdict is not ok")
    return problems


def _crash_and_recover(engine) -> Recovery:
    passes = calibrate.bracket()
    engine.crash()
    started = time.perf_counter()
    report = engine.recover()
    seconds = time.perf_counter() - started
    passes += calibrate.bracket()
    return Recovery(host_seconds=seconds, pass_seconds=passes,
                    sim_ms=report.total_ms, bytes_read=report.bytes_read)


def _reader(key: str):
    def program():
        value = yield Read(key)
        return value
    return program


def _read_back(engine, data: Dict[str, bytes], seed: int) -> List[str]:
    """What an outsider can see: delivered bytes of seeded keys.

    Half the keys are drawn from those the run wrote, half from the whole
    loaded set; each must read back as the value of its last committed
    writer (or its loaded value), through ordinary read transactions.
    """
    expected = dict(data)
    for txn in sorted(engine.committed_history, key=lambda t: t.timestamp):
        expected.update(txn.write_set)
    written = sorted((set(expected) - set(data))
                     | {key for key in data if expected[key] != data[key]})
    rng = random.Random(seed)
    keys = rng.sample(written, min(READ_BACK_KEYS // 2, len(written)))
    others = sorted(set(data) - set(keys))
    keys += rng.sample(others, min(READ_BACK_KEYS - len(keys), len(others)))

    # A wave no larger than one partition's read quota can never overflow a
    # partition's batch, however the keys hash.
    wave_size = engine.proxy.config.partition_read_batch_size
    delivered: Dict[str, Optional[bytes]] = {}
    pending = list(keys)
    for _ in range(_READ_BACK_TRIES):
        if not pending:
            break
        retry: List[str] = []
        for offset in range(0, len(pending), wave_size):
            wave = pending[offset:offset + wave_size]
            results = engine.submit_many([_reader(key) for key in wave])
            for key, result in zip(wave, results):
                if result.committed:
                    delivered[key] = result.return_value
                else:
                    retry.append(key)
        pending = retry
    problems = [f"read-back of {key!r} never committed" for key in pending]
    for key, value in delivered.items():
        if (value or None) != (expected[key] or None):
            problems.append(f"read-back of {key!r} delivered {value!r}, the last "
                            f"committed write is {expected[key]!r}")
    return problems
