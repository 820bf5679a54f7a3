"""Cross-engine conformance suite for the unified ``repro.api`` layer.

Every test in this file runs identically against all three engines
(``obladi``, ``nopriv``, ``mysql``): same programs in, same result-type
semantics out.  This is the contract the evaluation harness relies on —
a Figure-9 row must mean the same thing no matter which engine produced it.

The Obladi engine additionally runs in a *sharded* variant (``shards=4``,
the partitioned data layer), a *distributed* variant (``shards=4`` over
four distinct storage servers, one per partition), and *proxy-tier*
variants (``proxy_workers=4``, the sharded trusted tier — alone and
stacked on the distributed topology): sharding, server topology and the
proxy tier are implementation details and must clear the exact same bar —
submission order, RunStats math, serializable histories, crash/recover.

Elastic topologies extend the contract (``TestElasticReshard``): a live
mid-run reshard must not change any of the above, a crash during the
migration window recovers on the *retiring* side of the fence, a crash
after the cutover recovers on the *new* side, and the open-loop accounting
identity holds across a resharding run.
"""

import random
from collections import Counter

import pytest

from repro.api import (ENGINE_KINDS, EngineConfig, EngineFeatureUnavailable,
                       PoissonArrivals, RunStats, TransactionEngine,
                       create_engine)
from repro.audit import AuditingObserver, EngineObserver
from repro.concurrency import check_serializable
from repro.core.client import Read, ReadMany, TransactionAborted, Write
from repro.elasticity import ReshardPlan
from tests.buggy_engine import BuggyEngine

NUM_KEYS = 24

#: Every variant runs under both conflict strategies: ``retry`` (the
#: default) and ``repair`` (in-epoch conflict repair).  The strategy is an
#: Obladi proxy configuration; the baselines ignore it, so their repair
#: variants pin that the field is harmless there.
STRATEGIES = ("retry", "repair")

#: (kind, shards, storage_servers, proxy_workers, strategy) variants the
#: whole suite runs against: the three engines, the sharded-colocated
#: Obladi topology, the one-server-per-partition topology, the sharded
#: proxy tier over the single-tree data path, and the fully stacked
#: deployment — each under both conflict strategies.
_BASE_VARIANTS = [(kind, 1, 1, 1) for kind in ENGINE_KINDS] + \
    [("obladi", 4, 1, 1), ("obladi", 4, 4, 1),
     ("obladi", 1, 1, 4), ("obladi", 4, 4, 4)]
ENGINE_VARIANTS = [variant + (strategy,) for variant in _BASE_VARIANTS
                   for strategy in STRATEGIES]

#: (shards, storage_servers, proxy_workers, strategy) for the
#: Obladi-specific tests (crash/recover runs against every one).
OBLADI_TOPOLOGIES = [topology + (strategy,)
                     for topology in [(1, 1, 1), (4, 1, 1), (4, 4, 1),
                                      (1, 1, 4), (4, 4, 4)]
                     for strategy in STRATEGIES]

#: Variants for the open-loop path: every engine, and the Obladi engine
#: across the full shards x proxy_workers grid — offered load is a new
#: *scenario axis* and must behave identically over every topology and
#: under either conflict strategy.
OPEN_LOOP_VARIANTS = [variant + (strategy,)
                      for variant in [("nopriv", 1, 1, 1), ("mysql", 1, 1, 1)]
                      + [("obladi", shards, 1, workers)
                         for shards in (1, 4) for workers in (1, 4)]
                      for strategy in STRATEGIES]


def _variant_id(variant) -> str:
    kind, shards, servers, workers, strategy = variant
    parts = [kind]
    if shards > 1:
        parts.append(f"shards{shards}")
    if servers > 1:
        parts.append(f"servers{servers}")
    if workers > 1:
        parts.append(f"workers{workers}")
    parts.append(strategy)
    return "-".join(parts)


def _config(shards: int = 1, storage_servers: int = 1,
            proxy_workers: int = 1, strategy: str = "retry") -> EngineConfig:
    return (EngineConfig()
            .with_oram(num_blocks=512, z_real=8, block_size=128)
            .with_batching(read_batches=3, read_batch_size=32, write_batch_size=32)
            .with_sharding(shards)
            .with_storage_servers(storage_servers)
            .with_proxy_workers(proxy_workers)
            .with_durability(False)
            .with_encryption(False)
            .with_conflict_strategy(strategy)
            .with_seed(3))


@pytest.fixture(params=ENGINE_VARIANTS, ids=_variant_id)
def engine(request) -> TransactionEngine:
    kind, shards, servers, workers, strategy = request.param
    eng = create_engine(kind, _config(shards, servers, workers, strategy))
    eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
    return eng


def append_program(key: str, suffix: bytes = b"x"):
    """Read-modify-write one key; returns the pre-image."""

    def program():
        value = yield Read(key)
        yield Write(key, (value or b"") + suffix)
        return value

    return program


def mixed_source(seed: int, hot_keys: int = 6):
    """Factory source with moderate contention: read two keys, write one."""
    rng = random.Random(seed)

    def source():
        a, b = rng.sample(range(hot_keys), 2)

        def factory():
            def program():
                values = yield ReadMany([f"k{a}", f"k{b}"])
                yield Write(f"k{a}", (values[f"k{a}"] or b"") + b"+")
                return True
            return program()

        return factory

    return source


class TestEngineConstruction:
    def test_create_engine_returns_named_engine(self, engine, request):
        assert isinstance(engine, TransactionEngine)
        assert engine.name == engine.stats().engine

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            create_engine("postgres")


class TestSubmission:
    def test_submit_commits_and_returns_value(self, engine):
        result = engine.submit(append_program("k1"))
        assert result.committed
        assert result.return_value == b"0"
        assert engine.read("k1") == b"0x"

    def test_submit_many_preserves_submission_order(self, engine):
        def writer(index):
            def program():
                yield Write(f"k{index}", str(index).encode())
                return index
            return program

        results = engine.submit_many([writer(i) for i in range(8)])
        assert len(results) == 8
        assert all(r.committed for r in results)
        assert [r.return_value for r in results] == list(range(8))
        for i in range(8):
            assert engine.read(f"k{i}") == str(i).encode()

    def test_transaction_facade_reads_own_writes(self, engine):
        with engine.transaction() as txn:
            before = txn.read("k2")
            txn.write("k2", b"updated")
            assert txn.read("k2") == b"updated"   # read-your-own-writes
        assert before == b"0"
        assert engine.read("k2") == b"updated"

    def test_transaction_facade_abort_discards(self, engine):
        txn = engine.transaction()
        txn.write("k3", b"doomed")
        txn.abort()
        assert engine.read("k3") == b"0"


@pytest.mark.parametrize("kind", ENGINE_KINDS)
class TestProgramProtocol:
    """Every engine reads a program through the same interpreter."""

    @staticmethod
    def _engine(kind: str) -> TransactionEngine:
        eng = create_engine(kind, _config())
        eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        return eng

    def test_raised_abort_is_a_user_abort(self, kind):
        eng = self._engine(kind)

        def program():
            yield Write("k1", b"doomed")
            raise TransactionAborted(0, "user")

        result = eng.submit(program)
        assert (result.committed, result.abort_reason) == (False, "user")
        assert eng.read("k1") == b"0"

    def test_unsupported_yield_raises_type_error(self, kind):
        eng = self._engine(kind)

        def program():
            yield "not an operation"

        with pytest.raises(TypeError):
            eng.submit(program)

    def test_read_many_after_own_write_sees_it(self, kind):
        eng = self._engine(kind)

        def program():
            yield Write("k1", b"mine")
            values = yield ReadMany(["k1", "k2"])
            return values

        result = eng.submit(program)
        assert result.committed
        assert result.return_value == {"k1": b"mine", "k2": b"0"}


class TestClosedLoop:
    TOTAL = 40
    CLIENTS = 8
    MAX_RETRIES = 3

    @pytest.fixture
    def run(self, engine) -> RunStats:
        return engine.run_closed_loop(mixed_source(seed=11), self.TOTAL,
                                      clients=self.CLIENTS,
                                      max_retries=self.MAX_RETRIES)

    def test_attempt_accounting(self, engine, run):
        assert isinstance(run, RunStats)
        assert run.engine == engine.name
        assert run.committed > 0
        # Every attempt resolves exactly once, and every retry adds exactly
        # one attempt, so: attempts = total + retries.
        assert run.committed + run.aborted == self.TOTAL + run.retries
        assert len(run.results) == run.committed + run.aborted
        assert len(run.latencies_ms) == run.committed

    def test_metric_math(self, run):
        assert run.elapsed_ms > 0
        assert run.throughput_tps == pytest.approx(
            run.committed * 1000.0 / run.elapsed_ms)
        assert run.abort_rate == pytest.approx(
            run.aborted / (run.committed + run.aborted))
        assert run.average_latency_ms == pytest.approx(
            sum(run.latencies_ms) / len(run.latencies_ms))
        assert run.epochs > 0

    def test_committed_history_is_serializable(self, engine, run):
        assert len(engine.committed_history) == run.committed
        ok, cycle = check_serializable(engine.committed_history)
        assert ok, f"{engine.name} produced a non-serializable history: {cycle}"

    def test_effects_match_commit_count(self, engine, run):
        # Every committed transaction appended exactly one byte to one hot
        # key, so total appended bytes equal the committed count.
        total_appends = sum(len(engine.read(f"k{i}")) - 1 for i in range(6))
        assert total_appends == run.committed

    def test_stats_are_cumulative(self, engine, run):
        totals = engine.stats()
        assert totals.engine == engine.name
        assert totals.committed == run.committed
        assert totals.aborted == run.aborted

    def test_stats_snapshots_do_not_alias(self, engine):
        before = engine.stats()
        committed_before = before.committed
        engine.submit(append_program("k1"))
        after = engine.stats()
        assert before.committed == committed_before
        assert after.committed == committed_before + 1
        # Mutating a returned snapshot must not corrupt the engine's books.
        after.results.clear()
        after.latencies_ms.append(1e9)
        assert len(engine.stats().latencies_ms) == committed_before + 1


class TestCrashRecovery:
    def test_capability_flag_gates_crash(self, engine):
        if engine.supports_crash_recovery:
            return  # exercised below for the engines that support it
        with pytest.raises(EngineFeatureUnavailable):
            engine.crash()
        with pytest.raises(EngineFeatureUnavailable):
            engine.recover()

    @pytest.mark.parametrize("shards,servers,workers,strategy", OBLADI_TOPOLOGIES)
    def test_obladi_crash_recover_round_trip(self, shards, servers, workers,
                                             strategy):
        eng = create_engine("obladi", _config(shards, servers, workers,
                                              strategy).with_durability(True))
        eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        assert eng.supports_crash_recovery
        eng.submit(append_program("k1"))
        eng.crash()
        eng.recover()
        assert eng.read("k1") == b"0x"

    @pytest.mark.parametrize("shards,servers,workers,strategy", OBLADI_TOPOLOGIES)
    def test_recover_preserves_lifetime_stats_and_history(self, shards, servers,
                                                          workers, strategy):
        eng = create_engine("obladi", _config(shards, servers, workers,
                                              strategy).with_durability(True))
        eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        eng.submit(append_program("k1"))
        pre_crash = eng.stats()
        assert pre_crash.committed == 1
        history_before = len(eng.committed_history)
        eng.crash()
        eng.recover()
        eng.submit(append_program("k2"))
        totals = eng.stats()
        # A crash loses in-flight state, not the record of durable commits.
        assert totals.committed == 2
        assert len(totals.latencies_ms) == 2
        assert len(eng.committed_history) == history_before + 1
        ok, cycle = check_serializable(eng.committed_history)
        assert ok, cycle

    @pytest.mark.parametrize("servers", [1, 4])
    def test_sharded_recover_restores_every_partition(self, servers):
        """After a crash all partitions come back: every key stays readable."""
        eng = create_engine("obladi", _config(4, servers).with_durability(True))
        eng.load_initial_data({f"k{i}": str(i).encode() for i in range(NUM_KEYS)})
        partitions = {eng.proxy.data_layer.partition_of(f"k{i}")
                      for i in range(NUM_KEYS)}
        assert partitions == {0, 1, 2, 3}   # the dataset touches every shard
        eng.submit(append_program("k1"))    # run (and checkpoint) one epoch
        eng.crash()
        eng.recover()
        assert len(eng.proxy.data_layer.partitions) == 4
        assert eng.read("k1") == b"1x"
        for i in range(2, NUM_KEYS):
            assert eng.read(f"k{i}") == str(i).encode()

    def test_distributed_recover_restores_every_server(self):
        """Recovery rebuilds partitions hosted on *distinct* servers: the new
        proxy keeps the same cluster, every server still hosts exactly its
        partition's namespace, and post-recovery traffic reaches all four."""
        eng = create_engine("obladi", _config(4, 4).with_durability(True))
        eng.load_initial_data({f"k{i}": str(i).encode() for i in range(NUM_KEYS)})
        cluster = eng.proxy.storage
        eng.submit(append_program("k1"))
        writes_before = [server.stats_writes for server in cluster.servers]
        eng.crash()
        eng.recover()
        assert eng.proxy.storage is cluster   # the untrusted tier survives
        for part in eng.proxy.data_layer.partitions:
            assert part.storage is cluster.servers[part.index % cluster.num_servers]
        eng.submit(append_program("k2"))      # an epoch touches every server
        for index, server in enumerate(cluster.servers):
            assert server.stats_writes > writes_before[index]
        for i in range(3, NUM_KEYS):
            assert eng.read(f"k{i}") == str(i).encode()


class TestShardedStats:
    def test_partition_breakdown_sums_to_totals(self):
        eng = create_engine("obladi", _config(4))
        eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        eng.run_closed_loop(mixed_source(seed=5), 16, clients=4)
        stats = eng.stats()
        assert len(stats.partition_physical) == 4
        assert sum(r for r, _ in stats.partition_physical) == stats.physical_reads
        assert sum(w for _, w in stats.partition_physical) == stats.physical_writes
        assert all(reads > 0 for reads, _ in stats.partition_physical)

    def test_single_tree_reports_one_partition(self):
        eng = create_engine("obladi", _config(1))
        eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        eng.submit(append_program("k1"))
        stats = eng.stats()
        assert len(stats.partition_physical) == 1
        assert stats.partition_physical[0] == (stats.physical_reads,
                                               stats.physical_writes)


class TestServerStats:
    def test_every_engine_reports_a_server_breakdown(self, engine):
        engine.submit(append_program("k1"))
        stats = engine.stats()
        assert len(stats.server_physical) >= 1
        assert all(reads >= 0 and writes > 0
                   for reads, writes in stats.server_physical)

    def test_per_partition_servers_each_observe_their_partition(self):
        eng = create_engine("obladi", _config(4, 4))
        eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        eng.run_closed_loop(mixed_source(seed=5), 16, clients=4)
        stats = eng.stats()
        assert len(stats.server_physical) == 4
        # With one server per partition and no durability traffic, each
        # server's read counter is exactly its partition's ORAM reads.
        for (server_reads, _), (part_reads, _) in zip(stats.server_physical,
                                                      stats.partition_physical):
            assert server_reads == part_reads

    def test_closed_loop_reports_server_deltas(self):
        eng = create_engine("obladi", _config(4, 2))
        eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        warmup = eng.run_closed_loop(mixed_source(seed=3), 8, clients=4)
        run = eng.run_closed_loop(mixed_source(seed=5), 8, clients=4)
        assert len(warmup.server_physical) == len(run.server_physical) == 2
        totals = eng.stats().server_physical
        for index in range(2):
            assert run.server_physical[index][0] < totals[index][0]
            assert run.server_physical[index][0] > 0


class TestProxyTierStats:
    """The sharded trusted tier's per-worker counters and its equivalence
    guarantee: worker count is invisible to clients (identical results and
    simulated timing at the default, unpriced CC cost)."""

    def test_worker_breakdown_reported_and_nonempty(self):
        eng = create_engine("obladi", _config(proxy_workers=4))
        eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        run = eng.run_closed_loop(mixed_source(seed=5), 16, clients=4)
        assert len(run.worker_ops) == 4
        assert sum(reads for reads, _ in run.worker_ops) > 0
        totals = eng.stats().worker_ops
        assert len(totals) == 4
        for (run_reads, run_writes), (total_reads, total_writes) in zip(
                run.worker_ops, totals):
            assert 0 <= run_reads <= total_reads
            assert 0 <= run_writes <= total_writes

    def test_single_proxy_reports_no_worker_breakdown(self):
        eng = create_engine("obladi", _config())
        eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        run = eng.run_closed_loop(mixed_source(seed=5), 8, clients=4)
        assert run.worker_ops == []
        assert eng.stats().worker_ops == []

    def test_worker_count_is_client_invisible(self):
        """proxy_workers=4 must be behavior-identical to the single proxy:
        same commit/abort outcomes, same final state, same simulated time."""
        runs = {}
        for workers in (1, 4):
            eng = create_engine("obladi", _config(proxy_workers=workers))
            eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
            stats = eng.run_closed_loop(mixed_source(seed=11), 24, clients=8)
            state = tuple(eng.read(f"k{i}") for i in range(NUM_KEYS))
            runs[workers] = (stats.committed, stats.aborted, stats.elapsed_ms,
                             tuple(stats.latencies_ms), state)
        assert runs[1] == runs[4]

    def test_recover_preserves_worker_counters(self):
        eng = create_engine("obladi",
                            _config(proxy_workers=4).with_durability(True))
        eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        eng.submit(append_program("k1"))
        before = eng.counters().worker_ops
        assert sum(reads for reads, _ in before) > 0
        eng.crash()
        eng.recover()
        assert len(eng.proxy.workers) == 4
        assert eng.counters().worker_ops == before   # retired proxy's work kept
        eng.submit(append_program("k2"))
        after = eng.counters().worker_ops
        assert sum(reads for reads, _ in after) > sum(reads for reads, _ in before)


class TestOpenLoop:
    """The open-loop path must clear the same conformance bar as the closed
    loop on every engine and Obladi topology: consistent RunStats math,
    serializable histories, crash recovery mid-load, and the degeneracy
    invariant — at unbounded offered rate with one client the open loop *is*
    the closed loop."""

    TOTAL = 32
    RATE_TPS = 400.0

    @pytest.fixture(params=OPEN_LOOP_VARIANTS, ids=_variant_id)
    def open_engine(self, request) -> TransactionEngine:
        kind, shards, servers, workers, strategy = request.param
        eng = create_engine(kind, _config(shards, servers, workers, strategy))
        eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        return eng

    def test_open_loop_accounting(self, open_engine):
        run = open_engine.run_open_loop(
            mixed_source(seed=11), self.TOTAL,
            arrivals=PoissonArrivals(self.RATE_TPS, seed=7), clients=8)
        assert isinstance(run, RunStats)
        assert run.engine == open_engine.name
        assert run.offered == self.TOTAL
        assert run.dropped == 0                      # unbounded queue
        assert run.committed > 0
        # Dropped arrivals never execute; every admitted attempt resolves
        # exactly once and every retry adds exactly one attempt.
        assert run.committed + run.aborted == \
            (run.offered - run.dropped) + run.retries
        assert len(run.results) == run.committed + run.aborted
        assert len(run.latencies_ms) == run.committed
        assert len(run.queue_delays_ms) == run.committed
        assert all(delay >= 0.0 for delay in run.queue_delays_ms)
        assert run.max_queue_depth >= 1
        assert run.elapsed_ms > 0
        assert run.offered_tps > 0
        assert run.achieved_tps == pytest.approx(run.throughput_tps)
        # Queue-inclusive latency dominates service latency, sample-wise.
        totals = run.total_latencies_ms
        assert len(totals) == run.committed
        assert all(total == pytest.approx(queue + service)
                   for total, queue, service
                   in zip(totals, run.queue_delays_ms, run.latencies_ms))
        assert run.p50_total_latency_ms <= run.p95_total_latency_ms

    def test_open_loop_history_is_serializable(self, open_engine):
        run = open_engine.run_open_loop(
            mixed_source(seed=5), self.TOTAL,
            arrivals=PoissonArrivals(self.RATE_TPS, seed=3), clients=8)
        assert len(open_engine.committed_history) == run.committed
        ok, cycle = check_serializable(open_engine.committed_history)
        assert ok, f"{open_engine.name}: non-serializable open-loop history: {cycle}"
        total_appends = sum(len(open_engine.read(f"k{i}")) - 1 for i in range(6))
        assert total_appends == run.committed

    def test_unbounded_single_client_open_loop_is_the_closed_loop(self, request):
        """The degeneracy invariant: arrivals=None (everything offered at
        the start) with one client produces the closed loop's schedule —
        identical outcomes, latencies and simulated timing."""
        for kind, shards, servers, workers, strategy in OPEN_LOOP_VARIANTS:
            closed_eng = create_engine(kind,
                                       _config(shards, servers, workers, strategy))
            closed_eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
            closed = closed_eng.run_closed_loop(mixed_source(seed=11), 16,
                                                clients=1, max_retries=2)
            open_eng = create_engine(kind,
                                     _config(shards, servers, workers, strategy))
            open_eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
            opened = open_eng.run_open_loop(mixed_source(seed=11), 16,
                                            arrivals=None, clients=1,
                                            max_retries=2)
            label = _variant_id((kind, shards, servers, workers, strategy))
            assert (closed.committed, closed.aborted, closed.retries) == \
                (opened.committed, opened.aborted, opened.retries), label
            assert closed.elapsed_ms == opened.elapsed_ms, label
            assert closed.latencies_ms == opened.latencies_ms, label
            assert closed.epochs == opened.epochs, label
            state_closed = [closed_eng.read(f"k{i}") for i in range(NUM_KEYS)]
            state_open = [open_eng.read(f"k{i}") for i in range(NUM_KEYS)]
            assert state_closed == state_open, label

    def test_bounded_queue_drops_are_accounted(self, open_engine):
        run = open_engine.run_open_loop(mixed_source(seed=9), self.TOTAL,
                                        arrivals=None, clients=4,
                                        queue_limit=8)
        assert run.offered == self.TOTAL
        assert run.dropped == self.TOTAL - 8         # everything arrives at once
        assert run.max_queue_depth == 8
        assert run.committed + run.aborted == \
            (run.offered - run.dropped) + run.retries

    @pytest.mark.parametrize("shards,servers,workers,strategy", OBLADI_TOPOLOGIES)
    def test_obladi_crash_recover_mid_open_loop(self, shards, servers, workers,
                                                strategy):
        """Crash with offered load still queued, recover, keep offering:
        lifetime stats accumulate across the incarnations and the combined
        history stays serializable."""
        eng = create_engine("obladi", _config(shards, servers, workers,
                                              strategy).with_durability(True))
        eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        # max_waves cuts the first run short, leaving offered load unserved.
        first = eng.run_open_loop(mixed_source(seed=11), 24,
                                  arrivals=PoissonArrivals(800.0, seed=5),
                                  clients=4, max_waves=2)
        assert first.epochs == 2
        assert first.committed > 0
        eng.crash()
        eng.recover()
        second = eng.run_open_loop(mixed_source(seed=12), 16,
                                   arrivals=PoissonArrivals(800.0, seed=6),
                                   clients=4)
        assert second.committed > 0
        totals = eng.stats()
        assert totals.committed == first.committed + second.committed
        ok, cycle = check_serializable(eng.committed_history)
        assert ok, cycle


class TestAuditing:
    """Continuous auditing is part of the engine contract: on every engine
    and topology the streaming verdict must equal the offline checker's, the
    auditor must retain less than the full history, and attaching it must
    not perturb the run (byte-identical fixed-seed RunStats)."""

    TOTAL = 40

    def test_streaming_verdict_matches_offline_closed_loop(self, engine):
        auditor = engine.attach_observer(AuditingObserver(settle_lag=2))
        run = engine.run_closed_loop(mixed_source(seed=11), self.TOTAL,
                                     clients=8)
        report = run.audit
        assert report is not None
        offline_ok, offline_cycle = check_serializable(engine.committed_history)
        assert report.ok == offline_ok, offline_cycle
        assert report.ok, [v.detail for v in report.violations[:1]]
        assert report.txns_ingested == run.committed
        # Bounded retention: the auditor held a strict subset of the history.
        assert report.txns_settled > 0
        assert report.max_retained_nodes < report.txns_ingested

    def test_streaming_verdict_matches_offline_open_loop(self, engine):
        engine.attach_observer(AuditingObserver(settle_lag=2))
        run = engine.run_open_loop(mixed_source(seed=5), self.TOTAL,
                                   arrivals=PoissonArrivals(400.0, seed=3),
                                   clients=8)
        offline_ok, _ = check_serializable(engine.committed_history)
        assert run.audit.ok == offline_ok
        assert run.audit.txns_ingested == run.committed

    def test_attached_auditor_leaves_runstats_byte_identical(self, engine,
                                                             request):
        """Fixed seed, same variant, one run bare and one audited: the
        RunStats reprs must match byte for byte (the audit field is excluded
        from repr), proving no-observer runs are untouched by this seam."""
        variant = request.node.callspec.params["engine"]
        kind, shards, servers, workers, strategy = variant
        bare = engine.run_closed_loop(mixed_source(seed=11), self.TOTAL,
                                      clients=8)
        audited_engine = create_engine(kind, _config(shards, servers, workers,
                                                     strategy))
        audited_engine.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        audited_engine.attach_observer(AuditingObserver())
        audited = audited_engine.run_closed_loop(mixed_source(seed=11),
                                                 self.TOTAL, clients=8)
        assert bare.audit is None and audited.audit is not None
        assert repr(bare) == repr(audited)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_buggy_injections_caught_under_either_strategy(self, strategy):
        """Repair must not blunt the auditor: the ``buggy`` engine's
        injected serializability violations are flagged by both checkers
        whether the inner engine retries or repairs its conflict losers."""
        eng = BuggyEngine(create_engine("obladi", _config(strategy=strategy)),
                          period=3, seed=7)
        eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        eng.attach_observer(AuditingObserver(settle_lag=3))
        run = eng.run_closed_loop(mixed_source(seed=11), self.TOTAL, clients=8)
        assert eng.injected, "the fault injector found no victim"
        assert not run.audit.ok
        offline_ok, cycle = check_serializable(eng.committed_history)
        assert not offline_ok
        assert cycle is not None


#: (source, target) topology endpoints for the live-reshard conformance
#: tests: a data-moving scale-up, the symmetric scale-down, a pure
#: proxy-tier rebalance (no data moves, instant cutover), and a worker-only
#: change on the fully distributed layout.
RESHARD_ENDPOINTS = [
    ((1, 1, 1), (4, 2, 1)),
    ((4, 2, 1), (1, 1, 1)),
    ((1, 1, 1), (1, 1, 4)),
    ((4, 4, 1), (4, 4, 4)),
]

_RESHARD_IDS = ["{}.{}.{}-to-{}.{}.{}".format(*source, *target)
                for source, target in RESHARD_ENDPOINTS]


def read_program(key: str):
    """A read-only transaction; used to drain migration windows."""

    def program():
        value = yield Read(key)
        return value

    return program


class TestElasticReshard:
    """Live resharding is part of the engine contract: the capability is
    gated like crash/recover, a mid-run topology change must not disturb
    submission semantics, accounting, or serializability, and the migration
    *fence* (the cutover checkpoint) decides which side a crash recovers
    on — never both, never neither."""

    def _plan(self, target) -> ReshardPlan:
        shards, servers, workers = target
        return ReshardPlan(shards=shards, storage_servers=servers,
                           proxy_workers=workers)

    def _narrow_config(self, shards: int = 1, storage_servers: int = 1,
                       durability: bool = False) -> EngineConfig:
        """Batches of 8 keep a 24-key migration in flight for ~3 barriers."""
        config = (_config(shards, storage_servers)
                  .with_batching(read_batches=3, read_batch_size=8,
                                 write_batch_size=8))
        return config.with_durability(durability) if durability else config

    def _drain(self, eng, max_waves: int = 40) -> int:
        """Read-only waves until the in-flight migration cuts over."""
        committed = 0
        waves = 0
        while eng.reshard_in_flight and waves < max_waves:
            results = eng.submit_many([read_program("k0")])
            committed += sum(int(r.committed) for r in results)
            waves += 1
        assert not eng.reshard_in_flight, "migration never completed"
        return committed

    def _topology(self, eng):
        config = eng.proxy.config
        return (config.shards, config.storage_servers, config.proxy_workers)

    def test_capability_flag_gates_reshard(self, engine):
        if engine.name == "obladi":
            assert not engine.reshard_in_flight
            return  # exercised below for the engine that reshards
        with pytest.raises(EngineFeatureUnavailable):
            engine.reshard(self._plan((4, 1, 1)))
        assert not engine.reshard_in_flight

    def test_single_submits_cross_wave_boundaries(self):
        """``submit`` is a wave of one program: it starts a staged plan and
        steps the migration to its cutover exactly as ``submit_many`` does."""
        def topology_after(submit):
            eng = create_engine("obladi", self._narrow_config())
            eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
            eng.reshard(ReshardPlan(shards=2))
            for _ in range(40):
                submit(eng)
            assert not eng.reshard_in_flight
            return self._topology(eng)

        one = topology_after(lambda eng: eng.submit(read_program("k0")))
        many = topology_after(lambda eng: eng.submit_many([read_program("k0")]))
        assert one == many == (2, 1, 1)

    def test_second_reshard_while_in_flight_is_rejected(self):
        eng = create_engine("obladi", self._narrow_config())
        eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        eng.reshard(self._plan((4, 2, 1)))
        assert eng.reshard_in_flight
        with pytest.raises(ValueError):
            eng.reshard(self._plan((4, 4, 1)))

    @pytest.mark.parametrize("source,target", RESHARD_ENDPOINTS,
                             ids=_RESHARD_IDS)
    def test_mid_run_reshard_clears_the_conformance_bar(self, source, target):
        """A reshard injected between two closed-loop runs: the engine lands
        on the target topology, lifetime stats keep accumulating across the
        cutover, the combined history stays serializable, and committed
        effects survive the move byte for byte."""
        shards, servers, workers = source
        eng = create_engine("obladi", _config(shards, servers, workers))
        eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        before = eng.run_closed_loop(mixed_source(seed=11), 16, clients=4)
        eng.reshard(self._plan(target))
        after = eng.run_closed_loop(mixed_source(seed=13), 16, clients=4)
        drained = self._drain(eng)

        assert self._topology(eng) == target
        data_moved = (source[0], source[1]) != (target[0], target[1])
        assert eng.proxy.config.generation == (1 if data_moved else 0)
        totals = eng.stats()
        assert totals.committed == \
            before.committed + after.committed + drained
        assert len(totals.migrations) == (1 if data_moved else 0)
        assert len(eng.committed_history) == totals.committed
        ok, cycle = check_serializable(eng.committed_history)
        assert ok, f"resharded history has a serialization cycle: {cycle}"
        # mixed_source appends one byte per commit to one of six hot keys;
        # the migration must carry every appended byte into the new layout.
        total_appends = sum(len(eng.read(f"k{i}")) - 1 for i in range(6))
        assert total_appends == before.committed + after.committed
        for i in range(6, NUM_KEYS):
            assert eng.read(f"k{i}") == b"0"

    def test_single_tree_on_a_cluster_keeps_its_batch_boundaries(self):
        """A scale-down to one storage server leaves the tier a cluster.
        The single tree must address its host server, not the façade, so
        server 0 records the same batch boundaries per epoch as after a
        scale-down that never left one server."""

        def epoch_shape(source):
            eng = create_engine("obladi", self._narrow_config(*source[:2]))
            eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
            eng.reshard(self._plan((1, 1, 1)))
            self._drain(eng)
            host = getattr(eng.storage, "servers", [eng.storage])[0]
            host.trace.clear()
            eng.submit_many([read_program("k1")])
            return host.trace.batch_shape()

        on_a_cluster = epoch_shape((4, 2, 1))
        assert [kind for kind, _ in on_a_cluster] == ["read"] * 3 + ["write", "delete"]
        assert on_a_cluster == epoch_shape((4, 1, 1))

    def test_crash_during_migration_recovers_on_the_old_side(self):
        """The staged plan and half-copied target generation are volatile:
        a crash inside the migration window recovers the *retiring*
        topology, with no trace of the abandoned reshard."""
        eng = create_engine("obladi", self._narrow_config(durability=True))
        eng.load_initial_data({f"k{i}": str(i).encode() for i in range(NUM_KEYS)})
        eng.submit(append_program("k1"))
        eng.reshard(self._plan((4, 2, 1)))
        # The wave boundary starts the staged plan and runs one copy barrier.
        eng.submit_many([append_program("k2")])
        assert eng._migration is not None, "migration never started"
        assert eng.reshard_in_flight, "migration drained too fast to test"
        eng.crash()
        eng.recover()
        assert not eng.reshard_in_flight
        assert self._topology(eng) == (1, 1, 1)
        assert eng.proxy.config.generation == 0
        assert eng.stats().migrations == ()
        assert eng.read("k1") == b"1x"
        assert eng.read("k2") == b"2x"
        for i in range(3, NUM_KEYS):
            assert eng.read(f"k{i}") == str(i).encode()
        # The recovered engine reshards cleanly from scratch.
        eng.reshard(self._plan((4, 2, 1)))
        eng.submit_many([append_program("k3")])
        self._drain(eng)
        assert self._topology(eng) == (4, 2, 1)
        ok, cycle = check_serializable(eng.committed_history)
        assert ok, cycle

    def test_crash_after_cutover_recovers_on_the_new_side(self):
        """Past the fence — the cutover's full checkpoint — the durable
        chain reflects only the new generation: recovery rebuilds the
        *target* topology and every key read back from it."""
        eng = create_engine("obladi", self._narrow_config(durability=True))
        eng.load_initial_data({f"k{i}": str(i).encode() for i in range(NUM_KEYS)})
        eng.submit(append_program("k1"))
        eng.reshard(self._plan((4, 2, 1)))
        eng.submit_many([append_program("k2")])
        self._drain(eng)
        assert self._topology(eng) == (4, 2, 1)
        assert eng.proxy.config.generation == 1
        committed_before = eng.stats().committed
        eng.crash()
        eng.recover()
        # A crash loses in-flight state, not durable commits (reads commit
        # too, so the count is checked before the read-back sweep below).
        assert eng.stats().committed == committed_before
        assert self._topology(eng) == (4, 2, 1)
        assert eng.proxy.config.generation == 1
        assert eng.read("k1") == b"1x"
        assert eng.read("k2") == b"2x"
        for i in range(3, NUM_KEYS):
            assert eng.read(f"k{i}") == str(i).encode()
        eng.submit(append_program("k3"))
        assert eng.read("k3") == b"3x"
        assert len(eng.stats().migrations) == 1
        ok, cycle = check_serializable(eng.committed_history)
        assert ok, cycle

    def test_open_loop_accounting_identity_holds_across_reshard(self):
        """Offered load, drops, retries, and attempts reconcile exactly even
        when the serving topology changes mid-run, and the streaming auditor
        rides the whole window."""
        eng = create_engine("obladi", self._narrow_config())
        eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        eng.attach_observer(AuditingObserver(settle_lag=2))
        eng.reshard(self._plan((4, 2, 1)))        # begins at the first wave
        run = eng.run_open_loop(mixed_source(seed=9), 24, arrivals=None,
                                clients=4, queue_limit=16)
        assert run.offered == 24
        assert run.dropped == 24 - 16             # everything arrives at once
        assert run.committed + run.aborted == \
            (run.offered - run.dropped) + run.retries
        assert len(run.results) == run.committed + run.aborted
        assert run.audit is not None and run.audit.ok
        self._drain(eng)
        assert self._topology(eng) == (4, 2, 1)
        assert len(eng.stats().migrations) == 1
        ok, cycle = check_serializable(eng.committed_history)
        assert ok, cycle


class TestElasticSeamRegression:
    """The elasticity seam is strictly pay-for-what-you-use: engines that
    never call ``reshard()`` must produce RunStats byte-identical to the
    pre-elasticity ones — the new field stays empty, out of repr, and out of
    the run's behaviour."""

    def test_static_runs_carry_no_elasticity_state(self, engine, request):
        """Every engine variant, fixed seed: no migrations, the field not in
        the repr — and the run is reproducible byte for byte by a fresh
        identically-configured engine."""
        variant = request.node.callspec.params["engine"]
        kind, shards, servers, workers, strategy = variant
        run = engine.run_closed_loop(mixed_source(seed=11), 24, clients=8)
        assert run.migrations == ()
        assert "migrations" not in repr(run)
        twin = create_engine(kind, _config(shards, servers, workers, strategy))
        twin.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        rerun = twin.run_closed_loop(mixed_source(seed=11), 24, clients=8)
        assert repr(run) == repr(rerun)


#: The ledger test's variants: both baselines and every Obladi topology,
#: each under both conflict strategies.
LEDGER_VARIANTS = [(kind, 1, 1, 1, strategy) for kind in ("nopriv", "mysql")
                   for strategy in STRATEGIES] + \
    [("obladi",) + topology for topology in OBLADI_TOPOLOGIES]


class LedgerCheck(EngineObserver):
    """After every wave, the ledger's history holds one entry per commit."""

    def __init__(self) -> None:
        self.waves = 0

    def on_wave(self, engine, results) -> None:
        self.waves += 1
        assert len(engine.committed_history) == engine.stats().committed


class TestLedger:
    """``engine.stats()`` is a fold of the results the engine delivered and
    ``engine.committed_history`` is the same ledger's transactions: across
    runs, a crash and recovery, and a reshard cutover, the outcome counts
    are the sum of the runs' ``RunStats`` and the history has one entry per
    commit after every wave — nothing is lost and nothing counted twice."""

    @staticmethod
    def _runs(variant, observer=None):
        """Closed-loop runs before and after a crash/recover and a reshard
        cutover (Obladi only); returns the engine and every run's
        ``RunStats``."""
        kind, shards, servers, workers, strategy = variant
        config = (_config(shards, servers, workers, strategy)
                  .with_batching(read_batches=3, read_batch_size=8, write_batch_size=8)
                  .with_durability(kind == "obladi"))
        eng = create_engine(kind, config)
        eng.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        if observer is not None:
            eng.attach_observer(observer)
        runs = [eng.run_closed_loop(mixed_source(seed=11), 24, clients=6)]
        if eng.supports_crash_recovery:
            eng.crash()
            eng.recover()
        runs.append(eng.run_closed_loop(mixed_source(seed=13), 24, clients=6))
        if eng.name == "obladi":
            eng.reshard(ReshardPlan(shards=2, storage_servers=1, proxy_workers=1))
            while eng.reshard_in_flight:
                runs.append(eng.run_closed_loop(mixed_source(seed=len(runs)), 8,
                                                clients=4))
            assert eng.proxy.config.shards == 2
            runs.append(eng.run_closed_loop(mixed_source(seed=17), 8, clients=4))
        return eng, runs

    @pytest.mark.parametrize("variant", LEDGER_VARIANTS, ids=_variant_id)
    def test_stats_is_the_fold_of_every_run(self, variant):
        eng, runs = self._runs(variant)
        stats = eng.stats()
        assert stats.committed == sum(run.committed for run in runs) > 0
        assert stats.aborted == sum(run.aborted for run in runs)
        assert stats.latencies_ms == [ms for run in runs for ms in run.latencies_ms]
        assert stats.results == [result for run in runs for result in run.results]
        assert stats.repaired == sum(run.repaired for run in runs)
        assert stats.repair_failed == sum(run.repair_failed for run in runs)
        assert stats.wasted_attempts == sum(run.wasted_attempts for run in runs)
        assert stats.aborts_by_reason == dict(sum(
            (Counter(run.aborts_by_reason) for run in runs), Counter()))
        assert stats.epochs == sum(run.epochs for run in runs)
        assert stats.committed == len(eng.committed_history)
        if eng.name != "obladi":
            return
        # The hot keys conflict: every variant has losers to account for.
        strategy = variant[-1]
        assert stats.aborted + stats.repaired > 0
        assert (stats.repaired > 0) == (strategy == "repair")

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_history_matches_the_commits_after_every_wave(self, kind):
        check = LedgerCheck()
        eng, _ = self._runs((kind, 1, 1, 1, "retry"), check)
        assert check.waves == eng.stats().epochs > 0
        assert sorted(txn.txn_id for txn in eng.committed_history) == \
            sorted(result.txn_id for result in eng.stats().results if result.committed)
