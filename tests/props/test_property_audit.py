"""Property-based tests for the streaming serializability auditor.

The core property: on any history a real engine produces — any seed, any
arrival process, any shards x proxy_workers topology, with or without a
crash/recover in the middle (exercising the ``fast_forward`` timestamp
hand-off) — the streaming auditor's verdict equals the offline
``check_serializable`` verdict, while retaining only a bounded window of
the history.  And on corrupted histories (a real engine wrapped in the
``BuggyEngine`` fixture of ``tests/buggy_engine.py``) both checkers must
reject, with every cycle the auditor reports being a genuine cycle of the
offline DSG.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, PoissonArrivals, create_engine
from repro.audit import AuditingObserver
from repro.concurrency import check_serializable
from repro.concurrency.serializability import build_serialization_graph
from repro.core.client import Read, Write
from tests.buggy_engine import BuggyEngine

NUM_KEYS = 16

#: The shards x proxy_workers grid every property sweeps.
TOPOLOGIES = [(1, 1), (1, 4), (4, 1), (4, 4)]


def build_engine(seed, shards=1, workers=1, durability=False):
    config = (EngineConfig()
              .with_oram(num_blocks=256, z_real=4, block_size=96)
              .with_batching(read_batches=3, read_batch_size=8,
                             write_batch_size=8)
              .with_sharding(shards)
              .with_proxy_workers(workers)
              .with_backend("dummy")
              .with_durability(durability)
              .with_encryption(False)
              .with_seed(seed))
    engine = create_engine("obladi", config)
    engine.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
    return engine


def rmw_source(workload_seed, hot_keys=6):
    rng = random.Random(workload_seed)

    def source():
        src, dst = rng.randrange(hot_keys), rng.randrange(hot_keys)

        def factory():
            def program():
                value = yield Read(f"k{src}")
                yield Write(f"k{dst}", (value or b"")[:4] + b"!")
                return value
            return program()

        return factory

    return source


class TestStreamingMatchesOffline:
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**16), st.integers(0, 2**16))
    def test_verdict_matches_offline_across_topologies(self, seed, arrival_seed):
        for shards, workers in TOPOLOGIES:
            engine = build_engine(seed, shards, workers)
            auditor = engine.attach_observer(AuditingObserver(settle_lag=2))
            stats = engine.run_open_loop(
                rmw_source(seed), 24,
                arrivals=PoissonArrivals(600.0, seed=arrival_seed), clients=6)
            report = stats.audit
            offline_ok, offline_cycle = check_serializable(
                engine.committed_history)
            label = f"shards={shards} workers={workers}"
            assert report.ok == offline_ok, (label, offline_cycle)
            assert report.txns_ingested == len(engine.committed_history), label
            assert report.max_retained_nodes <= report.txns_ingested, label

    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**16))
    def test_verdict_matches_offline_across_crash_recover(self, seed):
        """Histories spanning a proxy crash: ``fast_forward`` keeps the
        recovered incarnation's timestamps extending the old order, so the
        combined lifetime history must audit clean — streaming and offline
        agreeing — on every topology."""
        for shards, workers in TOPOLOGIES:
            engine = build_engine(seed, shards, workers, durability=True)
            auditor = engine.attach_observer(AuditingObserver(settle_lag=2))
            first = engine.run_open_loop(
                rmw_source(seed), 16,
                arrivals=PoissonArrivals(800.0, seed=seed), clients=4,
                max_waves=2)
            engine.crash()
            engine.recover()
            second = engine.run_open_loop(
                rmw_source(seed + 1), 12,
                arrivals=PoissonArrivals(800.0, seed=seed + 1), clients=4)
            report = second.audit
            offline_ok, offline_cycle = check_serializable(
                engine.committed_history)
            label = f"shards={shards} workers={workers}"
            assert offline_ok, (label, offline_cycle)
            assert report.ok, (label, report.violations[:1])
            assert report.txns_ingested == len(engine.committed_history) \
                == first.committed + second.committed, label

    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**16))
    def test_retained_window_stays_bounded_on_long_runs(self, seed):
        """A multi-epoch open-loop run must not accumulate the whole history
        in the auditor: the high-water mark stays a small multiple of the
        wave size times the settle lag, far below the committed total."""
        engine = build_engine(seed)
        auditor = engine.attach_observer(AuditingObserver(settle_lag=2))
        stats = engine.run_open_loop(
            rmw_source(seed, hot_keys=NUM_KEYS), 120,
            arrivals=PoissonArrivals(2000.0, seed=seed), clients=8)
        report = stats.audit
        assert report.ok
        assert report.txns_ingested == stats.committed
        wave_cap = engine.open_loop_wave_limit()
        window = (auditor.graph.settle_lag + 1) * wave_cap
        assert report.max_retained_nodes <= window
        assert report.max_retained_nodes < report.txns_ingested / 2
        assert report.txns_settled > report.txns_ingested / 2

    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**16), st.sampled_from(TOPOLOGIES))
    def test_corrupted_histories_rejected_by_both_checkers(self, seed, topology):
        shards, workers = topology
        engine = BuggyEngine(build_engine(seed, shards, workers),
                             period=3, seed=seed)
        auditor = engine.attach_observer(AuditingObserver(settle_lag=3))
        stats = engine.run_closed_loop(rmw_source(seed), 36, clients=6)
        if not engine.injected:      # rare: no eligible victim arose
            assert stats.audit.ok
            return
        assert not stats.audit.ok
        offline = build_serialization_graph(engine.committed_history)
        assert offline.find_cycle() is not None
        # Any cycle the auditor reports is a genuine offline cycle.
        for violation in stats.audit.violations:
            if violation.cycle:
                for src, dst in zip(violation.cycle,
                                    violation.cycle[1:] + violation.cycle[:1]):
                    assert dst in offline.edges[src]
