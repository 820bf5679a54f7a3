"""The closed loop over a real workload, on an engine wrapping a pre-built
proxy and on a baseline engine built directly."""

import pytest

from repro.api import NoPrivEngine, ObladiEngine, RunStats
from repro.core.config import ObladiConfig, RingOramConfig
from repro.core.proxy import ObladiProxy
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload


@pytest.fixture
def smallbank():
    return SmallBankWorkload(SmallBankConfig(num_accounts=60, seed=5))


def obladi_engine(workload, **overrides):
    config = ObladiConfig(
        oram=RingOramConfig(num_blocks=512, z_real=8, block_size=192),
        read_batches=3, read_batch_size=24, write_batch_size=24,
        backend="server", durability=False, seed=2, **overrides)
    proxy = ObladiProxy(config)
    proxy.load_initial_data(workload.initial_data())
    return ObladiEngine(proxy)


@pytest.fixture
def obladi(smallbank):
    return obladi_engine(smallbank)


@pytest.fixture
def nopriv(smallbank):
    engine = NoPrivEngine(backend="server")
    engine.load_initial_data(smallbank.initial_data())
    return engine


class TestRunReportsTopologyStats:
    """A closed-loop run's own ``RunStats`` (not just the engine's lifetime
    totals) carries the per-server and per-partition breakdowns."""

    def test_obladi_run_reports_per_server_stats(self, smallbank):
        engine = obladi_engine(smallbank, encrypt=False, shards=4,
                               storage_servers=4)
        run = engine.run_closed_loop(smallbank.transaction_factory,
                                     total_transactions=12, clients=4)
        assert len(run.server_physical) == 4
        assert len(run.partition_physical) == 4
        # One homogeneous server per partition and no durability traffic:
        # each server observed exactly its partition's reads.
        for (server_reads, _), (part_reads, _) in zip(run.server_physical,
                                                      run.partition_physical):
            assert server_reads == part_reads
        assert sum(r for r, _ in run.server_physical) > 0

    def test_obladi_run_reports_single_server_for_colocated(self, smallbank):
        engine = obladi_engine(smallbank, encrypt=False, shards=4,
                               storage_servers=1)
        run = engine.run_closed_loop(smallbank.transaction_factory,
                                     total_transactions=12, clients=4)
        assert len(run.server_physical) == 1
        assert run.server_physical[0][0] == run.physical_reads

    def test_baseline_run_reports_server_stats(self, smallbank, nopriv):
        run = nopriv.run_closed_loop(smallbank.transaction_factory,
                                     total_transactions=12, clients=4)
        assert len(run.server_physical) == 1
        assert run.server_physical[0] == (run.physical_reads, run.physical_writes)


class TestObladiClosedLoop:
    def test_closed_loop_commits_requested_transactions(self, obladi, smallbank):
        run = obladi.run_closed_loop(smallbank.transaction_factory,
                                     total_transactions=24, clients=6)
        assert run.committed + run.aborted >= 24
        assert run.committed > 0
        assert run.epochs >= 4
        assert run.elapsed_ms > 0
        assert run.throughput_tps > 0

    def test_latencies_collected_for_committed(self, obladi, smallbank):
        run = obladi.run_closed_loop(smallbank.transaction_factory,
                                     total_transactions=12, clients=4)
        assert len(run.latencies_ms) == run.committed
        assert run.average_latency_ms > 0

    def test_physical_work_recorded(self, obladi, smallbank):
        run = obladi.run_closed_loop(smallbank.transaction_factory,
                                     total_transactions=12, clients=4)
        assert run.physical_reads > 0
        assert run.physical_writes > 0


class TestBaselineClosedLoop:
    def test_baseline_closed_loop(self, smallbank, nopriv):
        run = nopriv.run_closed_loop(smallbank.transaction_factory,
                                     total_transactions=30, clients=6)
        assert run.engine == "nopriv"
        assert run.committed > 0
        assert run.elapsed_ms > 0

    def test_workload_transaction_factory_is_a_factory_source(self, smallbank):
        program = smallbank.transaction_factory()()
        assert hasattr(program, "send")


class TestRunStatsMetrics:
    def test_zero_division_guards(self):
        run = RunStats(engine="x")
        assert run.throughput_tps == 0.0
        assert run.average_latency_ms == 0.0
        assert run.abort_rate == 0.0

    def test_abort_rate(self):
        run = RunStats(engine="x", committed=8, aborted=2)
        assert run.abort_rate == pytest.approx(0.2)
