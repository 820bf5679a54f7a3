"""Unit tests for the proxy's concurrency-control lanes (``repro.proxytier``)."""

import pytest

from repro.api import EngineConfig, ObladiEngine, create_engine
from repro.concurrency.mvtso import MVTSOManager
from repro.concurrency.transaction import AbortReason
from repro.concurrency.versions import VersionStore
from repro.core.client import Read, ReadMany, Write
from repro.core.config import ObladiConfig, RingOramConfig
from repro.core.proxy import ObladiProxy
from repro.core.version_cache import VersionCache
from repro.elasticity import ReshardPlan
from repro.proxytier import BarrierStats, ProxyWorker
from repro.sharding import key_partition
from repro.sim.latency import CpuCostModel
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload


def make_config(workers=4, cc_op_ms=0.0, **overrides):
    defaults = dict(
        oram=RingOramConfig(num_blocks=256, z_real=4, block_size=96),
        read_batches=3, read_batch_size=16, write_batch_size=16,
        backend="dummy", durability=False, seed=5, encrypt=False,
        proxy_workers=workers, cost_model=CpuCostModel(cc_op_ms=cc_op_ms),
    )
    defaults.update(overrides)
    return ObladiConfig(**defaults)


def lane_manager(count=4):
    """An MVTSO manager over ``count`` fresh lanes, routed as the proxy routes."""
    workers = [ProxyWorker(i) for i in range(count)]
    return workers, MVTSOManager(workers, lambda key: key_partition(key, count))


class TestLanes:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_one_proxy_has_one_lane_per_worker(self, workers):
        proxy = ObladiProxy(make_config(workers=workers))
        assert [worker.index for worker in proxy.workers] == list(range(workers))
        assert type(proxy.mvtso) is MVTSOManager
        assert proxy.mvtso.workers == proxy.workers
        assert proxy.worker_op_totals() == [(0, 0)] * workers

    def test_routing_reuses_the_sharding_partition_map(self):
        proxy = ObladiProxy(make_config(workers=4))
        single = ObladiProxy(make_config(workers=1))
        for key in ("a", "account:17", "zz"):
            assert proxy.worker_of(key) == key_partition(key, 4)
            assert single.worker_of(key) == key_partition(key, 1) == 0

    def test_a_manager_without_lanes_has_one(self):
        manager = MVTSOManager()
        txn = manager.begin(epoch=0)
        manager.write(txn, "k1", b"v")
        manager.read(txn, "k1")
        [lane] = manager.workers
        assert (lane.stats_reads, lane.stats_writes) == (1, 1)
        assert manager.take_lane_ops() == [2]
        assert manager.take_lane_ops() == [0]


class TestShardedState:
    def test_operations_count_on_the_owning_worker_only(self):
        workers, manager = lane_manager()
        writer = manager.begin(epoch=0)
        manager.write(writer, "k1", b"v")
        reader = manager.begin(epoch=0)
        manager.read(reader, "k1")
        owner = key_partition("k1", 4)
        for index, worker in enumerate(workers):
            mine = index == owner
            assert worker.stats_writes == (1 if mine else 0)
            assert worker.stats_reads == (1 if mine else 0)
            assert worker.txn_touched == ({writer.txn_id, reader.txn_id}
                                          if mine else set())

    def test_dependency_fragment_lands_on_the_owning_worker(self):
        workers, manager = lane_manager()
        writer = manager.begin(epoch=0)
        manager.write(writer, "k1", b"v")
        reader = manager.begin(epoch=0)
        value, _writer = manager.read(reader, "k1")
        assert value == b"v"
        owner = key_partition("k1", 4)
        for index, worker in enumerate(workers):
            expected = {reader.txn_id: {writer.txn_id}} if index == owner else {}
            assert worker.txn_deps == expected

    def test_lanes_share_one_store_and_one_cache(self):
        proxy = ObladiProxy(make_config(workers=4, shards=2))
        assert type(proxy.mvtso.store) is VersionStore
        assert type(proxy.data_layer.cache) is VersionCache
        assert len(proxy.data_layer.partitions) == 2
        for part in proxy.data_layer.partitions:
            assert part.handler.cache is proxy.data_layer.cache


class TestWorkerCutover:
    """A pure ``proxy_workers`` reshard hands the data layer, and with it
    the one epoch cache, to the new proxy untouched."""

    @pytest.mark.parametrize("source,target", [(1, 4), (4, 1)])
    def test_cutover_keeps_the_layer_and_its_one_cache(self, source, target):
        config = (EngineConfig()
                  .with_oram(num_blocks=256, z_real=4, block_size=96)
                  .with_batching(read_batches=3, read_batch_size=8,
                                 write_batch_size=8)
                  .with_proxy_workers(source)
                  .with_backend("dummy")
                  .with_durability(False)
                  .with_encryption(False)
                  .with_seed(11))
        engine = create_engine("obladi", config)
        engine.load_initial_data({f"k{i}": b"0" for i in range(16)})

        def writer():
            yield Write("k3", b"before")
            return True

        def reader():
            value = yield Read("k3")
            return value

        assert engine.submit_many([writer])[0].committed
        layer = engine.proxy.data_layer
        engine.reshard(ReshardPlan(proxy_workers=target))
        result = engine.submit_many([reader])[0]
        assert not engine.reshard_in_flight
        assert result.committed and result.return_value == b"before"
        assert engine.proxy.config.proxy_workers == target
        assert len(engine.proxy.workers) == target
        assert engine.proxy.data_layer is layer
        for part in layer.partitions:
            assert part.handler.cache is layer.cache


class TestEpochBarrier:
    def test_unanimous_votes_commit(self):
        workers, manager = lane_manager()
        writer = manager.begin(epoch=0)
        manager.write(writer, "k1", b"v")
        reader = manager.begin(epoch=0)
        manager.read(reader, "k1")
        writer.request_commit()
        reader.request_commit()
        decisions = manager.prepare_epoch([writer, reader])
        assert decisions[writer.txn_id] and decisions[reader.txn_id]
        assert manager.barrier_stats.transactions_voted == 2
        assert manager.barrier_stats.abort_votes == 0
        assert manager.can_commit(writer) and manager.can_commit(reader)

    def test_participant_veto_blocks_commit(self):
        """A worker holding an aborted dependency votes abort, and the
        unanimous barrier turns that single veto into a global refusal."""
        workers, manager = lane_manager()
        writer = manager.begin(epoch=0)
        manager.write(writer, "k1", b"v")
        reader = manager.begin(epoch=0)
        manager.read(reader, "k1")          # dependency on the writer
        reader.request_commit()
        # Abort the writer *without* the manager's cascade, as the
        # write-batch shedding path can: the barrier must catch it.
        writer.mark_aborted(AbortReason.BATCH_FULL)
        decisions = manager.prepare_epoch([reader])
        assert decisions[reader.txn_id] is False
        assert manager.barrier_stats.vetoed == 1
        assert manager.barrier_stats.abort_votes >= 1
        assert not manager.can_commit(reader)

    def test_one_lane_casts_no_vote(self):
        """One lane's vote would be the commit check itself: the barrier
        votes nowhere, counts nothing and charges no vote op, and the
        commit check still refuses an aborted dependency."""
        workers, manager = lane_manager(count=1)
        writer = manager.begin(epoch=0)
        manager.write(writer, "k1", b"v")
        reader = manager.begin(epoch=0)
        manager.read(reader, "k1")
        reader.request_commit()
        writer.mark_aborted(AbortReason.BATCH_FULL)
        assert manager.prepare_epoch([reader]) == {}
        assert manager.barrier_stats == BarrierStats()
        assert workers[0].stats_votes == 0
        assert manager.take_lane_ops() == [2]
        assert not manager.can_commit(reader)

    def test_only_participants_vote(self):
        workers, manager = lane_manager()
        txn = manager.begin(epoch=0)
        manager.write(txn, "k1", b"v")
        txn.request_commit()
        manager.prepare_epoch([txn])
        owner = key_partition("k1", 4)
        for index, worker in enumerate(workers):
            assert worker.stats_votes == (1 if index == owner else 0)

    def test_the_proxy_reports_its_managers_votes(self):
        proxy = ObladiProxy(make_config(workers=4))
        proxy.load_initial_data({f"k{i}": b"0" for i in range(8)})

        def program(key):
            def run():
                value = yield Read(key)
                yield Write(key, value + b"x")
            return run

        for key in ("k1", "k2", "k5"):
            proxy.submit(program(key))
        proxy.run_epoch()
        stats = proxy.barrier_stats
        assert stats is proxy.mvtso.barrier_stats
        assert (stats.epochs, stats.transactions_voted, stats.vetoed, stats.abort_votes) == \
            (1, 3, 0, 0)
        assert stats.commit_votes == sum(worker.stats_votes for worker in proxy.workers) >= 3

    def test_the_repair_pass_counts_no_second_barrier_epoch(self):
        """Repaired records go through the barrier a second time in the same
        epoch; ``epochs`` counts the epoch once (the repair pass used to add
        one: 11 barrier epochs for these 7)."""
        workload = SmallBankWorkload(SmallBankConfig(num_accounts=20, seed=17))
        engine = create_engine("obladi", make_config(seed=17, conflict_strategy="repair"))
        engine.load_initial_data(workload.initial_data())
        stats = engine.run_closed_loop(workload.transaction_factory, 64, clients=32,
                                       max_retries=3)
        assert stats.repaired > 0
        assert engine.proxy.barrier_stats.epochs == stats.epochs == 7

    def test_reset_clears_votes_and_worker_state(self):
        workers, manager = lane_manager()
        txn = manager.begin(epoch=0)
        manager.write(txn, "k1", b"v")
        txn.request_commit()
        manager.prepare_epoch([txn])
        manager.reset_epoch_state()
        assert manager._vote_memo == {}
        assert manager.store.get_chain("k1") is None
        for worker in workers:
            assert worker.txn_deps == {} and worker.txn_touched == set()


class TestWorkerLaneCpu:
    def run_epochs(self, proxy, epochs=4):
        """Run ``epochs`` contended epochs; returns the proxy and their results."""
        proxy.load_initial_data({f"k{i}": b"0" for i in range(32)})
        results = []
        for epoch in range(epochs):
            for offset in range(8):
                key_a, key_b = f"k{(epoch * 7 + offset) % 32}", f"k{offset}"

                def program(key_a=key_a, key_b=key_b):
                    values = yield ReadMany([key_a, key_b])
                    yield Write(key_a, (values[key_a] or b"") + b"+")
                    return True

                proxy.submit(program)
            results += proxy.run_epoch()
        return proxy, results

    def test_unpriced_cc_never_touches_the_clock(self):
        single, _ = self.run_epochs(ObladiProxy(make_config(workers=1)))
        sharded, _ = self.run_epochs(ObladiProxy(make_config(workers=4)))
        assert sharded.clock.now_ms == single.clock.now_ms
        assert sharded.cc_cpu_ms == 0.0
        assert sharded.lane_stats.calls == 0

    def test_priced_cc_charges_parallel_lanes(self):
        # A proxy-CPU-bound shape: the batch interval is too small to absorb
        # the CC work, so the serial-vs-lanes difference reaches the clock
        # (with roomy intervals both are absorbed and only cc_cpu_ms moves).
        single, single_results = self.run_epochs(ObladiProxy(
            make_config(workers=1, cc_op_ms=0.05, batch_interval_ms=0.25)))
        sharded, sharded_results = self.run_epochs(ObladiProxy(
            make_config(workers=4, cc_op_ms=0.05, batch_interval_ms=0.25)))
        # Identical transaction outcomes either way...
        assert [(r.txn_id, r.committed, r.abort_reason) for r in sharded_results] == \
            [(r.txn_id, r.committed, r.abort_reason) for r in single_results]
        # ...but the sharded tier charges the lanes' makespan, which beats
        # the single proxy's serial charge whenever work is spread out.
        assert 0 < sharded.cc_cpu_ms < single.cc_cpu_ms
        assert sharded.clock.now_ms < single.clock.now_ms
        assert sharded.lane_stats.speedup > 1.0
        assert sharded.lane_stats.actual_ms <= sharded.lane_stats.serial_ms
        # The serial bound is every worker's operations, votes included.
        totals = sharded.worker_op_totals()
        assert sum(1 for reads, writes in totals if reads + writes) > 1
        votes = sum(worker.stats_votes for worker in sharded.workers)
        assert (sum(reads + writes for reads, writes in totals) + votes) * 0.05 \
            == pytest.approx(sharded.lane_stats.serial_ms)

    def test_priced_single_proxy_is_one_lane(self):
        single, _ = self.run_epochs(ObladiProxy(
            make_config(workers=1, cc_op_ms=0.05, batch_interval_ms=0.25)))
        lanes = single.lane_stats
        assert lanes.calls > 0 and lanes.staggered == 0
        assert lanes.serial_ms == lanes.actual_ms == lanes.ideal_ms == single.cc_cpu_ms
        assert lanes.speedup == 1.0
        # Every charged op is a chain read or write: one lane casts no vote.
        [(reads, writes)] = single.worker_op_totals()
        assert (reads + writes) * 0.05 == pytest.approx(lanes.serial_ms)
        assert single.workers[0].stats_votes == 0

    def test_priced_single_lane_reports_no_breakdown(self):
        """A priced engine run on one lane: the barrier stays all zero and
        ``worker_ops`` is empty (no breakdown), as for the unpriced run."""
        workload = SmallBankWorkload(SmallBankConfig(num_accounts=20, seed=17))
        engine = create_engine("obladi", make_config(
            workers=1, seed=17, cc_op_ms=0.05, batch_interval_ms=0.25))
        engine.load_initial_data(workload.initial_data())
        stats = engine.run_closed_loop(workload.transaction_factory, 32, clients=8)
        assert stats.committed > 0 and stats.cpu_ms > 0
        assert stats.worker_ops == []
        assert engine.proxy.barrier_stats == BarrierStats()


class TestCrashRecovery:
    def test_recovery_keeps_the_lane_count(self):
        config = make_config(workers=4, durability=True, backend="server")
        proxy = ObladiProxy(config)
        proxy.load_initial_data({f"k{i}": b"0" for i in range(16)})

        def program():
            value = yield Read("k3")
            yield Write("k3", (value or b"") + b"x")
            return value

        proxy.submit(program)
        proxy.run_epoch()
        proxy.crash()
        from repro.recovery.manager import recover_proxy
        recovered, report = recover_proxy(
            proxy.storage, config, master_key=proxy.master_key,
            committed_epoch=proxy.recovery.checkpoints.committed_epoch)
        assert len(recovered.workers) == 4
        assert recovered.mvtso.workers == recovered.workers
        assert ObladiEngine(recovered).read("k3") == b"0x"
