"""Tests for the Obladi proxy: transactions, epochs, batching, commits.

Clients reach the proxy through :class:`repro.api.ObladiEngine`; tests of the
epoch executor itself queue programs with ``proxy.submit`` and run
``proxy.run_epoch`` directly.
"""

from dataclasses import replace

import pytest

from repro.api import ObladiEngine, create_engine
from repro.concurrency.serializability import check_serializable
from repro.core.client import AbortRequest, Read, ReadMany, Write
from repro.core.config import ObladiConfig, RingOramConfig
from repro.core.errors import ProxyCrashedError
from repro.core.proxy import ObladiProxy
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload

from tests.conftest import read_program, read_write_program, write_program


@pytest.fixture
def engine(proxy):
    return ObladiEngine(proxy)


class TestBasicTransactions:
    def test_read_initial_data(self, engine):
        result = engine.submit(read_program("k3"))
        assert result.committed
        assert result.return_value == b"value-3"

    def test_read_unknown_key_returns_none(self, engine):
        result = engine.submit(read_program("missing"))
        assert result.committed
        assert result.return_value is None

    def test_write_is_visible_to_later_epochs(self, engine):
        engine.submit(write_program("k1", b"updated"))
        result = engine.submit(read_program("k1"))
        assert result.return_value == b"updated"

    def test_read_many_returns_dict(self, engine):
        def program():
            values = yield ReadMany(["k1", "k2", "k5"])
            return values

        result = engine.submit(program)
        assert result.return_value == {"k1": b"value-1", "k2": b"value-2",
                                       "k5": b"value-5"}

    def test_read_your_own_write_within_transaction(self, engine):
        def program():
            yield Write("k1", b"mine")
            value = yield Read("k1")
            return value

        result = engine.submit(program)
        assert result.return_value == b"mine"

    def test_explicit_abort(self, engine):
        def program():
            yield Write("k1", b"should-not-commit")
            yield AbortRequest("changed my mind")
            return None

        result = engine.submit(program)
        assert not result.committed
        assert result.abort_reason == "user"
        check = engine.submit(read_program("k1"))
        assert check.return_value == b"value-1"

    def test_results_record_epoch_and_latency(self, engine):
        result = engine.submit(read_program("k1"))
        assert result.epoch >= 0
        assert result.latency_ms > 0

    def test_transaction_facade_round_trip(self, engine):
        txn = engine.transaction()
        assert txn.read("k2") == b"value-2"
        txn.write("k2", b"facade")
        txn.commit()
        assert engine.transaction().read("k2") == b"facade"

    def test_submit_rejects_non_generator(self, proxy):
        with pytest.raises(TypeError):
            proxy.submit(lambda: 42)

    def test_the_proxy_has_no_client_api(self):
        # ObladiEngine is the proxy's only client: reads, the transaction
        # facade and the numbers live on the engine, not here.  The rest is
        # the lanes' routing and accounting, which the engine's counters read.
        public = {name for name in vars(ObladiProxy) if not name.startswith("_")}
        assert public == {"submit", "run_epoch", "crash", "crashed", "load_initial_data",
                          "worker_of", "worker_op_totals", "barrier_stats"}


class TestEpochSemantics:
    def test_transactions_in_same_epoch_see_uncommitted_writes(self, engine):
        observed = {}

        def writer():
            yield Write("k9", b"fresh")
            return True

        def reader():
            value = yield Read("k9")
            observed["value"] = value
            return value

        engine.submit_many([writer, reader])
        # MVTSO lets the later-timestamped reader observe the uncommitted
        # write; both commit together at the epoch boundary.
        assert observed["value"] == b"fresh"

    def test_commit_notification_only_at_epoch_end(self, proxy):
        proxy.submit(write_program("k1", b"epoch-write"))
        start = proxy.clock.now_ms
        delivered = []

        def deliver(results, committed):
            delivered.append((proxy.clock.now_ms - start, results, committed))

        results = proxy.run_epoch(deliver=deliver)
        [(told_at_ms, told, committed)] = delivered
        assert told_at_ms >= proxy.config.read_batches * proxy.config.batch_interval_ms * 0.99
        assert told == results
        assert [(r.committed, r.epoch) for r in results] == [(True, results[0].epoch)]
        assert [(t.txn_id, t.epoch, t.write_set) for t in committed] == \
            [(results[0].txn_id, results[0].epoch, {"k1": b"epoch-write"})]

    def test_epoch_counter_advances(self, proxy):
        proxy.submit(read_program("k1"))
        [first] = proxy.run_epoch()
        proxy.submit(read_program("k1"))
        [second] = proxy.run_epoch()
        assert second.epoch == first.epoch + 1

    def test_empty_epoch_commits_nothing(self, proxy):
        delivered = []
        results = proxy.run_epoch(deliver=lambda *ledger: delivered.append(ledger))
        assert results == []
        assert delivered == [([], [])]

    def test_epoch_duration_is_at_least_the_batch_intervals(self, proxy):
        proxy.submit(read_program("k1"))
        start = proxy.clock.now_ms
        proxy.run_epoch()
        assert proxy.clock.now_ms - start >= proxy.config.read_batches * proxy.config.batch_interval_ms * 0.99

    def test_dependent_reads_use_multiple_batches(self, engine):
        def chained():
            first = yield Read("k0")
            second = yield Read("k" + str(len(first or b"") % 5 + 1))
            third = yield Read("k" + str(len(second or b"") % 5 + 2))
            return third

        result = engine.submit(chained)
        assert result.committed

    def test_too_many_dependent_reads_abort_at_epoch_boundary(self, engine):
        # The epoch has 3 read batches; a chain of 6 dependent fresh reads
        # cannot finish and must abort (paper: unfinished transactions are
        # aborted when the epoch closes).
        def chained():
            value = b""
            for i in range(6):
                value = yield Read(f"k{(len(value or b'') + i) % 30}")
            return value

        result = engine.submit(chained)
        assert not result.committed
        assert result.abort_reason in ("epoch_boundary", "batch_full")

    def test_write_conflict_aborts_older_writer(self, engine):
        # The younger transaction reads k1 before the older one writes it.
        def older():
            yield Read("k2")          # burn a timestamp slot; then write k1
            yield Write("k1", b"late")
            return True

        def younger():
            value = yield Read("k1")
            return value

        results = engine.submit_many([older, younger])
        assert any(not r.committed and r.abort_reason == "write_conflict" for r in results)

    def test_cascading_abort_within_epoch(self, engine):
        # t1 writes k5, blocks on an ORAM read (letting t2 observe the dirty
        # value), then aborts voluntarily; t2 must abort in cascade.
        def t1():
            yield Write("k5", b"dirty")
            yield Read("k20")
            yield AbortRequest()
            return None

        def t2():
            value = yield Read("k5")
            return value

        results = engine.submit_many([t1, t2])
        assert not any(r.committed for r in results)
        reasons = {r.abort_reason for r in results}
        assert "cascade" in reasons


class TestWriteBack:
    """The write batch carries one value per key: the youngest committed."""

    def test_younger_of_two_writers_lands(self, engine):
        results = engine.submit_many([write_program("k7", b"older"),
                                      write_program("k7", b"younger")])
        assert [r.committed for r in results] == [True, True]
        assert engine.read("k7") == b"younger"

    def test_aborted_writer_never_lands(self, engine):
        def aborter():
            yield Write("k7", b"aborted")
            yield AbortRequest("changed my mind")
            return None

        results = engine.submit_many([write_program("k7", b"older"),
                                      write_program("k7", b"younger"), aborter])
        assert [r.committed for r in results] == [True, True, False]
        assert engine.read("k7") == b"younger"


class TestConflictRepair:
    """Repair re-runs a loser's program, so it needs a program it can re-run.

    Two read-modify-writes of ``k0`` share one wave: the older one's write
    hits the younger one's read marker and loses.  A factory is repaired
    against the winner's version; a generator object is one-shot (it was
    closed by the abort), so it keeps its abort instead of being re-run as
    an empty transaction that would report the lost write as committed.
    """

    @pytest.fixture
    def repair_engine(self, small_config):
        from dataclasses import replace
        engine = ObladiEngine(ObladiProxy(replace(small_config,
                                                  conflict_strategy="repair")))
        engine.load_initial_data({"k0": b"0"})
        return engine

    @staticmethod
    def append(suffix):
        def program():
            value = yield Read("k0")
            yield Write("k0", value + suffix)
            return value
        return program

    def test_factory_loser_is_repaired(self, repair_engine):
        results = repair_engine.submit_many([self.append(b"a"), self.append(b"b")])
        assert [(r.txn_id, r.committed, r.repaired) for r in results] == [
            (1, True, True), (2, True, False)]
        assert repair_engine.read("k0") == b"0ba"

    def test_generator_object_loser_is_not_rerun(self, repair_engine):
        results = repair_engine.submit_many([self.append(b"a")(), self.append(b"b")()])
        assert [(r.txn_id, r.committed, r.abort_reason) for r in results] == [
            (1, False, "write_conflict"), (2, True, None)]
        assert not results[0].repaired and not results[0].repair_failed
        assert repair_engine.read("k0") == b"0b"


class TestTransactionRecords:
    """The MVTSO manager keeps the running epoch's transaction records only.

    A read sees only versions in the store, which holds this epoch's
    versions, so every dependency and dependent of a record is a record of
    the same epoch, and the reset after the write-back drops them all.
    Each reset is checked before it runs: every record is finished, all
    share one epoch, and none names a transaction outside them.
    """

    CLIENTS = 16

    def run_smallbank(self, small_config, offered, **overrides):
        workload = SmallBankWorkload(SmallBankConfig(num_accounts=40, seed=17))
        engine = create_engine("obladi", replace(small_config, **overrides))
        engine.load_initial_data(workload.initial_data())
        mvtso = engine.proxy.mvtso
        reset, epochs = mvtso.reset_epoch_state, []

        def checked_reset():
            records = mvtso.transactions
            edges = 0
            for record in records.values():
                assert record.is_finished
                for other in record.dependencies | record.dependents:
                    assert other in records, (record.txn_id, other)
                    edges += 1
            [epoch] = {record.epoch for record in records.values()}
            epochs.append((epoch, len(records), edges))
            reset()

        mvtso.reset_epoch_state = checked_reset
        stats = engine.run_closed_loop(workload.transaction_factory, offered,
                                       clients=self.CLIENTS)
        assert len(epochs) == stats.epochs
        assert [epoch for epoch, _, _ in epochs] == sorted({epoch for epoch, _, _ in epochs})
        assert sum(edges for _, _, edges in epochs) > 0
        assert mvtso.transactions == {}
        return stats, epochs

    def test_the_manager_holds_at_most_one_epochs_admissions(self, small_config):
        stats, epochs = self.run_smallbank(small_config, 600)
        assert stats.committed > 0
        assert max(count for _, count, _ in epochs) <= self.CLIENTS
        assert sum(count for _, count, _ in epochs) > 600     # retries begin records too

    def test_no_dependency_crosses_an_epoch_under_repair_and_lanes(self, small_config):
        stats, _ = self.run_smallbank(small_config, 200, conflict_strategy="repair",
                                      proxy_workers=4)
        assert stats.repaired > 0


class TestBatchQuotas:
    """One batch manager for every shard count; one tree is partition 0."""

    def test_unsharded_proxy_batches_as_partition_zero(self, proxy, small_config):
        manager = proxy.batch_manager
        assert {manager.partitioner(f"k{i}") for i in range(30)} == {0}
        assert manager.read_partition_quota == small_config.read_batch_size
        assert manager.write_partition_quota == small_config.write_batch_size

    def test_sharded_proxy_batches_per_partition(self, small_config):
        from dataclasses import replace
        config = replace(small_config, shards=4)
        proxy = ObladiProxy(config)
        manager = proxy.batch_manager
        for i in range(30):
            assert manager.partitioner(f"k{i}") == proxy.data_layer.partition_of(f"k{i}")
        assert manager.read_partition_quota == config.partition_read_batch_size == 2
        assert manager.write_partition_quota == config.partition_write_batch_size == 2


class TestSerializabilityAndDurability:
    def test_committed_history_is_serializable(self, engine):
        import random
        rng = random.Random(3)
        for round_index in range(6):
            wave = []
            for _ in range(5):
                a, b = rng.randrange(30), rng.randrange(30)
                wave.append(read_write_program(f"k{a}", f"k{b}",
                                               f"r{round_index}-{a}-{b}".encode()))
            engine.submit_many(wave)
        ok, cycle = check_serializable(engine.committed_history)
        assert ok, f"serialization cycle: {cycle}"

    def test_throughput_and_latency_metrics(self, engine):
        engine.submit_many([read_program(f"k{i}") for i in range(4)])
        stats = engine.stats()
        assert stats.committed == 4
        assert stats.throughput_tps > 0
        assert stats.average_latency_ms > 0

    def test_crashed_proxy_rejects_work(self, proxy):
        proxy.crash()
        with pytest.raises(ProxyCrashedError):
            proxy.submit(read_program("k1"))
        with pytest.raises(ProxyCrashedError):
            proxy.run_epoch()

    def test_write_batch_overflow_sheds_youngest_writers(self):
        config = ObladiConfig(
            oram=RingOramConfig(num_blocks=128, z_real=4, block_size=128),
            read_batches=2, read_batch_size=16, write_batch_size=4,
            backend="server", durability=False, seed=3,
        )
        proxy = ObladiProxy(config)
        # 6 transactions each writing 1 distinct key: only 4 fit the batch.
        for i in range(6):
            proxy.submit(write_program(f"w{i}", b"x"))
        results = proxy.run_epoch()
        # The youngest writers are shed: submission order is timestamp order.
        assert [r.committed for r in results] == [True] * 4 + [False] * 2
        assert [r.abort_reason for r in results] == [None] * 4 + ["batch_full"] * 2

    def test_load_initial_data_checkpoints_when_durable(self, durable_proxy):
        # The fixture already loaded data; a checkpoint manifest must exist.
        assert durable_proxy.storage.contains("ckpt/manifest")
