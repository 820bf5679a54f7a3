"""Tests for the Obladi proxy: transactions, epochs, batching, commits."""

import pytest

from repro.concurrency.serializability import check_serializable
from repro.core.client import AbortRequest, Read, ReadMany, Write
from repro.core.config import ObladiConfig, RingOramConfig
from repro.core.errors import ProxyCrashedError
from repro.core.proxy import ObladiProxy

from tests.conftest import read_program, read_write_program, write_program


class TestBasicTransactions:
    def test_read_initial_data(self, proxy):
        result = proxy.execute_transaction(read_program("k3"))
        assert result.committed
        assert result.return_value == b"value-3"

    def test_read_unknown_key_returns_none(self, proxy):
        result = proxy.execute_transaction(read_program("missing"))
        assert result.committed
        assert result.return_value is None

    def test_write_is_visible_to_later_epochs(self, proxy):
        proxy.execute_transaction(write_program("k1", b"updated"))
        result = proxy.execute_transaction(read_program("k1"))
        assert result.return_value == b"updated"

    def test_read_many_returns_dict(self, proxy):
        def program():
            values = yield ReadMany(["k1", "k2", "k5"])
            return values

        result = proxy.execute_transaction(program)
        assert result.return_value == {"k1": b"value-1", "k2": b"value-2",
                                       "k5": b"value-5"}

    def test_read_your_own_write_within_transaction(self, proxy):
        def program():
            yield Write("k1", b"mine")
            value = yield Read("k1")
            return value

        result = proxy.execute_transaction(program)
        assert result.return_value == b"mine"

    def test_explicit_abort(self, proxy):
        def program():
            yield Write("k1", b"should-not-commit")
            yield AbortRequest("changed my mind")
            return None

        result = proxy.execute_transaction(program)
        assert not result.committed
        assert result.abort_reason == "user"
        check = proxy.execute_transaction(read_program("k1"))
        assert check.return_value == b"value-1"

    def test_results_record_epoch_and_latency(self, proxy):
        result = proxy.execute_transaction(read_program("k1"))
        assert result.epoch >= 0
        assert result.latency_ms > 0

    def test_transaction_facade_round_trip(self, proxy):
        txn = proxy.transaction()
        assert txn.read("k2") == b"value-2"
        txn.write("k2", b"facade")
        txn.commit()
        assert proxy.transaction().read("k2") == b"facade"

    def test_submit_rejects_non_generator(self, proxy):
        with pytest.raises(TypeError):
            proxy.submit(lambda: 42)


class TestEpochSemantics:
    def test_transactions_in_same_epoch_see_uncommitted_writes(self, proxy):
        observed = {}

        def writer():
            yield Write("k9", b"fresh")
            return True

        def reader():
            value = yield Read("k9")
            observed["value"] = value
            return value

        proxy.submit(writer)
        proxy.submit(reader)
        proxy.run_epoch()
        # MVTSO lets the later-timestamped reader observe the uncommitted
        # write; both commit together at the epoch boundary.
        assert observed["value"] == b"fresh"

    def test_commit_notification_only_at_epoch_end(self, proxy):
        proxy.submit(write_program("k1", b"epoch-write"))
        assert proxy.results == {}
        summary = proxy.run_epoch()
        assert summary.committed >= 1
        assert len(proxy.results) == 1

    def test_epoch_counter_advances(self, proxy):
        first = proxy.run_epoch()
        second = proxy.run_epoch()
        assert second.epoch_id == first.epoch_id + 1

    def test_empty_epoch_commits_nothing(self, proxy):
        summary = proxy.run_epoch()
        assert summary.committed == 0
        assert summary.aborted == 0

    def test_epoch_duration_is_at_least_the_batch_intervals(self, proxy):
        proxy.submit(read_program("k1"))
        summary = proxy.run_epoch()
        assert summary.duration_ms >= proxy.config.epoch_length_ms * 0.99

    def test_run_until_drained(self, proxy):
        for i in range(5):
            proxy.submit(read_program(f"k{i}"))
        summaries = proxy.run_until_drained()
        assert proxy.pending_transactions() == 0
        assert sum(s.committed for s in summaries) == 5

    def test_dependent_reads_use_multiple_batches(self, proxy):
        def chained():
            first = yield Read("k0")
            second = yield Read("k" + str(len(first or b"") % 5 + 1))
            third = yield Read("k" + str(len(second or b"") % 5 + 2))
            return third

        result = proxy.execute_transaction(chained)
        assert result.committed

    def test_too_many_dependent_reads_abort_at_epoch_boundary(self, proxy):
        # The epoch has 3 read batches; a chain of 6 dependent fresh reads
        # cannot finish and must abort (paper: unfinished transactions are
        # aborted when the epoch closes).
        def chained():
            value = b""
            for i in range(6):
                value = yield Read(f"k{(len(value or b'') + i) % 30}")
            return value

        result = proxy.execute_transaction(chained)
        assert not result.committed
        assert result.abort_reason in ("epoch_boundary", "batch_full")

    def test_write_conflict_aborts_older_writer(self, proxy):
        # The younger transaction reads k1 before the older one writes it.
        def older():
            yield Read("k2")          # burn a timestamp slot; then write k1
            yield Write("k1", b"late")
            return True

        def younger():
            value = yield Read("k1")
            return value

        proxy.submit(older)
        proxy.submit(younger)
        proxy.run_epoch()
        results = sorted(proxy.results.values(), key=lambda r: r.txn_id)
        assert any(not r.committed and r.abort_reason == "write_conflict" for r in results)

    def test_cascading_abort_within_epoch(self, proxy):
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

        proxy.submit(t1)
        proxy.submit(t2)
        proxy.run_epoch()
        outcomes = {r.txn_id: r for r in proxy.results.values()}
        assert sum(1 for r in outcomes.values() if not r.committed) == 2
        reasons = {r.abort_reason for r in outcomes.values()}
        assert "cascade" in reasons


class TestWriteBack:
    """The write batch carries one value per key: the youngest committed."""

    def test_younger_of_two_writers_lands(self, proxy):
        proxy.submit(write_program("k7", b"older"))
        proxy.submit(write_program("k7", b"younger"))
        summary = proxy.run_epoch()
        assert summary.committed == 2
        assert proxy.execute_transaction(read_program("k7")).return_value == b"younger"

    def test_aborted_writer_never_lands(self, proxy):
        def aborter():
            yield Write("k7", b"aborted")
            yield AbortRequest("changed my mind")
            return None

        proxy.submit(write_program("k7", b"older"))
        proxy.submit(write_program("k7", b"younger"))
        proxy.submit(aborter)
        summary = proxy.run_epoch()
        assert (summary.committed, summary.aborted) == (2, 1)
        assert proxy.execute_transaction(read_program("k7")).return_value == b"younger"


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
    def test_committed_history_is_serializable(self, proxy):
        import random
        rng = random.Random(3)
        for round_index in range(6):
            for _ in range(5):
                a, b = rng.randrange(30), rng.randrange(30)
                proxy.submit(read_write_program(f"k{a}", f"k{b}",
                                                f"r{round_index}-{a}-{b}".encode()))
            proxy.run_epoch()
        ok, cycle = check_serializable(proxy.committed_history)
        assert ok, f"serialization cycle: {cycle}"

    def test_throughput_and_latency_metrics(self, proxy):
        for i in range(4):
            proxy.submit(read_program(f"k{i}"))
        proxy.run_epoch()
        assert proxy.committed_count() == 4
        assert proxy.throughput_tps() > 0
        assert proxy.average_latency_ms() > 0

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
        summary = proxy.run_epoch()
        assert summary.committed == 4
        assert summary.aborted == 2
        reasons = {r.abort_reason for r in proxy.results.values() if not r.committed}
        assert reasons == {"batch_full"}

    def test_load_initial_data_checkpoints_when_durable(self, durable_proxy):
        # The fixture already loaded data; a checkpoint manifest must exist.
        assert durable_proxy.storage.contains("ckpt/manifest")
