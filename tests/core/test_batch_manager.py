"""Tests for read/write batch assembly."""

import pytest

from repro.core.batch_manager import BatchManager
from repro.core.errors import BatchFullError


@pytest.fixture
def manager():
    return BatchManager(read_batches=3, read_batch_size=4, write_batch_size=4,
                        partitioner=lambda key: 0)


class TestReadScheduling:
    def test_reads_fill_current_batch_first(self, manager):
        assert manager.schedule_read("a") == 0
        assert manager.schedule_read("b") == 0

    def test_duplicate_key_shares_slot(self, manager):
        manager.schedule_read("a")
        index = manager.schedule_read("a")
        assert index == 0
        assert manager.stats_deduplicated == 1
        assert manager.dispatch_next().keys == ["a"]

    def test_overflow_spills_to_next_batch(self, manager):
        for key in "abcd":
            manager.schedule_read(key)
        assert manager.schedule_read("e") == 1

    def test_epoch_capacity_exhaustion_raises(self, manager):
        for i in range(12):
            manager.schedule_read(f"k{i}")
        with pytest.raises(BatchFullError):
            manager.schedule_read("overflow")

    def test_dispatch_advances_current_batch(self, manager):
        manager.schedule_read("a")
        batch = manager.dispatch_next()
        assert batch.index == 0
        assert batch.dispatched
        assert manager.schedule_read("b") == 1

    def test_dispatched_batch_rejects_new_keys(self, manager):
        batch = manager.dispatch_next()
        with pytest.raises(ValueError):
            batch.add("late")

    def test_dispatch_all_batches_then_none(self, manager):
        for _ in range(3):
            assert manager.dispatch_next() is not None
        assert manager.dispatch_next() is None

    def test_padding_counted_at_dispatch(self, manager):
        manager.schedule_read("a")
        manager.dispatch_next()
        assert manager.stats_padded == 3

    def test_reset_epoch_clears_state(self, manager):
        manager.schedule_read("a")
        manager.dispatch_next()
        manager.reset_epoch()
        assert manager.schedule_read("a") == 0
        assert [manager.dispatch_next() is not None for _ in range(4)] == \
            [True, True, True, False]


class TestPartitionQuotas:
    """A partitioned proxy pads each partition's share of a batch to its
    quota, so no batch may carry more of one partition's keys than that."""

    @pytest.fixture
    def partitioned(self):
        return BatchManager(read_batches=2, read_batch_size=4, write_batch_size=4,
                            partitioner=lambda key: int(key[1]),
                            read_partition_quota=2, write_partition_quota=2)

    def test_a_full_partition_spills_to_the_next_batch(self, partitioned):
        assert [partitioned.schedule_read(key) for key in ("k0a", "k0b", "k0c", "k1a")] == \
            [0, 0, 1, 0]
        assert partitioned.dispatch_next().keys == ["k0a", "k0b", "k1a"]

    def test_a_partition_out_of_quota_in_every_batch_raises(self, partitioned):
        for key in ("k0a", "k0b", "k0c", "k0d"):
            partitioned.schedule_read(key)
        with pytest.raises(BatchFullError):
            partitioned.schedule_read("k0e")
        assert partitioned.schedule_read("k1a") == 0

    def test_a_write_batch_over_one_partitions_quota_raises(self, partitioned):
        assert len(partitioned.build_write_batch({"k0a": b"", "k0b": b"", "k1a": b""})) == 3
        with pytest.raises(BatchFullError):
            partitioned.build_write_batch({"k0a": b"", "k0b": b"", "k0c": b""})

    def test_quotas_default_to_the_batch_sizes(self, manager):
        for key in "abcd":
            assert manager.schedule_read(key) == 0
        assert len(manager.build_write_batch({key: b"" for key in "abcd"})) == 4


class TestWriteBatch:
    def test_build_write_batch_sorted(self, manager):
        batch = manager.build_write_batch({"b": b"2", "a": b"1"})
        assert list(batch) == ["a", "b"]

    def test_tombstones_become_empty_payloads(self, manager):
        batch = manager.build_write_batch({"gone": None})
        assert batch["gone"] == b""

    def test_overflow_raises(self, manager):
        items = {f"k{i}": b"v" for i in range(5)}
        with pytest.raises(BatchFullError):
            manager.build_write_batch(items)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            BatchManager(read_batches=0, read_batch_size=4, write_batch_size=4,
                         partitioner=lambda key: 0)
