"""Tests for the write-ahead log of read-batch locations."""

import pytest

from repro.recovery.wal import WalRecord, WriteAheadLog, wal_storage_key
from repro.sim.clock import SimClock
from repro.storage.memory import InMemoryStorageServer


@pytest.fixture
def storage():
    return InMemoryStorageServer(clock=SimClock())


@pytest.fixture
def wal(storage):
    return WriteAheadLog(storage, entry_capacity=4096)


class TestAppendAndRead:
    def test_append_then_read_roundtrip(self, wal):
        record = WalRecord(epoch_id=2, batch_index=1, keys=["a", "b"], padded_size=8)
        wal.append(record)
        read_back = wal.read_epoch(2, max_batches=4)
        assert len(read_back) == 1
        assert read_back[0].keys == ["a", "b"]
        assert read_back[0].batch_index == 1

    def test_multiple_batches_in_order(self, wal):
        for index in range(3):
            wal.append(WalRecord(epoch_id=5, batch_index=index, keys=[f"k{index}"],
                                 padded_size=4))
        records = wal.read_epoch(5, max_batches=8)
        assert [r.batch_index for r in records] == [0, 1, 2]

    def test_missing_epoch_reads_empty(self, wal):
        assert wal.read_epoch(99, max_batches=4) == []

    def test_entries_are_encrypted_on_storage(self, wal, storage):
        wal.append(WalRecord(epoch_id=0, batch_index=0, keys=["secret-key-name"],
                             padded_size=4))
        blob = storage.read(wal_storage_key(0, 0))
        assert b"secret-key-name" not in blob

    def test_entry_size_independent_of_key_count(self, wal):
        size_one = wal.append(WalRecord(epoch_id=0, batch_index=0, keys=["a"], padded_size=16))
        size_many = wal.append(WalRecord(epoch_id=0, batch_index=1,
                                         keys=[f"key{i}" for i in range(16)], padded_size=16))
        assert size_one == size_many

    def test_records_written_counter(self, wal):
        wal.append(WalRecord(epoch_id=0, batch_index=0, keys=[], padded_size=2))
        assert wal.records_written == 1

    def test_unencrypted_mode(self, storage):
        wal = WriteAheadLog(storage, entry_capacity=1024, encrypt=False)
        wal.append(WalRecord(epoch_id=1, batch_index=0, keys=["x"], padded_size=2))
        assert wal.read_epoch(1, max_batches=2)[0].keys == ["x"]


class TestTruncation:
    def test_truncate_removes_old_epochs(self, wal, storage):
        for epoch in range(3):
            wal.append(WalRecord(epoch_id=epoch, batch_index=0, keys=["k"], padded_size=2))
        deleted = wal.truncate_before(2, max_batches=2)
        assert deleted == 2
        assert not storage.contains(wal_storage_key(0, 0))
        assert storage.contains(wal_storage_key(2, 0))

    def test_truncate_nothing_to_delete(self, wal):
        assert wal.truncate_before(0, max_batches=2) == 0
