"""Tests for multiversion timestamp ordering."""

import pytest

from repro.concurrency.mvtso import MVTSOManager, WriteConflictError
from repro.concurrency.transaction import AbortReason, TransactionStatus


@pytest.fixture
def mgr():
    return MVTSOManager()


class TestTimestamps:
    def test_timestamps_are_unique_and_increasing(self, mgr):
        timestamps = [mgr.begin(epoch=0).timestamp for _ in range(10)]
        assert timestamps == sorted(timestamps)
        assert len(set(timestamps)) == 10

    def test_txn_ids_unique(self, mgr):
        ids = {mgr.begin(epoch=0).txn_id for _ in range(10)}
        assert len(ids) == 10


class TestReadsAndWrites:
    def test_read_own_write(self, mgr):
        txn = mgr.begin(epoch=0)
        mgr.write(txn, "k", b"v")
        value, writer = mgr.read(txn, "k")
        assert value == b"v"
        assert writer is None

    def test_read_returns_latest_older_version(self, mgr):
        t1 = mgr.begin(epoch=0)
        t2 = mgr.begin(epoch=0)
        t3 = mgr.begin(epoch=0)
        mgr.write(t1, "k", b"v1")
        mgr.write(t3, "k", b"v3")
        value, _ = mgr.read(t2, "k")
        assert value == b"v1"

    def test_read_of_unwritten_key_is_none(self, mgr):
        txn = mgr.begin(epoch=0)
        value, writer = mgr.read(txn, "missing")
        assert value is None and writer is None

    def test_read_uncommitted_registers_dependency(self, mgr):
        writer = mgr.begin(epoch=0)
        reader = mgr.begin(epoch=0)
        mgr.write(writer, "k", b"dirty")
        value, writer_id = mgr.read(reader, "k")
        assert value == b"dirty"
        assert writer_id == writer.txn_id
        assert writer.txn_id in reader.dependencies
        assert reader.txn_id in writer.dependents

    def test_late_write_aborts(self, mgr):
        old = mgr.begin(epoch=0)
        young = mgr.begin(epoch=0)
        mgr.read(young, "k")        # read marker advances to young's timestamp
        with pytest.raises(WriteConflictError):
            mgr.write(old, "k", b"late")

    def test_write_after_older_reader_is_allowed(self, mgr):
        old = mgr.begin(epoch=0)
        young = mgr.begin(epoch=0)
        mgr.read(old, "k")
        version = mgr.write(young, "k", b"ok")
        assert version.writer_ts == young.timestamp

    def test_operations_on_finished_transaction_rejected(self, mgr):
        txn = mgr.begin(epoch=0)
        txn.request_commit()
        mgr.commit(txn)
        with pytest.raises(ValueError):
            mgr.read(txn, "k")
        with pytest.raises(ValueError):
            mgr.write(txn, "k", b"v")


class TestCommitAbort:
    def test_commit_marks_versions_committed(self, mgr):
        txn = mgr.begin(epoch=0)
        mgr.write(txn, "k", b"v")
        txn.request_commit()
        mgr.commit(txn)
        assert txn.status is TransactionStatus.COMMITTED
        chain = mgr.store.get_chain("k")
        assert chain.versions[-1].committed
        assert chain.versions[-1].value == b"v"

    def test_abort_marks_versions_aborted(self, mgr):
        txn = mgr.begin(epoch=0)
        mgr.write(txn, "k", b"v")
        mgr.abort(txn, AbortReason.USER)
        chain = mgr.store.get_chain("k")
        assert chain.latest_visible(reader_ts=999) is None

    def test_cascading_abort(self, mgr):
        writer = mgr.begin(epoch=0)
        reader = mgr.begin(epoch=0)
        downstream = mgr.begin(epoch=0)
        mgr.write(writer, "k", b"dirty")
        mgr.read(reader, "k")
        mgr.write(reader, "j", b"derived")
        mgr.read(downstream, "j")
        cascaded = mgr.abort(writer, AbortReason.WRITE_CONFLICT)
        assert reader.status is TransactionStatus.ABORTED
        assert downstream.status is TransactionStatus.ABORTED
        assert {t.txn_id for t in cascaded} == {reader.txn_id, downstream.txn_id}
        assert mgr.stats_aborts_cascade >= 2

    def test_cannot_commit_with_aborted_dependency(self, mgr):
        writer = mgr.begin(epoch=0)
        reader = mgr.begin(epoch=0)
        mgr.write(writer, "k", b"dirty")
        mgr.read(reader, "k")
        mgr.abort(writer, AbortReason.USER)
        assert not mgr.can_commit(reader)

    def test_can_commit_when_dependency_committed(self, mgr):
        writer = mgr.begin(epoch=0)
        reader = mgr.begin(epoch=0)
        mgr.write(writer, "k", b"v")
        mgr.read(reader, "k")
        writer.request_commit()
        mgr.commit(writer)
        assert mgr.can_commit(reader)

    def test_commit_after_dependency_aborts_is_impossible(self, mgr):
        writer = mgr.begin(epoch=0)
        reader = mgr.begin(epoch=0)
        mgr.write(writer, "k", b"v")
        mgr.read(reader, "k")
        mgr.abort(writer, AbortReason.USER)
        # The cascade already aborted the reader; committing it must fail.
        assert reader.status is TransactionStatus.ABORTED
        with pytest.raises(ValueError):
            mgr.commit(reader)

    def test_abort_is_idempotent(self, mgr):
        txn = mgr.begin(epoch=0)
        mgr.abort(txn, AbortReason.USER)
        assert mgr.abort(txn, AbortReason.USER) == []

    def test_reset_epoch_state_clears_chains(self, mgr):
        txn = mgr.begin(epoch=0)
        mgr.write(txn, "k", b"v")
        mgr.reset_epoch_state()
        assert mgr.store.get_chain("k") is None

    def test_reset_epoch_state_drops_finished_records(self, mgr):
        committed, aborted, running = (mgr.begin(epoch=0) for _ in range(3))
        committed.request_commit()
        mgr.commit(committed)
        mgr.abort(aborted, AbortReason.USER)
        mgr.reset_epoch_state()
        assert mgr.transactions == {running.txn_id: running}

    def test_commit_finishes_only_the_committed_transaction(self, mgr):
        a = mgr.begin(epoch=0)
        b = mgr.begin(epoch=0)
        a.request_commit()
        mgr.commit(a)
        assert a.status is TransactionStatus.COMMITTED
        assert not b.is_finished
