"""Tests for the client-side transaction API."""

import pytest

from repro.core.client import (AbortRequest, Read, ReadMany, Transaction, TransactionAborted,
                               TransactionResult, Write)


class TestOperations:
    def test_write_requires_bytes(self):
        with pytest.raises(TypeError):
            Write("k", "string-value")

    def test_read_many_normalises_keys_to_tuple(self):
        op = ReadMany(["a", "b"])
        assert op.keys == ("a", "b")

    def test_abort_request_default_reason(self):
        assert AbortRequest().reason == "user"


class TestTransactionFacade:
    def _make(self, submit_results=None, committed_state=None):
        committed_state = committed_state or {}
        submitted = []

        def submit(program):
            generator = program()
            operations = []
            value = None
            while True:
                try:
                    op = generator.send(value)
                except StopIteration:
                    break
                operations.append(op)
                value = committed_state.get(op.key) if isinstance(op, Read) else None
            submitted.append(operations)
            if submit_results is not None:
                return submit_results
            return TransactionResult(txn_id=1, committed=True, return_value=True)

        def read_now(key):
            return committed_state.get(key)

        return Transaction(submit=submit, read_now=read_now), submitted

    def test_reads_return_committed_state(self):
        txn, _ = self._make(committed_state={"k": b"v"})
        assert txn.read("k") == b"v"

    def test_read_sees_own_buffered_write(self):
        txn, _ = self._make(committed_state={"k": b"committed"})
        txn.write("k", b"buffered")
        assert txn.read("k") == b"buffered"

    def test_read_sees_latest_buffered_write(self):
        txn, _ = self._make(committed_state={"k": b"committed"})
        txn.write("k", b"first")
        txn.write("k", b"second")
        assert txn.read("k") == b"second"

    def test_buffered_write_to_other_key_does_not_leak(self):
        txn, _ = self._make(committed_state={"k": b"v"})
        txn.write("j", b"other")
        assert txn.read("k") == b"v"

    def test_commit_still_replays_read_after_own_write(self):
        txn, submitted = self._make(committed_state={"k": b"v"})
        txn.write("k", b"new")
        assert txn.read("k") == b"new"
        txn.commit()
        ops = submitted[0]
        assert ops.index(Write("k", b"new")) < ops.index(Read("k"))

    def test_commit_replays_buffered_operations(self):
        txn, submitted = self._make(committed_state={"k": b"v"})
        txn.read("k")
        txn.write("j", b"new")
        result = txn.commit()
        assert result.committed
        ops = submitted[0]
        assert Read("k") in ops
        assert Write("j", b"new") in ops

    def test_commit_failure_raises_transaction_aborted(self):
        failed = TransactionResult(txn_id=9, committed=False, abort_reason="write_conflict")
        txn, _ = self._make(submit_results=failed)
        txn.write("k", b"v")
        with pytest.raises(TransactionAborted) as err:
            txn.commit()
        assert err.value.reason == "write_conflict"

    def test_write_requires_bytes(self):
        txn, _ = self._make()
        with pytest.raises(TypeError):
            txn.write("k", 123)

    def test_operations_after_commit_rejected(self):
        txn, _ = self._make()
        txn.commit()
        with pytest.raises(RuntimeError):
            txn.read("k")

    def test_abort_discards_operations(self):
        txn, submitted = self._make()
        txn.write("k", b"v")
        txn.abort()
        assert submitted == []

    def test_context_manager_commits_on_success(self):
        txn, submitted = self._make()
        with txn as handle:
            handle.write("k", b"v")
        assert len(submitted) == 1

    def test_context_manager_aborts_on_exception(self):
        txn, submitted = self._make()
        with pytest.raises(RuntimeError):
            with txn as handle:
                handle.write("k", b"v")
                raise RuntimeError("boom")
        assert submitted == []
