"""Tests for the client-side transaction API."""

import pytest

from repro.core.client import (ABORT, COMMIT, AbortRequest, ProgramRun, Read, ReadMany,
                               Transaction, TransactionAborted, TransactionResult, Write)


class TestOperations:
    def test_write_requires_bytes(self):
        with pytest.raises(TypeError):
            Write("k", "string-value")

    def test_read_many_normalises_keys_to_tuple(self):
        op = ReadMany(["a", "b"])
        assert op.keys == ("a", "b")

    def test_abort_request_default_reason(self):
        assert AbortRequest().reason == "user"


class TestProgramRun:
    def test_read_request_is_answered_with_the_bare_value(self):
        def program():
            value = yield Read("k")
            return value

        run = ProgramRun(program)
        request = run.next()
        assert request == Read("k") and request.keys == ("k",)
        run.answer({"k": b"v"})
        assert run.next() is COMMIT
        assert run.return_value == b"v"

    def test_read_many_request_is_answered_with_the_dict(self):
        def program():
            values = yield ReadMany(["a", "b"])
            return values

        run = ProgramRun(program)
        assert run.next().keys == ("a", "b")
        run.answer({"a": b"1", "b": None})
        assert run.next() is COMMIT
        assert run.return_value == {"a": b"1", "b": None}

    def test_write_request_is_answered_with_nothing(self):
        def program():
            reply = yield Write("k", b"v")
            return reply

        run = ProgramRun(program)
        assert run.next() == Write("k", b"v")
        run.answer()
        assert run.next() is COMMIT
        assert run.return_value is None

    def test_abort_request_aborts(self):
        def program():
            yield AbortRequest()
            yield Write("k", b"never")

        run = ProgramRun(program)
        assert run.next() is ABORT
        assert run.next() is ABORT

    def test_raised_transaction_aborted_aborts(self):
        def program():
            yield Write("k", b"v")
            raise TransactionAborted(7, "user")

        run = ProgramRun(program)
        run.next()
        run.answer()
        assert run.next() is ABORT
        assert run.return_value is None

    def test_commit_sets_return_value(self):
        def program():
            yield Write("k", b"v")
            return "done"

        run = ProgramRun(program)
        run.next()
        run.answer()
        assert run.next() is COMMIT
        assert run.return_value == "done"
        assert run.next() is COMMIT

    def test_generator_object_is_used_as_given(self):
        def program():
            yield Read("k")

        generator = program()
        run = ProgramRun(generator)
        assert run.next() == Read("k")

    def test_unsupported_yield_raises_type_error(self):
        def program():
            yield ("read", "k")

        run = ProgramRun(program)
        with pytest.raises(TypeError):
            run.next()

    def test_non_generator_program_raises_type_error(self):
        with pytest.raises(TypeError):
            ProgramRun(lambda: 42)
        with pytest.raises(TypeError):
            ProgramRun(42)

    def test_unanswered_request_is_returned_again_without_resuming(self):
        steps = []

        def program():
            steps.append("first")
            yield Read("a")
            steps.append("second")
            yield Read("b")

        run = ProgramRun(program)
        first = run.next()
        assert run.next() is first
        assert run.next() is first
        assert steps == ["first"]
        run.answer({"a": None})
        assert run.next() == Read("b")
        assert steps == ["first", "second"]

    def test_close_aborts_the_program(self):
        def program():
            yield Read("k")

        run = ProgramRun(program)
        run.next()
        run.close()
        assert run.pending is None
        assert run.next() is ABORT


class TestTransactionFacade:
    def _make(self, submit_results=None, committed_state=None):
        committed_state = committed_state or {}
        submitted = []

        def submit(program):
            run = ProgramRun(program)
            operations = []
            while (op := run.next()) not in (COMMIT, ABORT):
                operations.append(op)
                run.answer(None if isinstance(op, Write)
                           else {key: committed_state.get(key) for key in op.keys})
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
