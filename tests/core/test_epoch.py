"""Tests for epoch bookkeeping."""

import pytest

from repro.concurrency.transaction import TransactionRecord
from repro.core.client import TransactionResult
from repro.core.epoch import EpochPhase, EpochState, EpochSummary


def make_txn(txn_id=1):
    return TransactionRecord(txn_id=txn_id, timestamp=txn_id, epoch=0)


class TestEpochState:
    def test_admit_records_transaction(self):
        state = EpochState(epoch_id=0)
        state.admit(make_txn(1))
        assert 1 in state.transactions

    def test_admit_rejected_after_finish(self):
        state = EpochState(epoch_id=0)
        state.finish(EpochPhase.COMMITTED, now_ms=5.0)
        with pytest.raises(ValueError):
            state.admit(make_txn(2))

    def test_finish_requires_terminal_phase(self):
        state = EpochState(epoch_id=0)
        with pytest.raises(ValueError):
            state.finish(EpochPhase.OPEN, now_ms=1.0)

    def test_duration(self):
        state = EpochState(epoch_id=0, start_ms=10.0)
        state.finish(EpochPhase.COMMITTED, now_ms=35.0)
        assert state.duration_ms == pytest.approx(25.0)


class TestEpochSummary:
    def test_from_state(self):
        state = EpochState(epoch_id=3, start_ms=0.0)
        state.finish(EpochPhase.COMMITTED, now_ms=12.0)
        results = [TransactionResult(txn_id=1, committed=True, epoch=3)]
        summary = EpochSummary.from_state(state, results, physical_reads=100,
                                          physical_writes=40)
        assert summary.epoch_id == 3
        assert summary.committed == 1
        assert summary.physical_reads == 100
        assert summary.duration_ms == pytest.approx(12.0)

    def test_outcome_counts_are_a_fold_of_the_results(self):
        state = EpochState(epoch_id=0)
        results = [
            TransactionResult(txn_id=1, committed=True, repaired=True),
            TransactionResult(txn_id=2, committed=False, abort_reason="write_conflict",
                              repair_failed=True),
            TransactionResult(txn_id=3, committed=False, abort_reason="epoch_boundary"),
            TransactionResult(txn_id=4, committed=False, abort_reason="write_conflict"),
            TransactionResult(txn_id=5, committed=True),
        ]
        summary = EpochSummary.from_state(state, results, physical_reads=0,
                                          physical_writes=0)
        assert (summary.committed, summary.aborted) == (2, 3)
        assert summary.aborts_by_reason == (("epoch_boundary", 1), ("write_conflict", 2))
        assert (summary.repaired, summary.repair_failed) == (1, 1)
