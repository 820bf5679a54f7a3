"""Tests for epoch summaries."""

import pytest

from repro.core.client import TransactionResult
from repro.core.epoch import EpochSummary


class TestEpochSummary:
    def test_from_results(self):
        results = [TransactionResult(txn_id=1, committed=True, epoch=3)]
        summary = EpochSummary.from_results(3, 12.0, results, physical_reads=100,
                                            physical_writes=40)
        assert summary.epoch_id == 3
        assert summary.committed == 1
        assert summary.physical_reads == 100
        assert summary.duration_ms == pytest.approx(12.0)

    def test_outcome_counts_are_a_fold_of_the_results(self):
        results = [
            TransactionResult(txn_id=1, committed=True, repaired=True),
            TransactionResult(txn_id=2, committed=False, abort_reason="write_conflict",
                              repair_failed=True),
            TransactionResult(txn_id=3, committed=False, abort_reason="epoch_boundary"),
            TransactionResult(txn_id=4, committed=False, abort_reason="write_conflict"),
            TransactionResult(txn_id=5, committed=True),
        ]
        summary = EpochSummary.from_results(0, 0.0, results, physical_reads=0,
                                            physical_writes=0)
        assert (summary.committed, summary.aborted) == (2, 3)
        assert summary.aborts_by_reason == (("epoch_boundary", 1), ("write_conflict", 2))
        assert (summary.repaired, summary.repair_failed) == (1, 1)
