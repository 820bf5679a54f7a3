"""Epoch summaries.

Epochs are the unit at which Obladi enforces consistency and durability:
transactions are assigned to an epoch on arrival, execute optimistically
within it, and learn their fate (commit or abort) only when the epoch closes.
An epoch either commits in its entirety — every finished transaction becomes
durable — or, on a crash, disappears entirely (epoch fate sharing).  The
proxy keeps one :class:`EpochSummary` per committed epoch.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.core.client import TransactionResult


@dataclass
class EpochSummary:
    """Immutable digest of a finished epoch, kept for metrics.

    ``physical_reads``/``physical_writes`` are the epoch's totals across the
    whole data layer; ``partition_physical`` breaks them down as one
    ``(reads, writes)`` pair per ORAM partition (a single-tree proxy reports
    one pair, so the totals always equal the sum of the breakdown).

    ``worker_ops`` is the trusted-tier analogue for a sharded proxy
    (``repro.proxytier``): one ``(cc_reads, cc_writes)`` pair of
    concurrency-control operations per proxy worker for this epoch.  The
    single-proxy path reports no breakdown (empty tuple).

    ``committed``/``aborted`` and the rest of the outcome counts are a
    fold of the epoch's :class:`~repro.core.client.TransactionResult`\\ s,
    the one record of what the epoch's clients were told:
    ``aborts_by_reason`` breaks the aborts out by ``AbortReason.value`` as
    sorted ``(reason, count)`` pairs, and ``repaired``/``repair_failed``
    count the transactions the in-epoch repair pass salvaged or gave up on
    (both stay 0 under the default ``conflict_strategy="retry"``).
    """

    epoch_id: int
    duration_ms: float
    committed: int
    aborted: int
    physical_reads: int
    physical_writes: int
    partition_physical: tuple = ()
    worker_ops: tuple = ()
    aborts_by_reason: tuple = ()
    repaired: int = 0
    repair_failed: int = 0

    @classmethod
    def from_results(cls, epoch_id: int, duration_ms: float,
                     results: Sequence[TransactionResult],
                     physical_reads: int, physical_writes: int,
                     partition_physical: tuple = (),
                     worker_ops: tuple = ()) -> "EpochSummary":
        committed = sum(result.committed for result in results)
        aborts = Counter(result.abort_reason for result in results
                         if not result.committed and result.abort_reason)
        return cls(
            epoch_id=epoch_id,
            duration_ms=duration_ms,
            committed=committed,
            aborted=len(results) - committed,
            physical_reads=physical_reads,
            physical_writes=physical_writes,
            partition_physical=tuple(partition_physical),
            worker_ops=tuple(worker_ops),
            aborts_by_reason=tuple(sorted(aborts.items())),
            repaired=sum(result.repaired for result in results),
            repair_failed=sum(result.repair_failed for result in results),
        )
