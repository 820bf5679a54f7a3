"""Transaction repair: why a conflict loser lost.

Obladi's MVTSO aborts a transaction the moment it loses a conflict — a late
write hits a younger reader's read marker, or a dependency on an uncommitted
writer collapses at the epoch boundary.  Under the default strategy
(``ObladiConfig.conflict_strategy="retry"``) that abort is the transaction's
fate: the loop drivers re-queue the whole program into the next wave and it
re-executes from scratch.  Under a hotspot that amplifies work
quadratically — every loser re-reads and re-computes everything, usually to
conflict again.

With ``conflict_strategy="repair"`` the proxy applies *transaction repair*
(see PAPERS.md — "Transaction Repair: Full Serializability Without Locks")
instead: inside the epoch that detected the conflict, under the same epoch
barrier and before write-back, it recomputes only the loser's stale reads
against the winning versions, re-derives its writes by re-running the
workload program, and re-validates
(:meth:`repro.core.proxy.ObladiProxy._repair_conflict_losers`).  A repaired
transaction commits in its own epoch and its result is marked ``repaired``;
one whose repair still aborts is marked ``repair_failed`` and takes the
retry path.  Repair is a proxy configuration, not something a driver does.

The conflict *witness* — which reads went stale and which writer won — comes
from :meth:`repro.concurrency.mvtso.MVTSOManager.stale_reads`;
:class:`ConflictWitness` packages it for observability and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.concurrency.transaction import TransactionRecord

#: Abort reasons a repair pass may attempt to fix.  Everything else —
#: epoch-boundary starvation, a full write batch, a crash, a voluntary
#: abort — is not a *conflict*: re-running the program against the same
#: epoch state cannot change the outcome.
REPAIRABLE_REASONS = ("write_conflict", "cascade")


@dataclass(frozen=True)
class ConflictWitness:
    """Why a transaction lost: its stale reads and the writers that won.

    ``stale_reads`` holds one ``(key, observed_writer_ts, winner_ts)``
    triple per read-set entry whose observed version is no longer what a
    fresh read would return (``-1`` names the pre-epoch base value on
    either side).  An empty tuple with a repairable reason means the loser
    itself was the conflicting writer (its late write hit a read marker):
    its reads are intact, but its writes must be re-derived after the
    winners'.
    """

    txn_id: int
    abort_reason: Optional[str]
    stale_reads: Tuple[Tuple[str, int, int], ...] = ()

    @classmethod
    def from_record(cls, mvtso, record: TransactionRecord) -> "ConflictWitness":
        """Build the witness for an aborted ``record`` from ``mvtso``'s chains."""
        reason = record.abort_reason.value if record.abort_reason else None
        return cls(txn_id=record.txn_id, abort_reason=reason,
                   stale_reads=tuple(mvtso.stale_reads(record)))

    @property
    def repairable(self) -> bool:
        """Whether the abort reason is one repair can, in principle, fix."""
        return self.abort_reason in REPAIRABLE_REASONS
