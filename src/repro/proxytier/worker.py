"""One trusted proxy worker: the accounting of a key-range slice.

A :class:`ProxyWorker` is one concurrency-control lane of the proxy: it
counts the chain reads and writes routed to the slice of the keyspace that
hashes to it, holds the write-read dependencies they observed, and votes at
the epoch barrier.  It owns no *state* — the version chains and the epoch
cache's base values are the proxy's, one of each, whatever the worker
count.  Workers do not talk to each other: the proxy routes every key
(:meth:`repro.core.proxy.ObladiProxy.worker_of`) and the MVTSO manager runs
the epoch-barrier vote (:meth:`repro.concurrency.mvtso.MVTSOManager.prepare_epoch`),
accounting for it in :class:`BarrierStats`.

See ``docs/ARCHITECTURE.md`` — "Distributed proxy tier" — for how workers
compose with the data layer's partitions and the storage servers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.concurrency.transaction import TransactionRecord, TransactionStatus


@dataclass
class BarrierStats:
    """Accumulated epoch-barrier (2PC prepare) accounting.

    One *vote* is one worker deciding commit/abort for one transaction it
    participated in; a transaction is *vetoed* when any participant votes
    abort (the proxy then cascades the abort exactly as the global commit
    check would have).  ``epochs`` counts the epochs that ran the barrier,
    once each: the repair pass's second prepare is the same epoch's.  A
    one-lane proxy casts no votes, so all of it stays zero there.
    """

    epochs: int = 0
    transactions_voted: int = 0
    commit_votes: int = 0
    abort_votes: int = 0
    vetoed: int = 0


class ProxyWorker:
    """A trusted concurrency-control lane accounting for one keyspace slice.

    The worker records, per transaction, which uncommitted writers the
    transaction observed *through keys this worker owns* (``txn_deps``).
    Because every read is routed to exactly one worker, those per-worker
    dependency sets partition the transaction's global dependency set — the
    property that makes the epoch barrier's unanimous vote equivalent to the
    global commit check.

    ``votes`` says whether the worker keeps that bookkeeping at all.  The
    MVTSO manager clears it on the only lane of a one-lane proxy, which
    never votes (its barrier is the commit check), so there the worker
    counts operations and nothing else.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.votes = True

        # Lifetime concurrency-control operation counters.
        self.stats_reads = 0
        self.stats_writes = 0
        self.stats_votes = 0

        # Operations performed since the proxy last charged CPU; the proxy
        # drains this into one lane duration.
        self.pending_ops = 0

        # Per-epoch vote bookkeeping.
        self.txn_deps: Dict[int, Set[int]] = {}
        self.txn_touched: Set[int] = set()

    # ------------------------------------------------------------------ #
    # Operation accounting (called by the MVTSO manager)
    # ------------------------------------------------------------------ #
    def note_read(self, txn_id: int, writer_txn_id: Optional[int]) -> None:
        """Record one version-chain read routed to this worker.

        ``writer_txn_id`` is set when the read observed an uncommitted
        version: the write-read dependency is then attributed to this worker
        for the epoch barrier's vote.
        """
        self.stats_reads += 1
        self.pending_ops += 1
        if self.votes:
            self.txn_touched.add(txn_id)
            if writer_txn_id is not None:
                self.txn_deps.setdefault(txn_id, set()).add(writer_txn_id)

    def note_write(self, txn_id: int) -> None:
        """Record one version install (or rejected late write) on this worker."""
        self.stats_writes += 1
        self.pending_ops += 1
        if self.votes:
            self.txn_touched.add(txn_id)

    def take_pending_ops(self) -> int:
        """Drain and return the operations not yet charged as lane CPU."""
        pending = self.pending_ops
        self.pending_ops = 0
        return pending

    # ------------------------------------------------------------------ #
    # Epoch barrier
    # ------------------------------------------------------------------ #
    def participates(self, txn_id: int) -> bool:
        """Whether this worker holds any of the transaction's reads/writes."""
        return txn_id in self.txn_touched

    def vote(self, txn_id: int,
             transactions: Dict[int, TransactionRecord]) -> bool:
        """This worker's commit vote for ``txn_id`` (2PC prepare phase).

        The worker votes abort iff some uncommitted writer the transaction
        observed *through keys this worker owns* has aborted — its local
        fragment of exactly the check
        :meth:`repro.concurrency.mvtso.MVTSOManager.can_commit` runs
        globally.
        """
        self.stats_votes += 1
        self.pending_ops += 1
        for dep_id in self.txn_deps.get(txn_id, ()):
            dep = transactions.get(dep_id)
            if dep is not None and dep.status is TransactionStatus.ABORTED:
                return False
        return True

    def reset_epoch_state(self) -> None:
        """Clear per-epoch vote bookkeeping."""
        self.txn_deps.clear()
        self.txn_touched.clear()
