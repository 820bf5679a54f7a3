"""One trusted proxy worker: the accounting of a key-range slice.

A :class:`ProxyWorker` does the concurrency-control work for the slice of
the keyspace that hashes to it: it counts the chain reads and writes routed
to it, holds the write-read dependencies they observed, and votes at the
epoch barrier.  It owns no *state* — the version chains and the epoch
cache's base values are the proxy's, one of each, whatever the worker
count.  Workers do not talk to each other: all routing and cross-worker
coordination (the epoch-barrier commit protocol) is the
:class:`~repro.proxytier.coordinator.ProxyCoordinator`'s job.

See ``docs/ARCHITECTURE.md`` — "Distributed proxy tier" — for how workers
compose with the data layer's partitions and the storage servers.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.concurrency.transaction import TransactionRecord, TransactionStatus


class ProxyWorker:
    """A trusted concurrency-control lane accounting for one keyspace slice.

    The worker records, per transaction, which uncommitted writers the
    transaction observed *through keys this worker owns* (``txn_deps``).
    Because every read is routed to exactly one worker, those per-worker
    dependency sets partition the transaction's global dependency set — the
    property that makes the epoch barrier's unanimous vote equivalent to the
    single proxy's global commit check.
    """

    def __init__(self, index: int) -> None:
        self.index = index

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
    # Operation accounting (called by the sharded MVTSO manager)
    # ------------------------------------------------------------------ #
    def note_read(self, txn_id: int, writer_txn_id: Optional[int]) -> None:
        """Record one version-chain read routed to this worker.

        ``writer_txn_id`` is set when the read observed an uncommitted
        version: the write-read dependency is then attributed to this worker
        for the epoch barrier's vote.
        """
        self.stats_reads += 1
        self.pending_ops += 1
        self.txn_touched.add(txn_id)
        if writer_txn_id is not None:
            self.txn_deps.setdefault(txn_id, set()).add(writer_txn_id)

    def note_write(self, txn_id: int) -> None:
        """Record one version install (or rejected late write) on this worker."""
        self.stats_writes += 1
        self.pending_ops += 1
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
        globally on the single proxy.
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
