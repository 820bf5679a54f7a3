"""Sharded MVTSO: concurrency-control work attributed across proxy workers.

:class:`ShardedMVTSOManager` is an :class:`MVTSOManager` over the proxy's
one version store that additionally (a) attributes every operation and
every observed write-read dependency to the worker owning the key and
(b) turns the commit check into the epoch barrier's unanimous vote
(:meth:`ShardedMVTSOManager.prepare_epoch`).

Timestamps and chains stay global — the coordinator assigns timestamps
exactly as the single proxy does — so the serialization order is
unchanged; only *who* performs each operation and each check moves.  See
``docs/ARCHITECTURE.md`` — "Distributed proxy tier".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.concurrency.mvtso import MVTSOManager
from repro.concurrency.transaction import TransactionRecord, TransactionStatus
from repro.concurrency.versions import Version
from repro.proxytier.worker import ProxyWorker

#: Maps an application key to the index of its owning proxy worker.
KeyRouter = Callable[[str], int]


@dataclass
class BarrierStats:
    """Accumulated epoch-barrier (2PC prepare) accounting.

    One *vote* is one worker deciding commit/abort for one transaction it
    participated in; a transaction is *vetoed* when any participant votes
    abort (the coordinator then cascades the abort exactly as the single
    proxy would have).  ``epochs`` counts the epochs that ran the barrier,
    once each: the repair pass's second prepare is the same epoch's.
    """

    epochs: int = 0
    transactions_voted: int = 0
    commit_votes: int = 0
    abort_votes: int = 0
    vetoed: int = 0


class ShardedMVTSOManager(MVTSOManager):
    """MVTSO with per-worker operation attribution and epoch-barrier voting.

    Reads and writes go through the base implementation and are attributed
    to the worker owning the key for CPU-lane accounting.  At the epoch
    boundary the proxy calls :meth:`prepare_epoch`: every
    participating worker votes commit/abort per transaction, and
    :meth:`can_commit` honours the memoized unanimous decision.  Because
    each dependency is attributed to exactly the worker owning the key that
    produced it, the unanimous vote equals the single proxy's global check
    — serializability is preserved across workers.
    """

    def __init__(self, workers: Sequence[ProxyWorker], router: KeyRouter) -> None:
        super().__init__()
        self.workers = list(workers)
        self._router = router
        self.barrier_stats = BarrierStats()
        self._vote_memo: Dict[int, bool] = {}
        self._prepared = False      # the barrier has run in this epoch

    def worker_for(self, key: str) -> ProxyWorker:
        """The worker ``key``'s operations are attributed to."""
        return self.workers[self._router(key)]

    def read(self, txn: TransactionRecord, key: str) -> Tuple[Optional[bytes], Optional[int]]:
        """MVTSO read attributed to the owning worker (dependency included)."""
        value, writer_txn_id = super().read(txn, key)
        self.worker_for(key).note_read(txn.txn_id, writer_txn_id)
        return value, writer_txn_id

    def write(self, txn: TransactionRecord, key: str, value: Optional[bytes]) -> Version:
        """MVTSO write attributed to the owning worker.

        The write is counted against the worker even when it is rejected as
        a late write: the conflict check was that worker's work.
        """
        self.worker_for(key).note_write(txn.txn_id)
        return super().write(txn, key, value)

    def take_lane_ops(self) -> List[int]:
        """Drain the operations not yet charged, one count per worker lane."""
        return [worker.take_pending_ops() for worker in self.workers]

    # ------------------------------------------------------------------ #
    # Epoch barrier (lightweight 2PC over the epoch boundary)
    # ------------------------------------------------------------------ #
    def prepare_epoch(self, records: Sequence[TransactionRecord]) -> Dict[int, bool]:
        """Prepare phase: collect every participant worker's vote per txn.

        For each transaction that requested commit, every worker it touched
        votes on its local dependency fragment; the memoized decision is the
        unanimous AND.  Returns the decision map (txn id → commit?).
        """
        if not self._prepared:
            self._prepared = True
            self.barrier_stats.epochs += 1
        for record in records:
            if record.status is not TransactionStatus.COMMIT_REQUESTED:
                continue
            decision = True
            for worker in self.workers:
                if not worker.participates(record.txn_id):
                    continue
                if worker.vote(record.txn_id, self.transactions):
                    self.barrier_stats.commit_votes += 1
                else:
                    self.barrier_stats.abort_votes += 1
                    decision = False
            self.barrier_stats.transactions_voted += 1
            if not decision:
                self.barrier_stats.vetoed += 1
            self._vote_memo[record.txn_id] = decision
        return dict(self._vote_memo)

    def can_commit(self, txn: TransactionRecord) -> bool:
        """Commit check honouring the barrier's memoized unanimous vote.

        A veto is final (an aborted dependency never un-aborts); a memoized
        commit is still re-validated against the global state, so cascades
        that happen *after* the prepare phase (write-batch shedding) are
        always respected.
        """
        if self._vote_memo.get(txn.txn_id) is False:
            return False
        return super().can_commit(txn)

    def reset_epoch_state(self) -> None:
        """Clear chains, votes and per-worker epoch bookkeeping."""
        super().reset_epoch_state()
        self._vote_memo.clear()
        self._prepared = False
        for worker in self.workers:
            worker.reset_epoch_state()
