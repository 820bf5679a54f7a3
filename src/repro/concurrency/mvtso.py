"""Multiversion timestamp ordering (MVTSO), as used by the Obladi proxy.

The scheme is the classic one (Reed 1979, Bernstein & Goodman 1983) with the
property Obladi relies on: uncommitted writes are immediately visible to
concurrently executing transactions, so delaying commit notifications to
epoch boundaries does not serialise writers behind readers the way two-phase
locking would (paper §6.1).

* Every transaction receives a unique, monotonically increasing timestamp.
* A write installs a new (uncommitted) version tagged with that timestamp,
  unless some transaction with a *higher* timestamp has already read an
  older version of the key — in that case the writer aborts (it would
  invalidate a read that is already fixed in the serialization order).
* A read returns the latest version with a timestamp at most the reader's,
  records the reader on the chain's read marker, and — if that version is
  uncommitted — registers a write-read dependency; the reader can only
  commit after the writer does, and must abort if the writer aborts
  (cascading abort).

The manager's work is divided across the proxy's concurrency-control lanes
(:class:`repro.proxytier.ProxyWorker`, ``docs/ARCHITECTURE.md`` —
"Distributed proxy tier"): timestamps and the one version store stay global
while each operation is attributed to the key's lane, and with more than one
lane the commit check is preceded by an epoch-barrier vote.  One lane — the
paper's single proxy — votes nowhere: its barrier is the commit check.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.concurrency.transaction import (AbortReason, TransactionRecord,
                                           TransactionStatus)
from repro.concurrency.versions import Version, VersionStore
from repro.proxytier.worker import BarrierStats, ProxyWorker

#: Maps an application key to the index of its owning lane.
KeyRouter = Callable[[str], int]


def _lane_zero(key: str) -> int:
    return 0


class WriteConflictError(Exception):
    """A write arrived after a younger transaction already read the key."""

    def __init__(self, key: str, writer_ts: int, read_marker_ts: int) -> None:
        super().__init__(
            f"write to {key!r} by ts {writer_ts} rejected: read marker is {read_marker_ts}"
        )
        self.key = key
        self.writer_ts = writer_ts
        self.read_marker_ts = read_marker_ts


class MVTSOManager:
    """Timestamp allocation, version bookkeeping and dependency tracking.

    ``workers`` are the concurrency-control lanes (one if none are given)
    and ``router`` names the lane owning a key.  Every read and write is
    attributed to its lane — the unit the proxy charges CPU in
    (``CpuCostModel.cc_op_ms``, drained by :meth:`take_lane_ops`).  Because
    each dependency is attributed to exactly the lane owning the key that
    produced it, the lanes' unanimous vote (:meth:`prepare_epoch`) equals
    the global check :meth:`can_commit` runs — serializability is preserved
    across lanes.
    """

    def __init__(self, workers: Sequence[ProxyWorker] = (),
                 router: KeyRouter = _lane_zero) -> None:
        self._next_ts = 1
        self._next_txn_id = 1
        self.store = VersionStore()
        self.transactions: Dict[int, TransactionRecord] = {}
        self.stats_aborts_cascade = 0
        self.workers = list(workers) or [ProxyWorker(0)]
        self._router = router
        self.barrier_stats = BarrierStats()
        self._vote_memo: Dict[int, bool] = {}
        self._prepared = False      # the barrier has run in this epoch

    # ------------------------------------------------------------------ #
    # Transaction lifecycle
    # ------------------------------------------------------------------ #
    def begin(self, epoch: int, now_ms: float = 0.0) -> TransactionRecord:
        """Start a transaction; its timestamp fixes its serialization order."""
        txn = TransactionRecord(
            txn_id=self._next_txn_id,
            timestamp=self._next_ts,
            epoch=epoch,
            start_time_ms=now_ms,
        )
        self._next_txn_id += 1
        self._next_ts += 1
        self.transactions[txn.txn_id] = txn
        return txn

    @property
    def next_timestamp(self) -> int:
        """The timestamp the next ``begin`` would assign (a high-water mark)."""
        return self._next_ts

    @property
    def next_txn_id(self) -> int:
        """The id the next ``begin`` would assign (a high-water mark)."""
        return self._next_txn_id

    def fast_forward(self, next_timestamp: int, next_txn_id: int) -> None:
        """Advance the timestamp/id counters to at least the given values.

        Used when a recovered proxy must *extend* a predecessor's
        serialization order rather than restart it: timestamps define the
        multiversion order, so a fresh manager re-issuing already-used
        timestamps would interleave its versions before history that has
        already committed (and re-used txn ids would alias nodes in the
        serialization graph).  Counters never move backwards.
        """
        self._next_ts = max(self._next_ts, next_timestamp)
        self._next_txn_id = max(self._next_txn_id, next_txn_id)

    # ------------------------------------------------------------------ #
    # Reads and writes
    # ------------------------------------------------------------------ #
    def read(self, txn: TransactionRecord, key: str) -> Tuple[Optional[bytes], Optional[int]]:
        """MVTSO read.

        Returns ``(value, writer_txn_id)``; the value is ``None`` when no
        version of the key is visible (the caller falls back to the
        previous-epoch state fetched from the ORAM).  ``writer_txn_id`` is
        set when the observed version is still uncommitted, so the caller
        can register the write-read dependency.
        """
        if not txn.is_active:
            raise ValueError(f"transaction {txn.txn_id} is not active")
        chain = self.store.chain(key)
        chain.record_read(txn.timestamp)
        version = chain.latest_visible(txn.timestamp)
        value: Optional[bytes] = None
        writer_txn_id: Optional[int] = None
        if version is None:
            txn.record_read(key, writer_ts=-1)
        else:
            value = version.value
            writer = self._transaction_with_ts(version.writer_ts)
            if writer is not None and writer.txn_id != txn.txn_id and not version.committed:
                writer_txn_id = writer.txn_id
                writer.dependents.add(txn.txn_id)
            txn.record_read(key, writer_ts=version.writer_ts, writer_txn=writer_txn_id)
        self.workers[self._router(key)].note_read(txn.txn_id, writer_txn_id)
        return value, writer_txn_id

    def write(self, txn: TransactionRecord, key: str, value: Optional[bytes]) -> Version:
        """MVTSO write; raises :class:`WriteConflictError` on a late write.

        The write is counted against its lane even when it is rejected as a
        late write: the conflict check was that lane's work.
        """
        if not txn.is_active:
            raise ValueError(f"transaction {txn.txn_id} is not active")
        self.workers[self._router(key)].note_write(txn.txn_id)
        chain = self.store.chain(key)
        if chain.read_marker_ts > txn.timestamp:
            raise WriteConflictError(key, txn.timestamp, chain.read_marker_ts)
        version = Version(key=key, value=value, writer_ts=txn.timestamp)
        chain.insert(version)
        txn.record_write(key, value)
        return version

    def take_lane_ops(self) -> List[int]:
        """Drain the operations not yet charged, one count per lane."""
        return [worker.take_pending_ops() for worker in self.workers]

    # ------------------------------------------------------------------ #
    # Commit / abort
    # ------------------------------------------------------------------ #
    def prepare_epoch(self, records: Sequence[TransactionRecord]) -> Dict[int, bool]:
        """The epoch barrier (a 2PC prepare) before the commit checks.

        For each transaction of ``records`` that requested commit, every
        lane it touched votes on its local dependency fragment; the memoized
        decision is the unanimous AND, which :meth:`can_commit` honours.
        Returns the decisions so far this epoch (txn id → commit?).  One
        lane's vote would be :meth:`can_commit` itself, so a one-lane
        manager casts none and returns ``{}``.
        """
        if len(self.workers) == 1:
            return {}
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
        """A transaction may commit once no lane vetoed it at the barrier and
        none of its dependencies is aborted.

        A veto is final (an aborted dependency never un-aborts); a memoized
        commit is still re-validated against the global state, so cascades
        that happen *after* the prepare phase (write-batch shedding) are
        always respected.
        """
        if self._vote_memo.get(txn.txn_id) is False:
            return False
        for dep_id in txn.dependencies:
            dep = self.transactions.get(dep_id)
            if dep is None:
                continue
            if dep.status is TransactionStatus.ABORTED:
                return False
        return True

    def mark_version_state(self, txn: TransactionRecord) -> None:
        """Propagate the transaction's final state onto the versions it wrote."""
        for key in txn.write_set:
            chain = self.store.get_chain(key)
            if chain is None:
                continue
            for version in chain.versions:
                if version.writer_ts == txn.timestamp:
                    version.committed = txn.status is TransactionStatus.COMMITTED
                    version.aborted = txn.status is TransactionStatus.ABORTED

    def abort(self, txn: TransactionRecord, reason: AbortReason,
              now_ms: float = 0.0) -> List[TransactionRecord]:
        """Abort a transaction and cascade to every transaction that read it.

        Returns the list of transactions aborted by the cascade (excluding
        the initial one).
        """
        if txn.status is TransactionStatus.ABORTED:
            return []
        txn.mark_aborted(reason, now_ms)
        self.mark_version_state(txn)
        cascaded: List[TransactionRecord] = []
        for dependent_id in sorted(txn.dependents):
            dependent = self.transactions.get(dependent_id)
            if dependent is None or dependent.is_finished:
                continue
            self.stats_aborts_cascade += 1
            cascaded.append(dependent)
            cascaded.extend(self.abort(dependent, AbortReason.CASCADE, now_ms))
        return cascaded

    def commit(self, txn: TransactionRecord, now_ms: float = 0.0) -> None:
        """Mark a transaction committed and finalise its versions."""
        if not self.can_commit(txn):
            raise ValueError(
                f"transaction {txn.txn_id} has aborted dependencies and cannot commit")
        txn.mark_committed(now_ms)
        self.mark_version_state(txn)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _transaction_with_ts(self, ts: int) -> Optional[TransactionRecord]:
        # Timestamps are dense and assigned in order; a linear probe of the
        # dict would be O(n), so keep a reverse index lazily.
        txn_id = ts  # timestamps and ids advance together in begin()
        txn = self.transactions.get(txn_id)
        if txn is not None and txn.timestamp == ts:
            return txn
        for candidate in self.transactions.values():
            if candidate.timestamp == ts:
                return candidate
        return None

    def reset_epoch_state(self) -> None:
        """Clear per-epoch version chains (called after the epoch write-back).

        Transactions from later epochs are serialized after all transactions
        from earlier epochs, so the per-key version chains can be discarded
        once the final values have been flushed to the ORAM; re-reading the
        epoch tail then falls back to the ORAM state.  The barrier's votes
        and the lanes' epoch bookkeeping go with them.
        """
        self.store.clear()
        self._vote_memo.clear()
        self._prepared = False
        for worker in self.workers:
            worker.reset_epoch_state()
