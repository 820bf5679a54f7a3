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

The manager's work can be divided across trusted proxy workers
(:class:`repro.proxytier.ShardedMVTSOManager`, ``docs/ARCHITECTURE.md`` —
"Distributed proxy tier"): timestamps and the one version store stay global
while each operation is attributed to the key's worker and the commit check
becomes an epoch-barrier vote.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.concurrency.transaction import (AbortReason, TransactionRecord,
                                           TransactionStatus)
from repro.concurrency.versions import Version, VersionStore


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
    """Timestamp allocation, version bookkeeping and dependency tracking."""

    def __init__(self) -> None:
        self._next_ts = 1
        self._next_txn_id = 1
        self.store = VersionStore()
        self.transactions: Dict[int, TransactionRecord] = {}
        self.stats_aborts_write_conflict = 0
        self.stats_aborts_cascade = 0
        # Lifetime operation counters: one version-chain read / one version
        # install each.  They are the unit the proxy charges concurrency-
        # control CPU in (``CpuCostModel.cc_op_ms``) and the quantity a
        # sharded proxy tier (``repro.proxytier``) divides across workers.
        self.stats_ops_read = 0
        self.stats_ops_write = 0

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
        self.stats_ops_read += 1
        chain = self.store.chain(key)
        chain.record_read(txn.timestamp)
        version = chain.latest_visible(txn.timestamp)
        if version is None:
            txn.record_read(key, writer_ts=-1)
            return None, None

        writer_txn_id: Optional[int] = None
        writer = self._transaction_with_ts(version.writer_ts)
        if writer is not None and writer.txn_id != txn.txn_id and not version.committed:
            writer_txn_id = writer.txn_id
            writer.dependents.add(txn.txn_id)
        txn.record_read(key, writer_ts=version.writer_ts, writer_txn=writer_txn_id)
        return version.value, writer_txn_id

    def write(self, txn: TransactionRecord, key: str, value: Optional[bytes]) -> Version:
        """MVTSO write; raises :class:`WriteConflictError` on a late write."""
        if not txn.is_active:
            raise ValueError(f"transaction {txn.txn_id} is not active")
        self.stats_ops_write += 1
        chain = self.store.chain(key)
        if chain.read_marker_ts > txn.timestamp:
            self.stats_aborts_write_conflict += 1
            raise WriteConflictError(key, txn.timestamp, chain.read_marker_ts)
        version = Version(key=key, value=value, writer_ts=txn.timestamp)
        chain.insert(version)
        txn.record_write(key, value)
        return version

    # ------------------------------------------------------------------ #
    # Commit / abort
    # ------------------------------------------------------------------ #
    def can_commit(self, txn: TransactionRecord) -> bool:
        """A transaction may commit once none of its dependencies is aborted
        and all of them have committed or requested commit."""
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
        epoch tail then falls back to the ORAM state.
        """
        self.store.clear()
