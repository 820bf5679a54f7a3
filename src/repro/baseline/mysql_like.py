"""MySQL-like baseline: strict two-phase locking over local storage.

Figure 9 uses a local MySQL instance as a conventional reference point.  The
relevant behaviour the paper calls out is that InnoDB "acquires exclusive
locks for the duration of the transactions", so conflicting TPC-C
transactions serialise instead of pipelining the way MVTSO allows.  This
baseline implements exactly that: an exclusive lock for every read and
write (:class:`~repro.concurrency.two_phase_locking.LockManager` has no
other), all held until commit, the requesting transaction aborted when its
wait would close a cycle, and writes applied at commit time.

Execution model
---------------
Like :class:`repro.baseline.nopriv.NoPrivEngine`, a wave's transactions are
interleaved at operation granularity, one client slot per program, by the
shared discrete-event loop (:class:`~repro.baseline.common.BaselineEngine`),
so lock conflicts and deadlocks arise exactly where concurrent executions
would produce them.  What 2PL adds to the loop is the *lock wait*: a
transaction that blocks on a lock resumes when the holder finishes, with its
clock advanced to the holder's completion time.  Since every deadlock is
refused at acquire time, some transaction is always runnable while any is
blocked, so nothing is ever parked with nothing left to run.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.baseline.common import BaselineEngine, WaveRunner
from repro.concurrency.transaction import AbortReason, TransactionRecord
from repro.concurrency.two_phase_locking import DeadlockError, LockManager
from repro.core.client import ABORT, COMMIT, ReadMany, Write
from repro.sim.clock import SimClock
from repro.storage.memory import InMemoryStorageServer


class MySQLEngine(BaselineEngine):
    """The MySQL/InnoDB stand-in: strict 2PL over local storage."""

    name = "mysql"

    CPU_PER_OP_MS = 0.009
    CPU_PER_COMMIT_MS = 0.015
    #: MySQL in the paper runs locally: reads hit the buffer pool / local disk
    #: rather than the network, so per-operation costs are small constants.
    LOCAL_READ_MS = 0.02
    LOCAL_COMMIT_MS = 0.06

    def __init__(self, backend: str = "server", clock: Optional[SimClock] = None,
                 storage: Optional[InMemoryStorageServer] = None) -> None:
        super().__init__(backend, clock, storage)
        # Every access takes the key's exclusive lock: the paper describes
        # MySQL as acquiring exclusive locks for the duration of conflicting
        # transactions (InnoDB's SELECT ... FOR UPDATE pattern in OLTP code).
        self.locks = LockManager()
        self._next_txn_id = 1
        self._local_state: Dict[str, Optional[bytes]] = {}
        # Timestamp of the last committed writer of each key, so read sets
        # carry accurate version provenance for the serializability checker.
        self._last_writer_ts: Dict[str, int] = {}
        # Under strict 2PL the serialization order is the *commit* order, not
        # the start order; committed transactions are stamped with a commit
        # sequence number so history checking uses the right version order.
        self._next_commit_seq = 1

    # ------------------------------------------------------------------ #
    # The wave loop's hooks
    # ------------------------------------------------------------------ #
    def _begin_wave(self, slots: int) -> None:
        self._blocked: Dict[int, WaveRunner] = {}

    def _begin_transaction(self) -> TransactionRecord:
        record = TransactionRecord(txn_id=self._next_txn_id,
                                   timestamp=self._next_txn_id,
                                   epoch=0, start_time_ms=0.0)
        self._next_txn_id += 1
        return record

    def _advance(self, runner: WaveRunner) -> None:
        outcome = self._step(runner)
        if outcome == "running":
            self._schedule(runner)
        elif outcome == "blocked":
            self._blocked[runner.record.txn_id] = runner
        else:
            committed, reason = outcome
            self._finish(runner, committed, reason)

    def _finish(self, runner: WaveRunner, committed: bool,
                reason: Optional[str]) -> None:
        self._cpu_ms += (runner.record.operations * self.CPU_PER_OP_MS
                         + self.CPU_PER_COMMIT_MS)
        super()._finish(runner, committed, reason)
        # Release this transaction's locks; each goes to its first waiter.
        for waiter_id, _key in self.locks.release_all(runner.record.txn_id):
            waiter = self._blocked.pop(waiter_id)
            waiter.time_ms = max(waiter.time_ms, runner.time_ms)
            self._schedule(waiter)

    # ------------------------------------------------------------------ #
    # One operation at a time
    # ------------------------------------------------------------------ #
    def _step(self, runner: WaveRunner):
        """Execute the runner's next request.

        A request that waits on a lock stays unanswered, so the runner
        re-issues it (from its first key) when the lock is granted.
        """
        record = runner.record
        # Every operation occupies the client for a sliver of CPU time; this
        # keeps concurrently started transactions from executing in perfect
        # lockstep at identical simulated instants.
        runner.time_ms += self.CPU_PER_OP_MS
        request = runner.run.next()
        if request is COMMIT:
            return self._commit(runner)
        if request is ABORT:
            return self._abort(runner, AbortReason.USER)
        if isinstance(request, Write):
            waited = self._lock(runner, request.key)
            if waited is not None:
                return waited
            record.record_write(request.key, bytes(request.value))
            runner.run.answer()
            return "running"
        # Each key is locked, then read, before the next one is locked.  A
        # Read of the transaction's own write costs nothing; a ReadMany is
        # charged one local read, whatever it reads.
        many = isinstance(request, ReadMany)
        values = {}
        for key in request.keys:
            waited = self._lock(runner, key)
            if waited is not None:
                return waited
            if not many and key not in record.write_set:
                runner.time_ms += self.LOCAL_READ_MS
            values[key] = self._read_locked(record, key)
        if many:
            runner.time_ms += self.LOCAL_READ_MS
        runner.run.answer(values)
        return "running"

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _lock(self, runner: WaveRunner, key: str):
        """Take ``key``'s exclusive lock.

        Returns None once it is held, ``"blocked"`` while the runner waits
        for it, or the abort outcome if waiting would deadlock.
        """
        try:
            granted = self.locks.acquire(runner.record.txn_id, key)
        except DeadlockError:
            return self._abort(runner, AbortReason.DEADLOCK)
        return None if granted else "blocked"

    def _read_locked(self, record: TransactionRecord, key: str) -> Optional[bytes]:
        """Read a key the transaction already holds a lock on."""
        if key in record.write_set:
            value = record.write_set[key]
        else:
            value = self._local_state.get(key)
            if value is None:
                value = self._storage_read(key)
        record.record_read(key, writer_ts=self._last_writer_ts.get(key, -1))
        return value

    def _commit(self, runner: WaveRunner):
        record = runner.record
        record.request_commit()
        # Stamp the record with its commit-order position: that is the
        # serialization order strict 2PL guarantees.
        record.timestamp = self._next_commit_seq
        self._next_commit_seq += 1
        if record.write_set:
            self._storage_write_many(record.write_set)
            self._local_state.update(record.write_set)
            for key in record.write_set:
                self._last_writer_ts[key] = record.timestamp
            runner.time_ms += self.LOCAL_COMMIT_MS
        record.mark_committed(runner.time_ms)
        return True, None

    def _abort(self, runner: WaveRunner, reason: AbortReason):
        runner.record.mark_aborted(reason, runner.time_ms)
        return False, reason.value
