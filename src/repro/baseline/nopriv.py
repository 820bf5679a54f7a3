"""NoPriv: the paper's non-private baseline.

NoPriv shares Obladi's concurrency control (MVTSO) but replaces the data
handler with direct, non-oblivious access to remote storage: a read is a
single key fetch, writes are buffered at the proxy until commit and served
locally to the writing transaction, and commits apply the write set to
storage immediately — there are no epochs, no batching, and no delayed
commit notifications.

Execution model
---------------
``submit_many`` runs one wave through the shared discrete-event loop
(:class:`~repro.baseline.common.BaselineEngine`): one client slot per
program, the slot with the earliest simulated time executes its next
*operation* (not its whole transaction) before control moves on.
Interleaving at operation granularity is what exposes MVTSO's write
conflicts and cascading aborts under contention — the paper's NoPriv is
contention-bottlenecked on TPC-C for exactly this reason.  What NoPriv adds
to the loop is the *dependency wait*: a transaction that read an uncommitted
write parks until its writers resolve.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.api.engine import ProgramFactory
from repro.baseline.common import BaselineEngine, WaveRunner
from repro.concurrency.mvtso import MVTSOManager, WriteConflictError
from repro.concurrency.transaction import AbortReason, TransactionStatus
from repro.core.client import ABORT, COMMIT, TransactionResult, Write
from repro.sim.clock import SimClock
from repro.storage.memory import InMemoryStorageServer


class NoPrivEngine(BaselineEngine):
    """The paper's NoPriv baseline: MVTSO over plain remote storage."""

    name = "nopriv"

    #: CPU charged per operation for MVTSO dependency tracking; the paper
    #: observes this becomes NoPriv's bottleneck on SmallBank.
    CPU_PER_OP_MS = 0.011
    CPU_PER_COMMIT_MS = 0.020

    def __init__(self, backend: str = "server", clock: Optional[SimClock] = None,
                 storage: Optional[InMemoryStorageServer] = None) -> None:
        super().__init__(backend, clock, storage)
        self.mvtso = MVTSOManager()

    def submit_many(self, programs: Sequence[ProgramFactory]) -> List[TransactionResult]:
        """Run one wave (see :meth:`BaselineEngine.submit_many`), then settle it."""
        results = super().submit_many(programs)
        self._settle_wave()
        return results

    def _settle_wave(self) -> None:
        """Drop the MVTSO state no later wave can observe.

        Every transaction of the wave has resolved, so its record goes, and
        each version chain keeps only its newest committed version: a later
        transaction's timestamp exceeds every one of this wave's, so it
        reads that version or the store and conflicts with no old marker.
        """
        unresolved = [txn.txn_id for txn in self.mvtso.transactions.values()
                      if not txn.is_finished]
        if unresolved:
            raise RuntimeError(f"nopriv wave ended with unresolved transactions {unresolved}")
        self.mvtso.transactions.clear()
        self.mvtso.store.keep_committed()

    # ------------------------------------------------------------------ #
    # The wave loop's hooks
    # ------------------------------------------------------------------ #
    def _begin_wave(self, slots: int) -> None:
        overlap = self.latency.effective_parallelism(slots)
        queueing = max(1.0, slots / overlap)
        self._read_cost_ms = (self.latency.read_rtt_ms * queueing
                              + self.latency.per_request_server_ms)
        self._waiting_for_deps: List[WaveRunner] = []

    def _begin_transaction(self):
        return self.mvtso.begin(epoch=0, now_ms=0.0)

    def _parked(self) -> bool:
        return bool(self._waiting_for_deps)

    def _advance(self, runner: WaveRunner) -> None:
        if runner.record.is_finished:
            # Aborted in cascade while queued; surface it.
            self._finish(runner, False,
                         (runner.record.abort_reason or AbortReason.CASCADE).value)
            return
        outcome = self._step(runner)
        self._cpu_ms += self.CPU_PER_OP_MS
        if outcome == "running":
            self._schedule(runner)
        elif outcome == "waiting":
            self._waiting_for_deps.append(runner)
            self._resolve_waiting()
        else:
            committed, reason = outcome
            self._cpu_ms += self.CPU_PER_COMMIT_MS
            self._finish(runner, committed, reason)
            self._resolve_waiting()

    def _resolve_waiting(self) -> None:
        """Resolve every parked transaction whose writers have all resolved."""
        still: List[WaveRunner] = []
        for runner in self._waiting_for_deps:
            record = runner.record
            deps = [self.mvtso.transactions[d] for d in record.dependencies
                    if d in self.mvtso.transactions]
            if record.status is TransactionStatus.ABORTED:
                self._finish(runner, False,
                             (record.abort_reason or AbortReason.CASCADE).value)
            elif any(d.status is TransactionStatus.ABORTED for d in deps):
                self.mvtso.abort(record, AbortReason.CASCADE, runner.time_ms)
                self._finish(runner, False, AbortReason.CASCADE.value)
            elif all(d.is_finished for d in deps):
                self._commit(runner)
                self._finish(runner, True, None)
            else:
                still.append(runner)
        self._waiting_for_deps[:] = still

    def _unpark(self) -> None:
        self._resolve_waiting()
        if self._waiting_for_deps:
            # Remaining transactions wait on each other: commit the oldest
            # to break the tie (its dependencies, if any, are also in this
            # set and will resolve next).
            self._waiting_for_deps.sort(key=lambda r: r.record.timestamp)
            runner = self._waiting_for_deps.pop(0)
            self._commit(runner)
            self._finish(runner, True, None)

    # ------------------------------------------------------------------ #
    # One operation at a time
    # ------------------------------------------------------------------ #
    def _step(self, runner: WaveRunner):
        """Execute the runner's next request.

        Returns ``"running"`` while the transaction has more requests,
        ``"waiting"`` if it finished but must wait for uncommitted
        dependencies, or ``(committed, reason)`` when it resolved.
        """
        record = runner.record
        # Charge a sliver of client CPU per operation so concurrent
        # transactions do not execute at identical simulated instants.
        runner.time_ms += self.CPU_PER_OP_MS
        request = runner.run.next()
        if request is COMMIT:
            record.request_commit()
            return self._try_commit(runner)
        if request is ABORT:
            self.mvtso.abort(record, AbortReason.USER, runner.time_ms)
            return False, AbortReason.USER.value
        if isinstance(request, Write):
            try:
                self.mvtso.write(record, request.key, bytes(request.value))
            except WriteConflictError:
                self.mvtso.abort(record, AbortReason.WRITE_CONFLICT, runner.time_ms)
                return False, AbortReason.WRITE_CONFLICT.value
            runner.run.answer()
            return "running"
        values = {}
        fetched_any = False
        for key in request.keys:
            value, _writer = self.mvtso.read(record, key)
            if value is None:
                value = self._storage_read(key)
                fetched_any = True
            values[key] = value
        if fetched_any:
            # Independent keys are fetched concurrently: one round trip.
            runner.time_ms += self._read_cost_ms
        runner.run.answer(values)
        return "running"

    def _try_commit(self, runner: WaveRunner):
        """Commit if all observed writers have resolved; park otherwise."""
        record = runner.record
        deps = [self.mvtso.transactions[d] for d in record.dependencies
                if d in self.mvtso.transactions]
        if any(d.status is TransactionStatus.ABORTED for d in deps):
            self.mvtso.abort(record, AbortReason.CASCADE, runner.time_ms)
            return False, AbortReason.CASCADE.value
        if any(not d.is_finished for d in deps):
            return "waiting"
        self._commit(runner)
        return True, None

    def _commit(self, runner: WaveRunner) -> None:
        """Commit: apply the write set to storage and finish the record."""
        record = runner.record
        if record.status is TransactionStatus.ACTIVE:
            record.request_commit()
        if record.write_set:
            self._storage_write_many(record.write_set)
            runner.time_ms += self.latency.write_rtt_ms
        self.mvtso.commit(record, now_ms=runner.time_ms)
