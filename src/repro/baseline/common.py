"""The wave simulator both baseline executors share.

A baseline's primitive is "run this wave": every program of the wave starts
at the wave's instant in a client slot of its own, and the programs are
interleaved at *operation* granularity over a simulated clock —

* each slot runs its one transaction and advances its own local time as the
  operations incur storage round trips;
* the slot with the earliest local time executes its next operation (not its
  whole transaction) before control moves on, which is what exposes
  conflicts exactly where concurrent executions would produce them;
* the proxy's CPU is a shared, serial resource: operations also charge a
  small CPU cost to a global accumulator, and the wave's makespan is the
  larger of "last client finished" and "total CPU demanded" — this is how
  the ``dummy``/LAN configurations become CPU-bound while WAN configurations
  stay I/O-bound, as in the paper.

:class:`WaveExecutor` is that event loop, written once.  The two baselines
specialise what one operation does and what it means to be stuck:
:class:`~repro.baseline.nopriv.NoPrivProxy` parks transactions that wait for
uncommitted writers, :class:`~repro.baseline.mysql_like.TwoPhaseLockingStore`
parks lock waiters and aborts deadlock victims.  Nothing is retried here: an
aborted program is reported aborted, and the engine layer's wave loop
(:func:`repro.api.loop.run_waves`) decides whether it rides a later wave.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.engine import ProgramFactory
from repro.api.results import RunStats
from repro.concurrency.transaction import CommittedTransaction, TransactionRecord
from repro.core.client import ProgramRun, TransactionResult
from repro.sim.clock import SimClock
from repro.sim.latency import get_latency_model
from repro.storage.memory import InMemoryStorageServer


class WaveRunner:
    """One in-flight transaction of a wave, in its own client slot."""

    def __init__(self, run: ProgramRun, record: TransactionRecord) -> None:
        self.run = run
        self.record = record
        self.time_ms = 0.0              # slot-local; every wave starts at 0
        self.done = False


class WaveExecutor:
    """Discrete-event execution of one wave, one client slot per program.

    The executor owns the plain key-value store the baseline runs over (the
    server itself never advances the clock: storage cost is charged to the
    client slot that waits for it) and the committed history.  Subclasses
    provide the hooks:

    * ``_begin_wave(slots)`` resets their per-wave state;
    * ``_begin_transaction()`` opens the record of a transaction that
      starts at slot time 0;
    * ``_advance(runner)`` executes the runner's next request (read off its
      :class:`~repro.core.client.ProgramRun`), then re-schedules
      (:meth:`_schedule`), parks or finishes (:meth:`_finish`) it;
    * ``_parked()`` says whether anyone is parked, and ``_unpark()``
      finishes or re-schedules at least one parked transaction when
      nothing is runnable.

    The wave's state lives on the executor while the wave runs; an
    executor runs one wave at a time.
    """

    #: ``RunStats.engine`` of the waves this executor runs.
    engine_name = ""

    def __init__(self, backend: str = "server", clock: Optional[SimClock] = None,
                 storage: Optional[InMemoryStorageServer] = None) -> None:
        self.latency = get_latency_model(backend)
        self.clock = clock if clock is not None else SimClock()
        if storage is None:
            storage = InMemoryStorageServer(clock=self.clock, record_trace=False)
        else:
            storage.clock = self.clock
        self.storage = storage
        self.committed_history: List[CommittedTransaction] = []
        #: Simulated proxy CPU spent over every wave this executor ran.
        self.cpu_ms = 0.0

    # -- data loading and raw storage access ---------------------------- #
    def load_initial_data(self, items: Dict[str, bytes]) -> None:
        """Install the initial database state on the storage server."""
        self.storage.write_batch({f"kv/{key}": value for key, value in items.items()})

    def _storage_read(self, key: str) -> Optional[bytes]:
        return self.storage.read_batch([f"kv/{key}"], record_batch=False)[f"kv/{key}"]

    def _storage_write_many(self, items: Dict[str, Optional[bytes]]) -> None:
        payload = {f"kv/{key}": (value if value is not None else b"")
                   for key, value in items.items()}
        if payload:
            self.storage.write_batch(payload, record_batch=False)

    # -- the wave loop --------------------------------------------------- #
    def run_transactions(self, factories: Sequence[ProgramFactory]) -> RunStats:
        """Run one wave to completion and report every program's fate once.

        Each program is a factory or a generator object (see
        :class:`~repro.core.client.ProgramRun`).
        """
        self._run = RunStats(engine=self.engine_name)
        self._active: List[Tuple[float, int, WaveRunner]] = []   # earliest first
        self._seq = 0
        self._cpu_ms = 0.0
        self._finish_ms = 0.0
        base_ms = self.clock.now_ms
        runs = [ProgramRun(factory) for factory in factories]

        self._begin_wave(max(1, len(runs)))
        for run in runs:
            self._schedule(WaveRunner(run, self._begin_transaction()))
        while self._active or self._parked():
            if not self._active:
                self._unpark()
                continue
            _, _, runner = heapq.heappop(self._active)
            if not runner.done:
                self._advance(runner)

        run = self._run
        run.cpu_ms = self._cpu_ms
        self.cpu_ms += self._cpu_ms
        run.elapsed_ms = max(self._finish_ms, self._cpu_ms)
        # Slot times are wave-local; anchor the shared clock at the call's
        # start so consecutive waves accumulate simulated time correctly.
        self.clock.advance_to(base_ms + run.elapsed_ms)
        return run

    def _schedule(self, runner: WaveRunner) -> None:
        """Make ``runner`` runnable at its slot's local time."""
        heapq.heappush(self._active, (runner.time_ms, self._seq, runner))
        self._seq += 1

    def _finish(self, runner: WaveRunner, committed: bool,
                reason: Optional[str]) -> None:
        """Account for a transaction that resolved at its slot's local time."""
        run = self._run
        self._finish_ms = max(self._finish_ms, runner.time_ms)
        if committed:
            self.committed_history.append(
                CommittedTransaction.from_record(runner.record))
            run.committed += 1
            run.latencies_ms.append(runner.time_ms)
        else:
            run.aborted += 1
        run.results.append(TransactionResult(
            txn_id=runner.record.txn_id, committed=committed,
            return_value=runner.run.return_value if committed else None,
            abort_reason=reason, latency_ms=runner.time_ms, epoch=-1))
        runner.done = True
