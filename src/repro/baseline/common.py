"""The engine both baselines share: one wave, one client slot per program.

A baseline's ``submit_many`` runs one wave: every program of the wave starts
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

:class:`BaselineEngine` is that event loop, written once.  The two baselines
specialise what one operation does and what it means to be stuck:
:class:`~repro.baseline.nopriv.NoPrivEngine` parks transactions that wait for
uncommitted writers, :class:`~repro.baseline.mysql_like.MySQLEngine` parks
lock waiters and aborts deadlock victims.  Nothing is retried here: an
aborted program is reported aborted, and the loop drivers
(:func:`repro.api.loop.run_waves`) decide whether it rides a later wave.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.engine import ProgramFactory, TransactionEngine
from repro.api.results import Counters
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
        self.result: Optional[TransactionResult] = None


class BaselineEngine(TransactionEngine):
    """Discrete-event execution of waves, one client slot per program.

    The engine owns the plain key-value store the baseline runs over (the
    server itself never advances the clock: storage cost is charged to the
    client slot that waits for it).  Subclasses
    provide the hooks:

    * ``_begin_wave(slots)`` resets their per-wave state;
    * ``_begin_transaction()`` opens the record of a transaction that
      starts at slot time 0;
    * ``_advance(runner)`` executes the runner's next request (read off its
      :class:`~repro.core.client.ProgramRun`), then re-schedules
      (:meth:`_schedule`), parks or finishes (:meth:`_finish`) it;
    * ``_parked()`` says whether anyone is parked, and ``_unpark()``
      finishes or re-schedules at least one parked transaction when
      nothing is runnable.  By default nobody is parked.

    The wave's state lives on the engine while the wave runs; an engine
    runs one wave at a time.
    """

    def __init__(self, backend: str = "server", clock: Optional[SimClock] = None,
                 storage: Optional[InMemoryStorageServer] = None) -> None:
        self.latency = get_latency_model(backend)
        self._clock = clock if clock is not None else SimClock()
        if storage is None:
            storage = InMemoryStorageServer(clock=self._clock, record_trace=False)
        else:
            storage.clock = self._clock
        self.storage = storage
        #: Simulated proxy CPU spent over every wave this engine ran.
        self.cpu_ms = 0.0
        super().__init__()

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
    def submit_many(self, programs: Sequence[ProgramFactory]) -> List[TransactionResult]:
        """Run one wave to completion; ``results[i]`` is ``programs[i]``'s fate.

        Each program is a factory or a generator object (see
        :class:`~repro.core.client.ProgramRun`).
        """
        if not programs:
            return []
        self._active: List[Tuple[float, int, WaveRunner]] = []   # earliest first
        self._seq = 0
        self._cpu_ms = 0.0
        self._finish_ms = 0.0
        self._committed: List[CommittedTransaction] = []
        base_ms = self.clock.now_ms
        self._begin_wave(len(programs))
        runners = [WaveRunner(ProgramRun(program), self._begin_transaction())
                   for program in programs]
        for runner in runners:
            self._schedule(runner)
        while self._active or self._parked():
            if not self._active:
                self._unpark()
                continue
            _, _, runner = heapq.heappop(self._active)
            if runner.result is None:
                self._advance(runner)

        self.cpu_ms += self._cpu_ms
        # Slot times are wave-local; anchor the shared clock at the call's
        # start so consecutive waves accumulate simulated time correctly.
        self.clock.advance_to(base_ms + max(self._finish_ms, self._cpu_ms))
        results = [runner.result for runner in runners]
        if any(result is None for result in results):
            raise RuntimeError(f"{self.name} wave ended with an unresolved program")
        self._record_wave(results, self._committed)
        self._notify_wave(results)
        return results

    def _parked(self) -> bool:
        return False

    def _schedule(self, runner: WaveRunner) -> None:
        """Make ``runner`` runnable at its slot's local time."""
        heapq.heappush(self._active, (runner.time_ms, self._seq, runner))
        self._seq += 1

    def _finish(self, runner: WaveRunner, committed: bool,
                reason: Optional[str]) -> None:
        """Account for a transaction that resolved at its slot's local time."""
        self._finish_ms = max(self._finish_ms, runner.time_ms)
        if committed:
            self._committed.append(CommittedTransaction.from_record(runner.record))
        runner.result = TransactionResult(
            txn_id=runner.record.txn_id, committed=committed,
            return_value=runner.run.return_value if committed else None,
            abort_reason=reason, latency_ms=runner.time_ms, epoch=-1)

    # -- introspection -------------------------------------------------- #
    @property
    def clock(self) -> SimClock:
        return self._clock

    def counters(self) -> Counters:
        """Raw key I/O on the baseline's one storage server, and its CPU."""
        io = (self.storage.stats_reads, self.storage.stats_writes)
        return Counters(physical_reads=io[0], physical_writes=io[1],
                        server_physical=[io], cpu_ms=self.cpu_ms)
