"""The :class:`TransactionEngine` interface.

Every system the evaluation compares — the Obladi proxy, the NoPriv
baseline, the MySQL-like strict-2PL store — implements this one interface,
so workloads, experiments, examples and benchmarks are written once and run
against all of them.  The interface deliberately mirrors how the paper
treats its systems: identical transaction programs in, commit/abort
decisions and timing out.

Transaction *programs* are the generator programs of
:mod:`repro.core.client`: a zero-argument callable returning a generator
that yields :class:`~repro.core.client.Read` / ``ReadMany`` / ``Write`` /
``AbortRequest`` operations.  Engines accept either the callable (preferred;
required wherever a program may be retried) or a bare generator object.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, Sequence

from repro.api.results import Counters, RunStats
from repro.concurrency.transaction import CommittedTransaction
from repro.core.client import Read, Transaction, TransactionResult

ProgramFactory = Callable[[], object]
FactorySource = Callable[[], ProgramFactory]


class EngineFeatureUnavailable(NotImplementedError):
    """Raised when an engine does not support an optional capability.

    Crash/recovery is the paper's example: Obladi checkpoints obliviously and
    can lose its proxy, while the baselines have no durability story, so
    ``crash()`` on a baseline engine raises this.
    """

    def __init__(self, engine: str, feature: str) -> None:
        super().__init__(f"engine {engine!r} does not support {feature}")
        self.engine = engine
        self.feature = feature


class TransactionEngine(abc.ABC):
    """One serializable transaction system behind a uniform API.

    Concrete engines are created with :func:`repro.api.create_engine`:
    :class:`~repro.api.adapters.ObladiEngine` wraps the proxy, and the
    baselines (:mod:`repro.baseline`) are engines themselves.

    The engine keeps one ledger: every result a ``submit_many`` wave
    delivered and the wave's committed transactions, entered once by
    :meth:`_record_wave`.  :meth:`stats` is a fold of the results and
    :attr:`committed_history` is the transactions, so a crash, recovery or
    reshard cutover behind the engine cannot lose or double-count an
    outcome its clients were told.  The ledger starts in ``__init__``,
    which reads :attr:`clock`: a subclass calls ``super().__init__()`` once
    its clock is readable.
    """

    #: Stable engine name (matches the ``create_engine`` kind).
    name: str = "engine"
    #: Whether :meth:`crash` / :meth:`recover` are meaningful.
    supports_crash_recovery: bool = False

    def __init__(self) -> None:
        # Lifetime stats are measured from here, not from clock zero: a
        # shared clock may already have advanced before this engine existed.
        self._start_ms = self.clock.now_ms
        self._waves = 0
        self._delivered: List[TransactionResult] = []
        self._history: List[CommittedTransaction] = []
        self._observers: List[object] = []

    # ------------------------------------------------------------------ #
    # Data plane
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def load_initial_data(self, items: Dict[str, bytes]) -> None:
        """Bulk-load a dataset before serving transactions."""

    def submit(self, program) -> TransactionResult:
        """Execute one transaction program to completion and return its fate."""
        return self.submit_many([program])[0]

    @abc.abstractmethod
    def submit_many(self, programs: Sequence[ProgramFactory]) -> List[TransactionResult]:
        """Execute a wave of programs concurrently.

        Results are returned in submission order (``results[i]`` is the fate
        of ``programs[i]``).  This is the primitive both loop drivers build
        on: for the Obladi proxy one wave is one epoch; for the baselines it
        is one batch of concurrent client slots.  An engine runs the wave it
        is given, once; retrying is the drivers' job.  Every wave's results
        and committed transactions enter the ledger (:meth:`_record_wave`)
        as soon as they are final.
        """

    def read(self, key: str) -> Optional[bytes]:
        """Read a single committed value through a one-off transaction."""

        def program():
            value = yield Read(key)
            return value

        result = self.submit(program)
        return result.return_value if result.committed else None

    def transaction(self) -> Transaction:
        """Interactive transaction context manager.

        Reads and writes are buffered client-side (reads see the engine's
        committed state, plus the transaction's own buffered writes) and
        submitted as one program on ``commit()`` / context exit.
        """
        return Transaction(submit=self.submit, read_now=self.read)

    # ------------------------------------------------------------------ #
    # Closed-loop execution
    # ------------------------------------------------------------------ #
    def run_closed_loop(self, factory_source: FactorySource, total_transactions: int,
                        clients: int = 32, max_retries: int = 2,
                        max_batches: int = 10_000):
        """Run ``total_transactions`` closed loop and return a ``RunStats``.

        All engines share one loop implementation
        (:func:`repro.api.loop.run_closed_loop`): ``clients`` concurrent
        slots, aborted transactions retried up to ``max_retries`` times.
        """
        from repro.api.loop import run_closed_loop
        return run_closed_loop(self, factory_source, total_transactions,
                               clients=clients, max_retries=max_retries,
                               max_batches=max_batches)

    # ------------------------------------------------------------------ #
    # Open-loop execution
    # ------------------------------------------------------------------ #
    def run_open_loop(self, factory_source: FactorySource, total_transactions: int,
                      arrivals=None, clients: int = 32,
                      queue_limit: Optional[int] = None, max_retries: int = 2,
                      max_waves: int = 100_000):
        """Offer ``total_transactions`` open loop and return a ``RunStats``.

        Arrivals follow ``arrivals`` — an
        :class:`~repro.api.openloop.ArrivalProcess`, a rate in transactions
        per simulated second (:class:`~repro.api.openloop.DeterministicArrivals`),
        or ``None`` for unbounded offered load — and pass through a bounded
        admission queue (``queue_limit``; full = arrival dropped) before
        being dispatched in batched ``submit_many`` waves of at most
        ``min(clients, open_loop_wave_limit())`` programs.  All engines
        share one driver (:func:`repro.api.openloop.run_open_loop`), just as
        they share the closed loop.
        """
        from repro.api.openloop import run_open_loop
        return run_open_loop(self, factory_source, total_transactions,
                             arrivals=arrivals, clients=clients,
                             queue_limit=queue_limit, max_retries=max_retries,
                             max_waves=max_waves)

    def open_loop_wave_limit(self) -> Optional[int]:
        """Engine-specific cap on one open-loop wave's size, or ``None``.

        ``None`` (the default) means the engine has no batching cadence of
        its own: the open loop drains the admission queue up to ``clients``
        per wave — right for the baselines, whose discrete-event wave loop
        takes any number of concurrent slots.  Engines with a natural batch
        shape override this; the Obladi adapter returns its epoch's read
        batch capacity so each wave pipelines one full epoch.
        """
        return None

    # ------------------------------------------------------------------ #
    # Observers
    # ------------------------------------------------------------------ #
    def attach_observer(self, observer):
        """Attach an observer and return it.

        Observers (:class:`repro.audit.observer.EngineObserver`) receive
        ``on_wave`` after every ``submit_many`` wave and ``on_run_end`` when
        a closed- or open-loop driver finishes.  They are passive: attaching
        one never changes the engine's simulated behaviour, so fixed-seed
        runs stay byte-identical.  The one action an observer may take is
        an operator's: staging a :meth:`reshard` from ``on_wave``, which
        starts at the next wave boundary (``bench/workloads.py`` reshards
        ``ycsb_hot_elastic`` after a fixed wave this way).  Returns the
        observer for chaining
        (``auditor = engine.attach_observer(AuditingObserver())``).
        """
        self._observers.append(observer)
        observer.on_attach(self)
        return observer

    def _record_wave(self, results: List[TransactionResult],
                     committed: List[CommittedTransaction]) -> None:
        """Enter one wave's results and commits into the ledger (engines call this)."""
        self._waves += 1
        self._delivered.extend(results)
        self._history.extend(committed)

    def _notify_wave(self, results) -> None:
        """Notify observers that a wave committed (engines call this)."""
        for observer in self._observers:
            observer.on_wave(self, results)

    def _notify_run_end(self, stats) -> None:
        """Stamp a loop driver's ``RunStats``, then notify observers (drivers call this).

        Stamping comes first so observers see the whole record; an observer
        may publish its own report on it (the auditor sets ``stats.audit``)
        but changes nothing the engine counted.
        """
        self._stamp(stats)
        for observer in self._observers:
            observer.on_run_end(self, stats)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> RunStats:
        """Cumulative :class:`~repro.api.results.RunStats` over the engine's lifetime.

        The ledger folded with the loop drivers' own per-result function
        (:func:`repro.api.loop.account_final_result`), so a run's
        ``RunStats`` and the lifetime stats count outcomes identically;
        ``epochs`` counts the recorded waves, and the counters are the
        engine's lifetime :meth:`counters`.  A fresh value on every call.
        """
        from repro.api.loop import account_final_result
        stats = RunStats(engine=self.name, epochs=self._waves,
                         elapsed_ms=self.clock.now_ms - self._start_ms)
        for result in self._delivered:
            account_final_result(stats, result)
        self.counters().write_to(stats)
        self._stamp(stats)
        return stats

    def _stamp(self, stats: RunStats) -> None:
        """Attach engine-owned records to ``stats`` before anyone reads it.

        Called on :meth:`stats` and on every loop driver's ``RunStats``
        (:meth:`_notify_run_end`).  The default attaches nothing; the Obladi
        engine stamps its completed migration windows.
        """

    @property
    @abc.abstractmethod
    def clock(self):
        """The engine's simulated clock (:class:`repro.sim.clock.SimClock`)."""

    @property
    def committed_history(self) -> List[CommittedTransaction]:
        """The ledger's committed transactions, for serializability checking."""
        return self._history

    @abc.abstractmethod
    def counters(self) -> Counters:
        """Snapshot of the engine's cumulative I/O, CC-operation and CPU counters.

        One :class:`~repro.api.results.Counters` value; the loop drivers
        report a run as the difference of two snapshots.
        """

    # ------------------------------------------------------------------ #
    # Elastic topology
    # ------------------------------------------------------------------ #
    @property
    def reshard_in_flight(self) -> bool:
        """Whether a staged or running topology change has yet to cut over."""
        return False

    def reshard(self, plan) -> None:
        """Stage a live topology change (a :class:`repro.elasticity.ReshardPlan`).

        The change takes effect at an epoch barrier: data migrations run as
        padded background batches across the following epochs and cut over
        when the copy completes.  Engines without an elastic topology raise
        :class:`EngineFeatureUnavailable` (the default).
        """
        raise EngineFeatureUnavailable(self.name, "reshard()")

    # ------------------------------------------------------------------ #
    # Fault injection
    # ------------------------------------------------------------------ #
    def crash(self) -> None:
        """Simulate losing the engine's volatile state (where supported)."""
        raise EngineFeatureUnavailable(self.name, "crash()")

    def recover(self):
        """Recover after :meth:`crash`; returns an engine-specific report."""
        raise EngineFeatureUnavailable(self.name, "recover()")
