"""The one shared closed-loop driver.

The closed-loop retry logic lives here and nowhere else:

* :func:`run_closed_loop` is the engine-agnostic loop every
  :class:`~repro.api.engine.TransactionEngine` uses: draw up to ``clients``
  programs (retries first), execute them as one wave via
  ``engine.submit_many``, record outcomes, re-queue aborted programs up to
  ``max_retries`` times.
* :class:`RetryPolicy` is the retry/backoff policy itself.  The closed loop
  uses its attempt accounting; the baselines' internal discrete-event
  simulations use its :meth:`RetryPolicy.backoff_ms` so a conflict-aborted
  transaction is not replayed in lockstep.

Conflict resolution is a strategy seam (``repro.concurrency.repair``):
after each wave the driver hands the aborted attempts to a
:class:`~repro.concurrency.repair.ConflictStrategy`, which may replace them
with repaired results; whatever it leaves unresolved goes through the
re-queue path above.  The default :class:`~repro.concurrency.repair.
RetryStrategy` resolves nothing, keeping fixed-seed runs byte-identical to
the historical driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.api.engine import FactorySource, ProgramFactory, TransactionEngine
from repro.api.results import RunStats
from repro.concurrency.repair import WaveEntry, as_conflict_strategy


@dataclass(frozen=True)
class CounterBaseline:
    """Engine counter snapshot taken when a load-generation driver starts.

    Both drivers (:func:`run_closed_loop` here and
    :func:`repro.api.openloop.run_open_loop`) report *per-run deltas* of the
    engine's lifetime counters; this captures the "before" side once and
    :meth:`finalize` writes every delta into a ``RunStats``, so a counter
    added to the engine surface (as each topology PR has done) is wired in
    exactly one place.
    """

    start_ms: float
    io: Tuple[int, int]
    partitions: List[Tuple[int, int]]
    servers: List[Tuple[int, int]]
    workers: List[Tuple[int, int]]
    cpu_ms: float

    @classmethod
    def capture(cls, engine: TransactionEngine) -> "CounterBaseline":
        """Snapshot ``engine``'s clock and cumulative counters."""
        return cls(start_ms=engine.clock.now_ms,
                   io=engine.io_counters(),
                   partitions=engine.partition_io_counters(),
                   servers=engine.server_io_counters(),
                   workers=engine.worker_op_counters(),
                   cpu_ms=engine.cpu_ms())

    def finalize(self, stats: RunStats, engine: TransactionEngine) -> RunStats:
        """Fill ``stats`` with the elapsed time and counter deltas since capture."""
        stats.elapsed_ms = engine.clock.now_ms - self.start_ms
        reads_after, writes_after = engine.io_counters()
        stats.physical_reads = reads_after - self.io[0]
        stats.physical_writes = writes_after - self.io[1]
        stats.partition_physical = _counter_deltas(self.partitions,
                                                   engine.partition_io_counters())
        stats.server_physical = _counter_deltas(self.servers,
                                                engine.server_io_counters())
        stats.worker_ops = _counter_deltas(self.workers,
                                           engine.worker_op_counters())
        stats.cpu_ms = engine.cpu_ms() - self.cpu_ms
        return stats


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff applied when an aborted transaction is re-submitted.

    ``backoff_slope_ms`` grows the delay linearly with the attempt number;
    ``jitter_step_ms`` adds a deterministic per-transaction phase
    (``txn_id % jitter_buckets``) so concurrent retries do not re-align.
    Real clients get the same effect from scheduling noise.  (How *many*
    retries are allowed is a call-site parameter — ``max_retries`` on
    :func:`run_closed_loop` and the baselines' ``run_transactions`` — not
    part of the backoff policy.)
    """

    backoff_slope_ms: float = 0.2
    jitter_step_ms: float = 0.05
    jitter_buckets: int = 7

    def backoff_ms(self, txn_id: int, attempts: int) -> float:
        """Delay before re-submitting ``txn_id``'s ``attempts``-th retry."""
        jitter = (txn_id % self.jitter_buckets) * self.jitter_step_ms
        return jitter + self.backoff_slope_ms * attempts


DEFAULT_RETRY_POLICY = RetryPolicy()


def _counter_deltas(before: List[Tuple[int, int]],
                    after: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Per-entry ``after - before`` for (reads, writes) counter lists.

    ``before`` may be shorter than ``after`` (an engine can grow entries,
    e.g. after a topology-preserving recovery); missing entries count as 0.
    """
    return [(reads - (before[i][0] if i < len(before) else 0),
             writes - (before[i][1] if i < len(before) else 0))
            for i, (reads, writes) in enumerate(after)]


def resolve_conflict_strategy(engine: TransactionEngine, conflict_strategy):
    """The strategy a loop driver should run ``engine`` with.

    ``None`` defers to the engine's own preference
    (:meth:`~repro.api.engine.TransactionEngine.conflict_strategy`), so an
    engine configured for repair gets repair-aware driving without the
    caller threading the knob through; a name or strategy instance wins
    over the engine preference.
    """
    if conflict_strategy is None:
        conflict_strategy = engine.conflict_strategy()
    return as_conflict_strategy(conflict_strategy)


def account_final_result(stats: RunStats, result) -> None:
    """Fold one final (post-strategy) result into the abort breakdown.

    Shared by both loop drivers.  ``wasted_attempts`` counts discarded
    work: every aborted attempt wastes one, and a failed repair wastes one
    more on top of the abort it could not prevent — while a *successful*
    repair salvages its attempt and wastes nothing.
    """
    if getattr(result, "repaired", False):
        stats.repaired += 1
    if getattr(result, "repair_failed", False):
        stats.repair_failed += 1
        stats.wasted_attempts += 1
    if not result.committed:
        stats.wasted_attempts += 1
        if result.abort_reason:
            stats.aborts_by_reason[result.abort_reason] = (
                stats.aborts_by_reason.get(result.abort_reason, 0) + 1)


def run_closed_loop(engine: TransactionEngine, factory_source: FactorySource,
                    total_transactions: int, clients: int = 32,
                    max_retries: int = 2, max_batches: int = 10_000,
                    conflict_strategy=None) -> RunStats:
    """Run ``total_transactions`` through ``engine``, closed loop.

    Each iteration fills up to ``clients`` slots — retried programs first,
    then fresh draws from ``factory_source`` — and hands the wave to
    ``engine.submit_many``.  The wave's aborted attempts are offered to the
    ``conflict_strategy`` (see :func:`resolve_conflict_strategy`); whatever
    it leaves aborted is re-queued until the program has been retried
    ``max_retries`` times; afterwards its abort is final and the slot draws
    fresh work.  ``max_batches`` bounds the loop for pathological
    configurations (e.g. an epoch too small for any transaction to finish).
    """
    strategy = resolve_conflict_strategy(engine, conflict_strategy)
    stats = RunStats(engine=engine.name)
    baseline = CounterBaseline.capture(engine)

    remaining = total_transactions
    # Attempt counts travel with their factory; keying a dict by id(factory)
    # would alias once a finished factory is garbage-collected and its
    # address reused by a fresh one.
    retry_pool: List[Tuple[ProgramFactory, int]] = []

    while (remaining > 0 or retry_pool) and stats.epochs < max_batches:
        wave: List[Tuple[ProgramFactory, int]] = []
        while retry_pool and len(wave) < clients:
            wave.append(retry_pool.pop(0))
        while remaining > 0 and len(wave) < clients:
            wave.append((factory_source(), 0))
            remaining -= 1
        if not wave:
            break

        results = engine.submit_many([factory for factory, _ in wave])
        stats.epochs += 1

        replacements = strategy.resolve(engine, [
            WaveEntry(index=i, factory=factory, attempts=attempts, result=result)
            for i, ((factory, attempts), result) in enumerate(zip(wave, results))
            if not result.committed])
        for i, ((factory, attempts), result) in enumerate(zip(wave, results)):
            final = replacements.get(i, result)
            stats.results.append(final)
            account_final_result(stats, final)
            if final.committed:
                stats.committed += 1
                stats.latencies_ms.append(final.latency_ms)
            else:
                stats.aborted += 1
                if attempts < max_retries:
                    retry_pool.append((factory, attempts + 1))
                    stats.retries += 1

    baseline.finalize(stats, engine)
    engine._notify_run_end(stats)
    return stats
