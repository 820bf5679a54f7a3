"""The one wave loop, and the closed-loop driver over it.

Every :class:`~repro.api.engine.TransactionEngine` is driven the same way:
fill a wave — retried programs first, then fresh ones — execute it with
``engine.submit_many``, account for the outcomes, re-queue the aborted
programs that still have retries left.  :func:`run_waves` is that loop, and
it is the only place retrying happens: an engine runs the wave it is given
and reports each program's fate, nothing more.

The two load-generation drivers differ only in where a wave's *fresh*
programs come from (a :class:`ProgramSupply`):

* :func:`run_closed_loop` (here) draws them on demand — a new program exists
  only once a client slot is free, so nothing ever waits;
* :func:`repro.api.openloop.run_open_loop` admits them by the clock through
  a bounded queue, and therefore also measures queueing delay.

Conflict *repair* is not a driver concern: an engine configured for it
(``ObladiConfig.conflict_strategy="repair"``) repairs losers inside the epoch
that detected the conflict and reports them ``repaired`` / ``repair_failed``;
the loop only counts those flags.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.api.engine import FactorySource, ProgramFactory, TransactionEngine
from repro.api.results import RunStats


class ProgramSupply:
    """Where a wave's fresh programs come from.

    ``queued`` says whether a program can wait between becoming ready and
    being dispatched; only then does :func:`run_waves` record queueing delay.
    """

    queued = False

    def fresh(self, room: int, idle: bool) -> List[Tuple[ProgramFactory, float]]:
        """Up to ``room`` fresh programs as ``(factory, ready_ms)``.

        ``idle`` is true when the wave holds no retry, i.e. nothing but a
        fresh program can make progress.  ``ready_ms`` is read only when
        ``queued``.
        """
        raise NotImplementedError


class _OnDemand(ProgramSupply):
    """The closed loop's supply: draw a program whenever a slot is free."""

    def __init__(self, factory_source: FactorySource, total: int) -> None:
        self._source = factory_source
        self._remaining = total

    def fresh(self, room, idle):
        count = max(0, min(room, self._remaining))
        self._remaining -= count
        return [(self._source(), 0.0) for _ in range(count)]


def account_final_result(stats: RunStats, result) -> None:
    """Fold one delivered result into ``stats``' outcome counts.

    The one per-result accounting: :func:`run_waves` folds each wave's
    results with it, and :meth:`TransactionEngine.stats()
    <repro.api.engine.TransactionEngine.stats>` folds every result the
    engine ever delivered.  ``wasted_attempts`` counts discarded work: every
    aborted attempt wastes one, and a failed repair wastes one more on top
    of the abort it could not prevent — while a *successful* repair
    salvages its attempt and wastes nothing.
    """
    stats.results.append(result)
    if result.committed:
        stats.committed += 1
        stats.latencies_ms.append(result.latency_ms)
    else:
        stats.aborted += 1
        stats.wasted_attempts += 1
        if result.abort_reason:
            stats.aborts_by_reason[result.abort_reason] = (
                stats.aborts_by_reason.get(result.abort_reason, 0) + 1)
    if result.repaired:
        stats.repaired += 1
    if result.repair_failed:
        stats.repair_failed += 1
        stats.wasted_attempts += 1


def run_waves(engine: TransactionEngine, stats: RunStats, supply: ProgramSupply,
              capacity: int, max_retries: int, max_waves: int) -> RunStats:
    """Drive ``engine`` wave by wave until ``supply`` and the retries run dry.

    Each wave holds at most ``capacity`` programs: the retry pool's oldest
    entries first, then whatever ``supply`` adds.  An aborted attempt is
    re-queued until its program has been retried ``max_retries`` times;
    afterwards its abort is final.  Retries are never delayed: a re-queued
    program rides the very next wave.  ``max_waves`` bounds the loop for
    pathological configurations (e.g. an epoch too small for any transaction
    to finish).  ``stats`` is filled in place — counters as deltas over the
    run — and handed to the engine's observers.
    """
    start_ms = engine.clock.now_ms
    before = engine.counters()
    capacity = max(0, capacity)
    # Attempt counts travel with their factory; keying a dict by id(factory)
    # would alias once a finished factory is garbage-collected and its
    # address reused by a fresh one.
    retry_pool: List[Tuple[ProgramFactory, int, float]] = []

    while stats.epochs < max_waves:
        wave = retry_pool[:capacity]
        del retry_pool[:capacity]
        wave += [(factory, 0, ready_ms) for factory, ready_ms
                 in supply.fresh(capacity - len(wave), idle=not wave)]
        if not wave:
            break

        dispatch_ms = engine.clock.now_ms
        results = engine.submit_many([factory for factory, _, _ in wave])
        stats.epochs += 1

        for (factory, attempts, ready_ms), result in zip(wave, results):
            account_final_result(stats, result)
            if result.committed:
                if supply.queued:
                    stats.queue_delays_ms.append(dispatch_ms - ready_ms)
            elif attempts < max_retries:
                retry_pool.append((factory, attempts + 1, engine.clock.now_ms))
                stats.retries += 1

    stats.elapsed_ms = engine.clock.now_ms - start_ms
    (engine.counters() - before).write_to(stats)
    engine._notify_run_end(stats)
    return stats


def run_closed_loop(engine: TransactionEngine, factory_source: FactorySource,
                    total_transactions: int, clients: int = 32,
                    max_retries: int = 2, max_batches: int = 10_000) -> RunStats:
    """Run ``total_transactions`` through ``engine``, closed loop.

    Each wave fills up to ``clients`` slots — retried programs first, then
    fresh draws from ``factory_source`` — so the engine is never offered more
    than it can absorb.  Retry and ``max_batches`` semantics are
    :func:`run_waves`'.
    """
    supply = _OnDemand(factory_source, total_transactions)
    return run_waves(engine, RunStats(engine=engine.name), supply,
                     capacity=clients, max_retries=max_retries,
                     max_waves=max_batches)
