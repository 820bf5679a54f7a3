"""The shared open-loop load generator.

:func:`run_closed_loop` measures "N clients in lockstep": a new transaction
is drawn only when a slot frees up, so the system is never offered more work
than it can absorb and queueing is invisible.  The paper's latency/throughput
trade-off (Figure 9) and epoch-size sensitivity (Figure 10) are statements
about *offered load* — how the system behaves as arrivals approach and pass
its service capacity — which only an open loop can express.

:func:`run_open_loop` is that second driver.  It runs the same wave loop
as the closed one (:func:`repro.api.loop.run_waves`: retries first, then
fresh programs, ``submit_many``, account, re-queue up to ``max_retries``
times) and differs only in where a wave's fresh programs come from:

* an :class:`ArrivalProcess` (:class:`DeterministicArrivals` or seeded
  :class:`PoissonArrivals`) generates arrival instants on the engine's
  :class:`~repro.sim.clock.SimClock`, independent of how fast the engine is
  serving;
* arrivals are admitted into a bounded admission queue (``queue_limit``);
  an arrival that finds the queue full is *dropped* and counted, never
  executed.  Retries were admitted once already and bypass the bound;
* waves are sized to the engine
  (:meth:`~repro.api.engine.TransactionEngine.open_loop_wave_limit`: the
  Obladi proxy pipelines full epoch read batches, the baselines drain
  whatever is queued up to ``clients``);
* queueing delay (arrival/re-queue to wave dispatch) is recorded separately
  from service latency, so :class:`~repro.api.results.RunStats` can report
  offered vs achieved throughput and queue-inclusive latency percentiles.

With unbounded arrivals (``arrivals=None``) and ``clients=1`` every program
is admitted at the start and each wave takes one, which is the closed loop's
schedule; ``tests/api/test_loop.py`` and the conformance suite pin it.

One boundary rule matters enough to state: an arrival whose instant lands
*exactly* on a wave boundary (``arrival_ms == clock.now_ms`` when admission
runs) belongs to that wave, and to that wave only — each arrival is drawn
from the process exactly once and enqueued at most once, so it can never be
double-admitted, and the inclusive comparison means it is never skipped
either (``tests/api/test_loop.py`` pins both directions).
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, Optional, Tuple, Union

from repro.api.engine import FactorySource, ProgramFactory, TransactionEngine
from repro.api.loop import ProgramSupply, run_waves
from repro.api.results import RunStats


class ArrivalProcess:
    """A pluggable arrival process: a stream of inter-arrival gaps.

    Subclasses implement :meth:`intervals`, yielding successive gaps in
    simulated milliseconds.  Arrival ``i`` occurs at
    ``start + sum(gaps[:i + 1])`` — the first gap separates the run's start
    from the first arrival.  A process must be *restartable*: every call to
    :meth:`intervals` yields the same stream, so two runs configured with
    the same process (and seed) see identical arrivals.
    """

    def intervals(self) -> Iterator[float]:
        """Yield successive inter-arrival gaps in simulated milliseconds."""
        raise NotImplementedError


@dataclass(frozen=True)
class DeterministicArrivals(ArrivalProcess):
    """Arrivals at a fixed rate: one every ``1000 / rate_tps`` ms.

    ``rate_tps=float("inf")`` means every transaction arrives at the run's
    start instant — the degenerate process :func:`run_open_loop` uses for
    ``arrivals=None``.
    """

    rate_tps: float

    def __post_init__(self) -> None:
        # NaN must be rejected explicitly: it fails every comparison, so a
        # NaN rate would slip past a plain <= 0 check and then make the
        # driver's admission/advance comparisons all False — an idle spin
        # that max_waves (which only counts dispatched waves) never bounds.
        if math.isnan(self.rate_tps) or self.rate_tps <= 0:
            raise ValueError(f"arrival rate must be positive, got {self.rate_tps}")

    def intervals(self) -> Iterator[float]:
        """Yield the constant gap ``1000 / rate_tps`` (0 for an infinite rate)."""
        gap = 0.0 if math.isinf(self.rate_tps) else 1000.0 / self.rate_tps
        while True:
            yield gap


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at mean rate ``rate_tps``, reproducible by seed.

    Gaps are drawn ``Random(seed).expovariate(rate_tps / 1000)``; the
    generator is re-seeded on every :meth:`intervals` call, so the same
    process object replays the identical arrival sequence run after run —
    the property the props suite asserts as "a fixed ``arrival_seed`` makes
    the full ``RunStats`` deterministic".
    """

    rate_tps: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.rate_tps > 0 and math.isfinite(self.rate_tps)):
            raise ValueError(f"Poisson rate must be positive and finite, "
                             f"got {self.rate_tps}")

    def intervals(self) -> Iterator[float]:
        """Yield exponential gaps from a fresh ``Random(seed)`` stream."""
        rng = random.Random(self.seed)
        rate_per_ms = self.rate_tps / 1000.0
        while True:
            yield rng.expovariate(rate_per_ms)


def as_arrival_process(arrivals: Union[ArrivalProcess, float, None]
                       ) -> ArrivalProcess:
    """Normalise the ``arrivals`` argument of :func:`run_open_loop`.

    ``None`` means unbounded offered load (everything arrives at the start),
    a number is shorthand for :class:`DeterministicArrivals` at that rate,
    and an :class:`ArrivalProcess` passes through unchanged.
    """
    if arrivals is None:
        return DeterministicArrivals(float("inf"))
    if isinstance(arrivals, ArrivalProcess):
        return arrivals
    if isinstance(arrivals, (int, float)):
        return DeterministicArrivals(float(arrivals))
    raise TypeError(f"arrivals must be an ArrivalProcess, a rate in txn/s, "
                    f"or None; got {type(arrivals).__name__}")


class _AdmissionQueue(ProgramSupply):
    """The open loop's supply: arrivals admitted by the clock, bounded queue.

    Every arrival whose instant has passed (inclusive: an arrival exactly on
    a wave boundary joins that wave, once) is drawn from ``factory_source``
    and queued, or dropped and counted when the queue is full.  When nothing
    else can run, the clock jumps to the next arrival instant — the
    generator is the only idle party; the engine's time only advances by its
    own work.
    """

    queued = True

    def __init__(self, engine: TransactionEngine, stats: RunStats,
                 process: ArrivalProcess, factory_source: FactorySource,
                 total: int, queue_limit: Optional[int]) -> None:
        self._engine = engine
        self._stats = stats
        self._gaps = process.intervals()
        self._source = factory_source
        self._remaining = total
        self._queue_limit = queue_limit
        self._queue: Deque[Tuple[ProgramFactory, float]] = deque()
        self._next_arrival_ms = engine.clock.now_ms + next(self._gaps)

    def _admit_through(self, now_ms: float) -> None:
        stats, queue = self._stats, self._queue
        while self._remaining > 0 and self._next_arrival_ms <= now_ms:
            self._remaining -= 1
            stats.offered += 1
            if self._queue_limit is not None and len(queue) >= self._queue_limit:
                stats.dropped += 1
            else:
                queue.append((self._source(), self._next_arrival_ms))
                stats.max_queue_depth = max(stats.max_queue_depth, len(queue))
            self._next_arrival_ms += next(self._gaps)

    def fresh(self, room, idle):
        clock = self._engine.clock
        self._admit_through(clock.now_ms)
        while idle and not self._queue and self._remaining > 0:
            clock.advance_to(self._next_arrival_ms)
            self._admit_through(clock.now_ms)
        return [self._queue.popleft()
                for _ in range(max(0, min(room, len(self._queue))))]


def run_open_loop(engine: TransactionEngine, factory_source: FactorySource,
                  total_transactions: int,
                  arrivals: Union[ArrivalProcess, float, None] = None,
                  clients: int = 32, queue_limit: Optional[int] = None,
                  max_retries: int = 2, max_waves: int = 100_000) -> RunStats:
    """Offer ``total_transactions`` to ``engine`` according to ``arrivals``.

    Before each wave every arrival whose instant has passed is admitted into
    the bounded admission queue (capacity ``queue_limit``; ``None`` =
    unbounded; a full queue drops the arrival); the wave then takes retries
    first and queued arrivals in FIFO order, at most
    ``min(clients, engine.open_loop_wave_limit())`` programs
    (:func:`repro.api.loop.run_waves`).  When nothing is pending and
    arrivals remain, the clock jumps to the next arrival instant.

    Queueing delay — admission (or re-queue, for retries) to wave dispatch —
    is recorded per committing attempt in ``RunStats.queue_delays_ms``,
    aligned with ``latencies_ms``; offered/dropped/queue-depth counters and
    the usual closed-loop accounting fill the rest of the
    :class:`~repro.api.results.RunStats`.  ``max_waves`` bounds the loop for
    pathological configurations, exactly like the closed loop's
    ``max_batches``.
    """
    stats = RunStats(engine=engine.name)
    wave_limit = engine.open_loop_wave_limit()
    capacity = clients if wave_limit is None else min(clients, max(1, wave_limit))
    supply = _AdmissionQueue(engine, stats, as_arrival_process(arrivals),
                             factory_source, total_transactions, queue_limit)
    return run_waves(engine, stats, supply, capacity=capacity,
                     max_retries=max_retries, max_waves=max_waves)
