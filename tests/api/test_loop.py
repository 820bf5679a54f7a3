"""Direct unit suite for the shared load-generation drivers.

The closed-loop driver (:func:`repro.api.loop.run_closed_loop`) and the
open-loop driver (:func:`repro.api.openloop.run_open_loop`) are exercised
end-to-end by every engine run, but their *scheduling decisions* — which
wave a retry lands in, when abort accounting stops re-queueing, how counter
deltas handle engines that grow entries mid-run, which wave an arrival on an
exact epoch boundary joins, how a repaired or repair-failed result is
counted — were previously only observable indirectly.  This file drives both
loops (one wave body, :func:`repro.api.loop.run_waves`) against a scripted
fake engine whose outcomes and timing are fully deterministic, so each
decision is pinned on its own.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.api import (DeterministicArrivals, PoissonArrivals,
                       TransactionEngine, run_closed_loop, run_open_loop)
from repro.api.openloop import as_arrival_process
from repro.api.results import Counters
from repro.core.client import TransactionResult
from repro.sim.clock import SimClock


# --------------------------------------------------------------------------- #
# Scripted fake engine
# --------------------------------------------------------------------------- #
def tagged_source(tags: Sequence[str]):
    """A factory source drawing tagged no-op factories in order."""
    remaining = list(tags)

    def source():
        tag = remaining.pop(0)

        def factory():
            return None

        factory.tag = tag
        return factory

    return source


class ScriptedEngine(TransactionEngine):
    """Deterministic fake engine: outcomes come from a per-tag script.

    ``script[tag]`` is the list of verdicts for that tag's successive
    attempts (``True`` = commit); missing tags and exhausted lists commit.
    Two more verdicts model an engine that repairs conflict losers inside
    the wave, as the Obladi proxy does: ``"repaired"`` commits with the
    result's ``repaired`` flag set, ``"repair_failed"`` aborts with its
    ``repair_failed`` flag set.  Every ``submit_many`` wave advances the
    clock by ``wave_ms`` and records the wave's tags and dispatch time, so
    tests can assert on the exact wave composition the drivers produced.
    """

    name = "scripted"

    def __init__(self, script: Optional[Dict[str, list]] = None,
                 wave_ms: float = 10.0,
                 wave_limit: Optional[int] = None) -> None:
        self._clock = SimClock()
        self.script = dict(script or {})
        self.wave_ms = wave_ms
        self.wave_limit = wave_limit
        self.waves: List[List[str]] = []
        self.wave_times: List[float] = []
        self._attempts: Dict[str, int] = {}
        self._next_txn_id = 0
        # Counter scripts: entry lists may *grow* between waves, like an
        # engine whose topology expands after a recovery.
        self.partition_counters: List[Tuple[int, int]] = []
        self.per_wave_partition_growth: List[List[Tuple[int, int]]] = []
        super().__init__()

    def load_initial_data(self, items) -> None:
        """No storage: the fake engine only scripts verdicts."""

    def submit_many(self, programs) -> List[TransactionResult]:
        """Resolve one wave according to the script; advance ``wave_ms``."""
        dispatch_ms = self._clock.now_ms
        self._clock.advance(self.wave_ms)
        if self.per_wave_partition_growth:
            growth = self.per_wave_partition_growth.pop(0)
            for index, (reads, writes) in enumerate(growth):
                if index < len(self.partition_counters):
                    old_r, old_w = self.partition_counters[index]
                    self.partition_counters[index] = (old_r + reads, old_w + writes)
                else:
                    self.partition_counters.append((reads, writes))
        tags = [getattr(p, "tag", "?") for p in programs]
        self.waves.append(tags)
        self.wave_times.append(dispatch_ms)
        results = []
        for tag in tags:
            attempt = self._attempts.get(tag, 0)
            self._attempts[tag] = attempt + 1
            verdicts = self.script.get(tag, [])
            verdict = verdicts[attempt] if attempt < len(verdicts) else True
            committed = verdict in (True, "repaired")
            results.append(TransactionResult(
                txn_id=self._next_txn_id, committed=committed,
                return_value=tag if committed else None,
                abort_reason=None if committed else "scripted",
                latency_ms=self.wave_ms, epoch=len(self.waves) - 1,
                repaired=verdict == "repaired",
                repair_failed=verdict == "repair_failed"))
            self._next_txn_id += 1
        self._record_wave(results, [])
        return results

    @property
    def clock(self) -> SimClock:
        """The fake engine's private clock."""
        return self._clock

    def counters(self) -> Counters:
        """The scripted per-partition counters (may grow between waves)."""
        return Counters(partition_physical=list(self.partition_counters))

    def open_loop_wave_limit(self) -> Optional[int]:
        """Scripted wave cap (None = drain up to ``clients``)."""
        return self.wave_limit


# --------------------------------------------------------------------------- #
# Closed-loop scheduling
# --------------------------------------------------------------------------- #
class TestClosedLoopScheduling:
    def test_retries_are_batched_before_fresh_draws(self):
        """An aborted attempt re-enters the *next* wave ahead of fresh work."""
        engine = ScriptedEngine(script={"B": [False, True], "C": [False, False]})
        run = run_closed_loop(engine, tagged_source(["A", "B", "C", "D"]),
                              total_transactions=4, clients=3, max_retries=1)
        # Wave 1 fills three slots with fresh draws; wave 2 leads with the
        # two retries and has one slot left for the last fresh draw.
        assert engine.waves == [["A", "B", "C"], ["B", "C", "D"]]
        assert run.committed == 3           # A, B (on retry), D
        assert run.aborted == 3             # B once, C twice
        assert run.retries == 2
        assert run.committed + run.aborted == 4 + run.retries
        assert len(run.results) == 6
        assert len(run.latencies_ms) == run.committed

    def test_abort_exhaustion_stops_requeueing(self):
        """After ``max_retries`` re-queues the abort is final: the slot
        draws fresh work and the program never reappears."""
        engine = ScriptedEngine(script={"X": [False] * 10})
        run = run_closed_loop(engine, tagged_source(["X"]),
                              total_transactions=1, clients=1, max_retries=2)
        assert engine.waves == [["X"], ["X"], ["X"]]   # 1 fresh + 2 retries
        assert run.committed == 0
        assert run.aborted == 3
        assert run.retries == 2
        assert run.latencies_ms == []
        assert all(r.abort_reason == "scripted" for r in run.results)

    def test_wave_size_is_capped_by_clients(self):
        engine = ScriptedEngine()
        run = run_closed_loop(engine, tagged_source(list("ABCDE")),
                              total_transactions=5, clients=2)
        assert [len(wave) for wave in engine.waves] == [2, 2, 1]
        assert run.epochs == 3

    def test_max_batches_bounds_pathological_runs(self):
        """A program that never commits cannot spin the loop forever."""
        engine = ScriptedEngine(script={"X": [False] * 100})
        run = run_closed_loop(engine, tagged_source(["X"]),
                              total_transactions=1, clients=1,
                              max_retries=99, max_batches=5)
        assert run.epochs == 5
        assert run.committed == 0

    def test_elapsed_is_measured_from_loop_start(self):
        """A clock that advanced before the run does not inflate elapsed."""
        engine = ScriptedEngine(wave_ms=7.0)
        engine.clock.advance(123.0)
        run = run_closed_loop(engine, tagged_source(["A", "B"]),
                              total_transactions=2, clients=1)
        assert run.elapsed_ms == pytest.approx(14.0)


class TestCounterDeltas:
    def test_entrywise_subtraction(self):
        before = Counters(physical_reads=6, physical_writes=3, cpu_ms=1.5,
                          partition_physical=[(5, 2), (1, 1)])
        after = Counters(physical_reads=12, physical_writes=4, cpu_ms=4.0,
                         partition_physical=[(8, 3), (4, 1)])
        assert after - before == Counters(
            physical_reads=6, physical_writes=1, cpu_ms=2.5,
            partition_physical=[(3, 1), (3, 0)])

    def test_ragged_growth_counts_missing_entries_as_zero(self):
        """An engine may grow counter entries mid-run (e.g. a recovery that
        expands the topology); new entries delta from zero."""
        before = Counters(server_physical=[(5, 2)])
        after = Counters(server_physical=[(6, 2), (4, 7)])
        assert (after - before).server_physical == [(1, 0), (4, 7)]

    def test_ragged_sum_spans_the_longer_list(self):
        """Summing a retired proxy's counters with its successor's keeps
        every entry either side has (a reshard may shrink the topology)."""
        retired = Counters(worker_ops=[(5, 2), (1, 1)], cpu_ms=1.0)
        current = Counters(worker_ops=[(2, 2)], cpu_ms=0.5)
        assert retired + current == current + retired == Counters(
            worker_ops=[(7, 4), (1, 1)], cpu_ms=1.5)

    def test_closed_loop_reports_partition_deltas_across_growth(self):
        engine = ScriptedEngine()
        engine.partition_counters = [(100, 50)]          # pre-run traffic
        engine.per_wave_partition_growth = [
            [(3, 1)],                                    # wave 1: partition 0
            [(2, 0), (7, 4)],                            # wave 2 grows a partition
        ]
        run = run_closed_loop(engine, tagged_source(list("ABCD")),
                              total_transactions=4, clients=2)
        assert run.partition_physical == [(5, 1), (7, 4)]


# --------------------------------------------------------------------------- #
# Arrival processes
# --------------------------------------------------------------------------- #
class TestArrivalProcesses:
    def test_deterministic_gap_is_inverse_rate(self):
        gaps = DeterministicArrivals(rate_tps=200.0).intervals()
        assert [next(gaps) for _ in range(3)] == [5.0, 5.0, 5.0]

    def test_infinite_rate_means_everything_arrives_at_start(self):
        gaps = DeterministicArrivals(rate_tps=float("inf")).intervals()
        assert [next(gaps) for _ in range(3)] == [0.0, 0.0, 0.0]

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            DeterministicArrivals(rate_tps=0.0)
        with pytest.raises(ValueError):
            PoissonArrivals(rate_tps=-1.0)
        with pytest.raises(ValueError):
            PoissonArrivals(rate_tps=float("inf"))

    def test_nan_rates_are_rejected(self):
        """NaN fails every comparison, so it would slip past a plain <= 0
        check and idle-spin the open loop (max_waves only counts dispatched
        waves); it must be rejected at construction."""
        with pytest.raises(ValueError):
            DeterministicArrivals(rate_tps=float("nan"))
        with pytest.raises(ValueError):
            PoissonArrivals(rate_tps=float("nan"))
        with pytest.raises(ValueError):
            as_arrival_process(float("nan"))

    def test_poisson_stream_is_restartable(self):
        """Two intervals() iterations of one process replay the same gaps —
        the property that makes a fixed arrival_seed reproducible."""
        process = PoissonArrivals(rate_tps=150.0, seed=9)
        first = [next(process.intervals()) for _ in range(1)]
        stream_a = process.intervals()
        stream_b = process.intervals()
        a = [next(stream_a) for _ in range(16)]
        b = [next(stream_b) for _ in range(16)]
        assert a == b
        assert a[0] == first[0]
        assert all(gap > 0 for gap in a)

    def test_as_arrival_process_coercions(self):
        assert isinstance(as_arrival_process(None), DeterministicArrivals)
        assert as_arrival_process(None).rate_tps == float("inf")
        assert as_arrival_process(250).rate_tps == 250.0
        process = PoissonArrivals(100.0, seed=1)
        assert as_arrival_process(process) is process
        with pytest.raises(TypeError):
            as_arrival_process("fast")


# --------------------------------------------------------------------------- #
# Open-loop scheduling (incl. the epoch-boundary admission rule)
# --------------------------------------------------------------------------- #
class TestOpenLoopScheduling:
    def test_arrival_exactly_on_wave_boundary_joins_that_wave_once(self):
        """The regression this file exists to pin: with 10 ms waves and
        10 ms inter-arrivals every arrival instant coincides exactly with a
        wave boundary.  Each must be admitted to exactly one wave — the one
        whose dispatch instant it hits — with zero queueing delay; an
        exclusive comparison would strand it, a re-draw would double it."""
        engine = ScriptedEngine(wave_ms=10.0)
        run = run_open_loop(engine, tagged_source(["A", "B", "C"]),
                            total_transactions=3,
                            arrivals=DeterministicArrivals(rate_tps=100.0),
                            clients=4)
        assert engine.waves == [["A"], ["B"], ["C"]]    # one wave each, once
        assert engine.wave_times == [10.0, 20.0, 30.0]  # dispatched on arrival
        assert run.offered == 3
        assert run.dropped == 0
        assert run.committed == 3
        assert run.queue_delays_ms == [0.0, 0.0, 0.0]
        assert run.epochs == 3

    def test_boundary_and_midwave_arrivals_share_the_boundary_wave(self):
        """Arrivals at 5, 10, 15, 20 ms against 10 ms waves: the first wave
        dispatches at 5; the arrivals at 10 (mid-wave) and 15 (exactly the
        wave's end boundary) both join the second wave."""
        engine = ScriptedEngine(wave_ms=10.0)
        run = run_open_loop(engine, tagged_source(["A", "B", "C", "D"]),
                            total_transactions=4,
                            arrivals=DeterministicArrivals(rate_tps=200.0),
                            clients=4)
        assert engine.waves == [["A"], ["B", "C"], ["D"]]
        assert engine.wave_times == [5.0, 15.0, 25.0]
        # B and D each waited 5 ms for the next dispatch; C landed exactly
        # on wave 2's dispatch instant so its delay is 0.
        assert run.queue_delays_ms == [0.0, 5.0, 0.0, 5.0]
        assert run.offered == 4
        assert run.committed == 4

    def test_queue_limit_drops_arrivals_never_work_in_flight(self):
        """A full admission queue drops the *arrival*; dropped transactions
        never execute and the accounting identity reflects them."""
        engine = ScriptedEngine(wave_ms=10.0, wave_limit=1)
        run = run_open_loop(engine, tagged_source(list("ABCDE")),
                            total_transactions=5, arrivals=None,
                            clients=1, queue_limit=2)
        assert run.offered == 5
        assert run.dropped == 3
        assert run.committed == 2
        assert run.committed + run.aborted == (run.offered - run.dropped) + run.retries
        assert engine.waves == [["A"], ["B"]]
        assert run.max_queue_depth == 2

    def test_retries_lead_the_next_wave_and_bypass_the_queue_bound(self):
        engine = ScriptedEngine(script={"A": [False, True]}, wave_ms=10.0,
                                wave_limit=2)
        run = run_open_loop(engine, tagged_source(list("ABC")),
                            total_transactions=3, arrivals=None,
                            clients=2, queue_limit=3, max_retries=2)
        assert engine.waves == [["A", "B"], ["A", "C"]]
        assert run.retries == 1
        assert run.committed == 3
        # Commit order is B (wave 1), then A and C (wave 2).  The retry's
        # delay is measured from its re-queue (end of wave 1, t=10) to wave
        # 2's dispatch (also t=10); C queued at t=0 and waited a full wave.
        assert run.queue_delays_ms == [0.0, 0.0, 10.0]

    def test_engine_wave_limit_caps_the_wave_below_clients(self):
        engine = ScriptedEngine(wave_limit=2)
        run = run_open_loop(engine, tagged_source(list("ABCDE")),
                            total_transactions=5, arrivals=None, clients=4)
        assert [len(wave) for wave in engine.waves] == [2, 2, 1]
        assert run.epochs == 3

    def test_idle_generator_jumps_to_the_next_arrival(self):
        """With sparse arrivals the clock advances to each arrival instant
        rather than spinning; elapsed time is arrival-paced."""
        engine = ScriptedEngine(wave_ms=2.0)
        run = run_open_loop(engine, tagged_source(["A", "B"]),
                            total_transactions=2,
                            arrivals=DeterministicArrivals(rate_tps=10.0),
                            clients=4)
        assert engine.wave_times == [100.0, 200.0]
        assert run.elapsed_ms == pytest.approx(202.0)
        assert run.queue_delays_ms == [0.0, 0.0]

    def test_max_waves_bounds_pathological_runs(self):
        engine = ScriptedEngine(script={"X": [False] * 100}, wave_limit=1)
        run = run_open_loop(engine, tagged_source(["X"]),
                            total_transactions=1, arrivals=None, clients=1,
                            max_retries=99, max_waves=4)
        assert run.epochs == 4

    def test_zero_clients_terminates_without_spinning(self):
        """Non-positive wave capacity must stop the loop (as the closed
        loop's empty-wave guard does), not dispatch empty waves forever."""
        engine = ScriptedEngine()
        run = run_open_loop(engine, tagged_source(list("ABC")),
                            total_transactions=3, arrivals=None, clients=0)
        assert engine.waves == []
        assert run.epochs == 0
        assert run.committed == 0
        assert run.offered == 3          # arrivals happened; none were served

    def test_open_loop_counters_delta_like_the_closed_loop(self):
        engine = ScriptedEngine()
        engine.partition_counters = [(10, 10)]
        engine.per_wave_partition_growth = [[(4, 2)], [(1, 1), (6, 3)]]
        run = run_open_loop(engine, tagged_source(list("ABC")),
                            total_transactions=3, arrivals=None, clients=2)
        assert run.partition_physical == [(5, 3), (6, 3)]


# --------------------------------------------------------------------------- #
# In-wave repair: the loop only counts the flags an engine reports
# --------------------------------------------------------------------------- #
class TestRepairAccounting:
    def test_repair_salvages_the_conflict_within_its_wave(self):
        """A successful repair commits in the conflict's own wave: no retry,
        no extra wave, no wasted attempt."""
        engine = ScriptedEngine(script={"A": ["repaired"]})
        run = run_closed_loop(engine, tagged_source(["A", "B"]),
                              total_transactions=2, clients=2)
        assert engine.waves == [["A", "B"]]      # no second wave
        assert run.committed == 2
        assert run.aborted == 0
        assert run.retries == 0
        assert run.repaired == 1
        assert run.wasted_attempts == 0

    def test_unrepairable_entry_retries_while_siblings_repair(self):
        """Only the entry that comes back aborted goes to the retry pool;
        repaired siblings stay committed in-wave."""
        engine = ScriptedEngine(script={"A": ["repaired"], "B": [False, True]})
        run = run_closed_loop(engine, tagged_source(["A", "B"]),
                              total_transactions=2, clients=2)
        assert engine.waves == [["A", "B"], ["B"]]
        assert run.committed == 2
        assert run.repaired == 1
        assert run.retries == 1

    def test_failed_repair_is_counted_and_still_retried(self):
        """A result marked ``repair_failed`` charges the extra wasted
        attempt, and the program still gets its retries."""
        engine = ScriptedEngine(script={"A": ["repair_failed", True]})
        run = run_closed_loop(engine, tagged_source(["A"]),
                              total_transactions=1, clients=1)
        assert engine.waves == [["A"], ["A"]]
        assert run.committed == 1                # committed on the retry
        assert run.aborted == 1
        assert run.repair_failed == 1
        assert run.wasted_attempts == 2          # the abort + the dead repair
        assert run.retries == 1

    def test_open_loop_repairs_count_queue_delay_for_the_committing_attempt(self):
        """The open loop runs the same wave body: a repaired entry commits
        in its wave with its own admission-to-dispatch delay."""
        engine = ScriptedEngine(script={"A": ["repaired"]}, wave_ms=10.0)
        run = run_open_loop(engine, tagged_source(["A", "B"]),
                            total_transactions=2, arrivals=None, clients=2)
        assert engine.waves == [["A", "B"]]
        assert run.committed == 2
        assert run.repaired == 1
        assert run.queue_delays_ms == [0.0, 0.0]


# --------------------------------------------------------------------------- #
# One wave body, two sources of fresh programs
# --------------------------------------------------------------------------- #
class TestOneWaveBody:
    def test_unbounded_one_client_open_loop_is_the_closed_loop(self):
        """Everything offered at the start and one client per wave is the
        closed loop's schedule: same waves, results, latencies, epochs."""
        script = {"B": [False, True], "C": ["repair_failed", False, True],
                  "D": ["repaired"]}
        closed_engine = ScriptedEngine(script=dict(script), wave_ms=3.0)
        closed = run_closed_loop(closed_engine, tagged_source(list("ABCDE")),
                                 total_transactions=5, clients=1, max_retries=2)
        open_engine = ScriptedEngine(script=dict(script), wave_ms=3.0)
        opened = run_open_loop(open_engine, tagged_source(list("ABCDE")),
                               total_transactions=5, arrivals=None, clients=1,
                               max_retries=2)
        assert open_engine.waves == closed_engine.waves
        assert opened.results == closed.results
        assert opened.latencies_ms == closed.latencies_ms
        assert opened.epochs == closed.epochs
        assert opened.elapsed_ms == closed.elapsed_ms
        # What only the open loop has: the offer count and queueing delay.
        assert (closed.offered, closed.queue_delays_ms) == (0, [])
        assert opened.offered == 5
        assert len(opened.queue_delays_ms) == opened.committed
