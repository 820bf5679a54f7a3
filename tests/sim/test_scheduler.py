"""Tests for the parallel list scheduler."""

import pytest

from repro.sim.scheduler import ParallelScheduler, ScheduledOp, build_ops


class TestBasicScheduling:
    def test_empty_schedule_has_zero_makespan(self):
        result = ParallelScheduler(4).schedule([])
        assert result.makespan_ms == 0.0
        assert result.finish_times == {}

    def test_single_op(self):
        result = ParallelScheduler(1).schedule([ScheduledOp(0, 5.0)])
        assert result.makespan_ms == pytest.approx(5.0)

    def test_independent_ops_run_in_parallel(self):
        ops = build_ops([2.0, 2.0, 2.0, 2.0])
        result = ParallelScheduler(4).schedule(ops)
        assert result.makespan_ms == pytest.approx(2.0)

    def test_parallelism_cap_forces_waves(self):
        ops = build_ops([2.0] * 4)
        result = ParallelScheduler(2).schedule(ops)
        assert result.makespan_ms == pytest.approx(4.0)

    def test_serial_scheduler_sums_durations(self):
        ops = build_ops([1.0, 2.0, 3.0])
        result = ParallelScheduler(1).schedule(ops)
        assert result.makespan_ms == pytest.approx(6.0)
        assert result.makespan_ms == pytest.approx(sum(op.duration_ms for op in ops))

    def test_start_offset_shifts_everything(self):
        ops = build_ops([1.0, 1.0])
        result = ParallelScheduler(2).schedule(ops, start_ms=10.0)
        assert result.makespan_ms == pytest.approx(11.0)


class TestDependencies:
    def test_chain_is_serialised(self):
        ops = build_ops([1.0, 1.0, 1.0], deps=[[], [0], [1]])
        result = ParallelScheduler(8).schedule(ops)
        assert result.makespan_ms == pytest.approx(3.0)

    def test_diamond_dependency(self):
        # 0 -> (1, 2) -> 3
        ops = build_ops([1.0, 2.0, 3.0, 1.0], deps=[[], [0], [0], [1, 2]])
        result = ParallelScheduler(8).schedule(ops)
        assert result.makespan_ms == pytest.approx(1.0 + 3.0 + 1.0)

    def test_dependent_op_waits_even_with_free_workers(self):
        ops = build_ops([5.0, 1.0], deps=[[], [0]])
        result = ParallelScheduler(8).schedule(ops)
        assert result.finish_times[1] == pytest.approx(6.0)

    def test_critical_path_reported(self):
        ops = build_ops([1.0, 1.0, 1.0], deps=[[], [0], [1]])
        result = ParallelScheduler(8).schedule(ops)
        assert result.critical_path_ms == pytest.approx(3.0)

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValueError):
            ParallelScheduler(2).schedule([ScheduledOp(0, 1.0, deps=(99,))])

    def test_cycle_detected(self):
        ops = [ScheduledOp(0, 1.0, deps=(1,)), ScheduledOp(1, 1.0, deps=(0,))]
        with pytest.raises(ValueError):
            ParallelScheduler(2).schedule(ops)

    def test_duplicate_ids_rejected(self):
        ops = [ScheduledOp(0, 1.0), ScheduledOp(0, 2.0)]
        with pytest.raises(ValueError):
            ParallelScheduler(2).schedule(ops)


class TestDeterminismAndSpeedup:
    def test_schedule_is_deterministic(self):
        ops = build_ops([1.0, 3.0, 2.0, 0.5, 4.0], deps=[[], [0], [0], [2], []])
        first = ParallelScheduler(2).schedule(ops)
        second = ParallelScheduler(2).schedule(ops)
        assert first.finish_times == second.finish_times

    def test_total_work_is_four_makespans_on_four_workers(self):
        ops = build_ops([2.0] * 8)
        result = ParallelScheduler(4).schedule(ops)
        assert result.total_work_ms == pytest.approx(4.0 * result.makespan_ms)

    def test_more_workers_never_slower(self):
        ops = build_ops([1.0, 2.0, 1.5, 3.0, 0.5, 2.5], deps=[[], [], [0], [1], [2], []])
        narrow = ParallelScheduler(1).schedule(ops).makespan_ms
        wide = ParallelScheduler(4).schedule(ops).makespan_ms
        assert wide <= narrow

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            ScheduledOp(0, -1.0)

    def test_zero_parallelism_rejected(self):
        with pytest.raises(ValueError):
            ParallelScheduler(0)


class TestBuildOps:
    def test_build_ops_assigns_sequential_ids(self):
        ops = build_ops([1.0, 2.0])
        assert [op.op_id for op in ops] == [0, 1]

    def test_build_ops_attaches_tags(self):
        ops = build_ops([1.0], tags=["fetch:root"])
        assert ops[0].tag == "fetch:root"
