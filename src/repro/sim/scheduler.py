"""Parallel-schedule solver for physical storage operations.

The Obladi executor issues many physical bucket reads/writes that are mostly
independent but occasionally conflict (e.g. every path read touches the root
bucket's metadata).  Section 7 of the paper parallelises Ring ORAM by
tracking those dependencies and pipelining everything else.

In this reproduction the executor does not actually run threads; it builds a
set of :class:`ScheduledOp` records — each with a duration, an optional list
of dependencies, and a resource class — and asks :class:`ParallelScheduler`
for the *makespan*: the simulated time at which all operations complete given
a bound on how many can run concurrently.  This is a classic list-scheduling
computation (greedy earliest-start on a bounded worker pool, respecting
precedence edges), which is exactly the behaviour of a thread pool executing
a dependency DAG.

Independent work — partition batches on the proxy's fan-out lanes,
concurrency-control operations on the proxy's CC lanes — needs no DAG:
:meth:`LaneStats.charge` list-schedules the durations in order onto the lanes
and keeps the bounds of every charge.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class ScheduledOp:
    """One unit of schedulable work.

    Attributes
    ----------
    op_id:
        Unique identifier within the schedule.
    duration_ms:
        How long the operation occupies a worker slot.
    deps:
        Identifiers of operations that must finish before this one starts.
    tag:
        Free-form label (e.g. ``"read:bucket:3"``) used by tests and traces.
    """

    op_id: int
    duration_ms: float
    deps: Tuple[int, ...] = ()
    tag: str = ""

    def __post_init__(self) -> None:
        if self.duration_ms < 0:
            raise ValueError(f"operation {self.op_id} has negative duration")


@dataclass
class ScheduleResult:
    """Outcome of scheduling a DAG of operations."""

    makespan_ms: float
    finish_times: Dict[int, float] = field(default_factory=dict)
    total_work_ms: float = 0.0
    critical_path_ms: float = 0.0


class ParallelScheduler:
    """Greedy list scheduler over a bounded pool of workers.

    The scheduler is deterministic: ties are broken by operation id, so two
    runs over the same DAG produce identical makespans.  This determinism
    matters for the reproduction — the paper's security argument relies on
    the physical schedule being a deterministic function of the sequential
    access sequence (Lemma 2), and tests assert exactly that.
    """

    def __init__(self, max_parallelism: int) -> None:
        if max_parallelism < 1:
            raise ValueError("max_parallelism must be at least 1")
        self.max_parallelism = max_parallelism

    def schedule(self, ops: Sequence[ScheduledOp], start_ms: float = 0.0) -> ScheduleResult:
        """Compute finish times for ``ops`` starting at ``start_ms``.

        Raises ``ValueError`` on duplicate ids, unknown dependencies, or
        dependency cycles.
        """
        if not ops:
            return ScheduleResult(makespan_ms=start_ms, finish_times={}, total_work_ms=0.0,
                                  critical_path_ms=0.0)

        by_id: Dict[int, ScheduledOp] = {}
        for op in ops:
            if op.op_id in by_id:
                raise ValueError(f"duplicate operation id {op.op_id}")
            by_id[op.op_id] = op

        indegree: Dict[int, int] = {op.op_id: 0 for op in ops}
        children: Dict[int, List[int]] = {op.op_id: [] for op in ops}
        for op in ops:
            for dep in op.deps:
                if dep not in by_id:
                    raise ValueError(f"operation {op.op_id} depends on unknown op {dep}")
                indegree[op.op_id] += 1
                children[dep].append(op.op_id)

        # Ready queue holds (earliest_start, op_id); workers is a heap of
        # times at which a worker slot frees up.
        ready: List[Tuple[float, int]] = []
        earliest_start: Dict[int, float] = {}
        for op in ops:
            if indegree[op.op_id] == 0:
                earliest_start[op.op_id] = start_ms
                heapq.heappush(ready, (start_ms, op.op_id))

        workers: List[float] = [start_ms] * self.max_parallelism
        heapq.heapify(workers)

        finish_times: Dict[int, float] = {}
        critical: Dict[int, float] = {}
        scheduled = 0

        while ready:
            avail_ms, op_id = heapq.heappop(ready)
            op = by_id[op_id]
            worker_free = heapq.heappop(workers)
            begin = max(avail_ms, worker_free)
            end = begin + op.duration_ms
            heapq.heappush(workers, end)
            finish_times[op_id] = end
            critical[op_id] = max(
                (critical[d] for d in op.deps), default=start_ms
            ) + op.duration_ms
            scheduled += 1

            for child in children[op_id]:
                indegree[child] -= 1
                child_start = max(earliest_start.get(child, start_ms), end)
                earliest_start[child] = child_start
                if indegree[child] == 0:
                    heapq.heappush(ready, (child_start, child))

        if scheduled != len(ops):
            raise ValueError("dependency cycle detected in operation DAG")

        makespan = max(finish_times.values())
        total_work = sum(op.duration_ms for op in ops)
        critical_path = max(critical.values()) - start_ms if critical else 0.0
        return ScheduleResult(
            makespan_ms=makespan,
            finish_times=finish_times,
            total_work_ms=total_work,
            critical_path_ms=critical_path,
        )


@dataclass
class LaneStats:
    """Lane schedules of independent durations, accumulated over charges.

    ``ideal_ms`` sums the ideal-parallel bound (the longest duration of each
    charge), ``serial_ms`` the serial bound (their sum) and ``actual_ms`` the
    makespan each charge returned; a charge is ``staggered`` when more
    durations were positive than there were lanes.  With enough lanes
    ``actual_ms == ideal_ms``; under lane pressure it lies between the two
    bounds, strictly above the ideal one when no single duration dominates.
    On one lane ``actual_ms == serial_ms``.
    """

    calls: int = 0
    staggered: int = 0
    ideal_ms: float = 0.0
    serial_ms: float = 0.0
    actual_ms: float = 0.0

    def charge(self, durations: Sequence[float], lanes: int) -> float:
        """Makespan of the positive ``durations``, in order, on ``lanes`` lanes.

        Each goes to the lane that frees up first — what
        :class:`ParallelScheduler` does with independent operations, addition
        for addition (``tests/props/test_property_timing.py``); when they fit
        the makespan is simply the longest one.
        """
        busy = sum(1 for duration in durations if duration > 0)
        if busy <= lanes:
            makespan = max(durations, default=0.0)
        else:
            self.staggered += 1
            lane_free = [0.0] * lanes
            for duration in durations:
                if duration > 0:
                    heapq.heapreplace(lane_free, lane_free[0] + duration)
            makespan = max(lane_free)
        self.calls += 1
        self.ideal_ms += max(durations, default=0.0)
        self.serial_ms += sum(durations)
        self.actual_ms += makespan
        return makespan

    @property
    def speedup(self) -> float:
        """Serial-to-actual ratio (1.0 when nothing was charged)."""
        if self.actual_ms <= 0:
            return 1.0
        return self.serial_ms / self.actual_ms


def build_ops(durations: Sequence[float],
              deps: Optional[Sequence[Sequence[int]]] = None,
              tags: Optional[Sequence[str]] = None) -> List[ScheduledOp]:
    """Helper to build a list of ScheduledOps from parallel arrays.

    ``deps[i]`` lists the *indices* of operations that operation ``i`` waits
    for.  Used heavily by tests and by the ORAM executor.
    """
    ops: List[ScheduledOp] = []
    for i, duration in enumerate(durations):
        dep_list: Tuple[int, ...] = ()
        if deps is not None and i < len(deps) and deps[i]:
            dep_list = tuple(deps[i])
        tag = tags[i] if tags is not None and i < len(tags) else ""
        ops.append(ScheduledOp(op_id=i, duration_ms=duration, deps=dep_list, tag=tag))
    return ops
