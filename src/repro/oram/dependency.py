"""Dependency analysis and batch timing for the parallel ORAM executor.

Section 7 of the paper parallelises Ring ORAM using multilevel
serializability: two physical operations must be ordered only if they
conflict, and conflicts are narrow —

* reads to the *same bucket* between reshuffles always touch distinct
  physical slots, so their data accesses never conflict; only their updates
  to the bucket's metadata (access counter, valid map) must be serialised;
* every path read touches the root, so metadata updates near the top of the
  tree form the dependency chains that ultimately bound parallel speedup
  (Figures 10a/10b);
* evictions conflict with reads on the buckets of the evicted path.

The reproduction models the metadata serialisation explicitly: for each
bucket we chain the metadata sub-operations of every physical access that
touches it, while the (much more expensive) network fetches of distinct
slots proceed in parallel.  A batch's simulated duration is the makespan of
that DAG on the backend's worker pool, maxed with the proxy's serial CPU and
dispatch floors.

Bound, then schedule
--------------------
The DAG is a function of the batch's bucket-id sequence alone, and so are
its total work ``W`` and its critical path ``CP`` (the longest per-bucket
metadata chain plus one fetch), both O(n) to compute.  ``_makespan`` decides
from them, without materialising the DAG, whenever the answer is already
determined:

1. *No more ops than workers* — every op is handed a worker that was never
   used, so it starts the moment its dependencies finish and the makespan
   **is** ``CP``.  Exact because ``CP`` is accumulated by the same repeated
   float additions :class:`~repro.sim.scheduler.ParallelScheduler` performs
   along the chain.
2. *Graham's bound clears the floor* — the scheduler pops ops in
   non-decreasing ready time onto the earliest-free worker, so no worker
   idles while an op is ready and its makespan is at most ``W/workers +
   CP`` (Graham 1966).  When that bound is below ``max(cpu_floor,
   dispatch_floor)`` by a relative margin far wider than float rounding,
   the maximum **is** the floor, whatever the schedule.
3. *Otherwise* the DAG is built and list-scheduled as before — the
   low-parallelism / zero-latency (``dummy``) regime of Figures 10a/10b.

No option selects the path; the inputs do.  On the repo benchmark (four
workloads, six waves each, seed 17: 348 timing calls) 258 take rule 1, 90
rule 2 and none is scheduled — the floor is the answer in 336 of them, the
critical path in 12; the Figure 10 benchmarks exercise rule 3.
``tests/props/test_property_timing.py`` pins all three to the scheduler bit
for bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.latency import CpuCostModel, LatencyModel
from repro.sim.scheduler import ParallelScheduler, ScheduledOp

#: Relative slack Graham's bound must leave under the floor before the
#: scheduler is skipped.  The scheduler's makespan is a chain of at most 2n
#: float additions (relative error ~ n * 1e-16), so 1e-9 is safely wider than
#: rounding and far narrower than any ratio between modelled costs.
_BOUND_MARGIN = 1e-9


@dataclass
class DependencyGraphBuilder:
    """Builds the (metadata-chain + fetch) DAG for one physical read batch.

    A read batch is described by the bucket id of each physical slot read,
    in issue order.  For every read we create two scheduler operations:

    1. a *metadata* op (small CPU cost) chained after the previous metadata
       op on the same bucket — this is the per-bucket serialisation required
       by multilevel serializability;
    2. a *fetch* op (one storage round trip) depending only on its own
       metadata op — fetches to different slots never conflict.

    Bucket writes are deferred to the end of the epoch, where they form a
    single deduplicated, mutually independent write batch.
    """

    latency: LatencyModel
    cost_model: CpuCostModel = field(default_factory=CpuCostModel)

    def read_durations(self, encrypted: bool = True) -> Tuple[float, float]:
        """Durations of one read's ``(metadata op, fetch op)``."""
        meta_cost = (self.cost_model.metadata_per_block_ms
                     + self.cost_model.coordination_per_block_ms)
        fetch_cost = self.latency.read_rtt_ms + self.latency.per_request_server_ms
        crypto_cost = self.cost_model.crypto_per_block_ms if encrypted else 0.0
        return meta_cost, fetch_cost + crypto_cost

    def build_read_ops(self, bucket_ids: Sequence[int],
                       encrypted: bool = True) -> List[ScheduledOp]:
        """The DAG of one read batch: ops ``2i`` (meta) and ``2i + 1`` (fetch)."""
        meta_cost, fetch_cost = self.read_durations(encrypted)
        ops: List[ScheduledOp] = []
        last_meta_for_bucket: Dict[int, int] = {}
        for index, bucket_id in enumerate(bucket_ids):
            meta_id = 2 * index
            previous = last_meta_for_bucket.get(bucket_id)
            ops.append(ScheduledOp(op_id=meta_id, duration_ms=meta_cost,
                                   deps=() if previous is None else (previous,),
                                   tag="meta"))
            last_meta_for_bucket[bucket_id] = meta_id
            ops.append(ScheduledOp(op_id=meta_id + 1, duration_ms=fetch_cost,
                                   deps=(meta_id,), tag="fetch"))
        return ops

    def write_durations(self, bucket_slot_counts: Dict[int, int],
                        encrypted: bool = True) -> List[float]:
        """Duration of each bucket's write-back, in bucket-id order.

        Each bucket write is one storage round trip carrying its slots, plus
        the CPU cost of re-encrypting every slot.
        """
        crypto_cost = self.cost_model.crypto_per_block_ms if encrypted else 0.0
        return [self.latency.write_rtt_ms
                + self.latency.per_request_server_ms * slot_count
                + crypto_cost * slot_count
                + self.cost_model.metadata_per_block_ms * slot_count
                for _, slot_count in sorted(bucket_slot_counts.items())]

    def build_write_ops(self, bucket_slot_counts: Dict[int, int],
                        encrypted: bool = True) -> List[ScheduledOp]:
        """The flat DAG of the end-of-epoch write-back: one op per bucket."""
        return [ScheduledOp(op_id=index, duration_ms=duration, tag="write")
                for index, duration in enumerate(
                    self.write_durations(bucket_slot_counts, encrypted))]


def _makespan(op_count: int, work_ms: float, critical_path_ms: float, workers: int,
              floor_ms: float, build_ops: Callable[[], List[ScheduledOp]]) -> float:
    """``max(list-scheduled makespan, floor)``, scheduling only when undecided.

    See the module docstring for why the first two branches equal what
    :class:`ParallelScheduler` would return, bit for bit.
    """
    if op_count <= workers:
        return max(critical_path_ms, floor_ms)
    if (work_ms / workers + critical_path_ms) * (1.0 + _BOUND_MARGIN) < floor_ms:
        return floor_ms
    return max(ParallelScheduler(workers).schedule(build_ops()).makespan_ms, floor_ms)


def simulate_parallel_read_batch(bucket_ids: Sequence[int], latency: LatencyModel,
                                 parallelism: int, cost_model: Optional[CpuCostModel] = None,
                                 encrypted: bool = True) -> float:
    """Simulated duration of a parallel physical read batch.

    ``bucket_ids`` holds the bucket of every physical slot read, in issue
    order.  The result is the larger of

    * the list-scheduled DAG makespan (round trips overlapped up to the
      in-flight cap, per-bucket metadata serialised),
    * the *coordinator floor*: the per-block metadata, coordination and
      crypto work, which the proxy's coordination layer serialises — this is
      what makes parallel execution a net loss on the zero-latency ``dummy``
      backend (paper Figure 10a), and
    * the *dispatch floor*: the serial per-request cost of putting physical
      requests on the wire, which caps the achievable speedup on remote
      backends as batch sizes grow (Figure 10b).
    """
    count = len(bucket_ids)
    if not count:
        return 0.0
    cm = cost_model or CpuCostModel()
    builder = DependencyGraphBuilder(latency=latency, cost_model=cm)
    meta_cost, fetch_cost = builder.read_durations(encrypted)
    per_block_cpu = (cm.metadata_per_block_ms + cm.coordination_per_block_ms
                     + (cm.crypto_per_block_ms if encrypted else 0.0))
    floor = max(count * per_block_cpu, count * latency.dispatch_ms_per_request)
    # The longest metadata chain, summed the way the scheduler sums it.
    chain = 0.0
    for _ in range(max(Counter(bucket_ids).values())):
        chain += meta_cost
    return _makespan(2 * count, count * (meta_cost + fetch_cost), chain + fetch_cost,
                     latency.effective_parallelism(parallelism), floor,
                     lambda: builder.build_read_ops(bucket_ids, encrypted))


def simulate_parallel_write_batch(bucket_slot_counts: Dict[int, int], latency: LatencyModel,
                                  parallelism: int,
                                  cost_model: Optional[CpuCostModel] = None,
                                  encrypted: bool = True) -> float:
    """Simulated duration of the end-of-epoch deduplicated bucket write-back.

    Bucket writes are mutually independent, so the DAG is flat and its
    critical path is the longest single write; the same coordinator and
    dispatch floors as the read path apply (the slots of each bucket must be
    re-encrypted and the requests serialised onto the wire).
    """
    if not bucket_slot_counts:
        return 0.0
    cm = cost_model or CpuCostModel()
    builder = DependencyGraphBuilder(latency=latency, cost_model=cm)
    durations = builder.write_durations(bucket_slot_counts, encrypted)
    per_slot_cpu = (cm.metadata_per_block_ms
                    + (cm.crypto_per_block_ms if encrypted else 0.0))
    floor = max(sum(bucket_slot_counts.values()) * per_slot_cpu,
                len(bucket_slot_counts) * latency.dispatch_ms_per_request)
    return _makespan(len(durations), sum(durations), max(durations),
                     latency.effective_parallelism(parallelism), floor,
                     lambda: builder.build_write_ops(bucket_slot_counts, encrypted))
