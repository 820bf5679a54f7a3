"""Property-based tests: O(n) batch timing ≡ the list scheduler, bit for bit.

:mod:`repro.oram.dependency` decides a batch's simulated duration from its
bucket counts whenever the answer is already determined (fewer ops than
workers: the critical path; Graham's bound under the floor: the floor) and
only otherwise builds and list-schedules the dependency DAG.  Whichever
branch the inputs select, the result must be *exactly* what scheduling the
DAG and applying the floors gives — every ``sim_*`` number downstream is a
sum of these durations.  The reference DAG is written out here, independent
of the builder under test.

The two fan-outs above the ORAM — partition batches onto the proxy's fan-out
lanes, CC work onto one lane per proxy worker — schedule independent
operations only, through one lane primitive (``LaneStats.charge``); the same
oracle holds it and both of them.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.config import ObladiConfig, RingOramConfig
from repro.oram.dependency import (simulate_parallel_read_batch,
                                   simulate_parallel_write_batch)
from repro.proxytier import build_proxy
from repro.sim.latency import BACKENDS, CpuCostModel
from repro.sim.scheduler import LaneStats, ParallelScheduler, ScheduledOp


def scheduled_read_ms(bucket_ids, latency, parallelism, encrypted):
    """The read batch's duration by list-scheduling its full DAG."""
    cm = CpuCostModel()
    crypto = cm.crypto_per_block_ms if encrypted else 0.0
    meta_cost = cm.metadata_per_block_ms + cm.coordination_per_block_ms
    fetch_cost = latency.read_rtt_ms + latency.per_request_server_ms
    ops, last_meta = [], {}
    for bucket_id in bucket_ids:
        meta_id = len(ops)
        deps = (last_meta[bucket_id],) if bucket_id in last_meta else ()
        ops.append(ScheduledOp(meta_id, meta_cost, deps))
        ops.append(ScheduledOp(meta_id + 1, fetch_cost + crypto, (meta_id,)))
        last_meta[bucket_id] = meta_id
    workers = latency.effective_parallelism(parallelism)
    makespan = ParallelScheduler(workers).schedule(ops).makespan_ms
    return max(makespan, len(bucket_ids) * (meta_cost + crypto),
               len(bucket_ids) * latency.dispatch_ms_per_request)


def scheduled_write_ms(slot_counts, latency, parallelism, encrypted):
    """The write-back's duration by list-scheduling its flat DAG."""
    cm = CpuCostModel()
    crypto = cm.crypto_per_block_ms if encrypted else 0.0
    ops = [ScheduledOp(index, latency.write_rtt_ms
                       + latency.per_request_server_ms * count
                       + crypto * count + cm.metadata_per_block_ms * count)
           for index, (_, count) in enumerate(sorted(slot_counts.items()))]
    workers = latency.effective_parallelism(parallelism)
    makespan = ParallelScheduler(workers).schedule(ops).makespan_ms
    return max(makespan,
               sum(slot_counts.values()) * (cm.metadata_per_block_ms + crypto),
               len(slot_counts) * latency.dispatch_ms_per_request)


@st.composite
def batch_settings(draw, sizes):
    """``(latency, parallelism, encrypted, size, rng)`` around the rule's edges.

    ``sizes(workers)`` lists the sizes that sit on the branch boundaries;
    arbitrary small sizes are mixed in.  Batch contents come from the drawn
    ``rng`` — a 4096-element list is beyond what hypothesis generates well.
    """
    latency = BACKENDS[draw(st.sampled_from(sorted(BACKENDS)))]
    parallelism = draw(st.sampled_from([1, 2, 8, 64, 1024, 4096]))
    workers = latency.effective_parallelism(parallelism)
    size = draw(st.sampled_from(sizes(workers)) | st.integers(0, 300))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return latency, parallelism, draw(st.booleans()), size, rng


def tiny_proxy(**topology):
    """A proxy over a 64-block tree; only its timing code is exercised."""
    return build_proxy(ObladiConfig(
        oram=RingOramConfig(num_blocks=64, z_real=4, block_size=64),
        read_batches=2, read_batch_size=8, write_batch_size=8,
        backend="dummy", durability=False, encrypt=False, seed=5, **topology))


def scheduled_independent_ms(durations, lanes):
    """Makespan of the positive ``durations``, in order, on ``lanes`` lanes."""
    ops = [ScheduledOp(index, duration)
           for index, duration in enumerate(durations) if duration > 0]
    return ParallelScheduler(lanes).schedule(ops).makespan_ms


class TestTimingEqualsScheduler:
    @settings(deadline=None)
    @given(batch_settings(lambda w: [0, 1, w // 2, w // 2 + 1, 4 * w]),
           st.sampled_from([1, 15, 1 << 12]))
    def test_read_batch(self, batch, spread):
        latency, parallelism, encrypted, size, rng = batch
        # spread 1 is the all-root chain, 15 the top of a tree, 4096 nearly flat.
        bucket_ids = [rng.randrange(spread) for _ in range(size)]
        assert (simulate_parallel_read_batch(bucket_ids, latency, parallelism,
                                             encrypted=encrypted)
                == scheduled_read_ms(bucket_ids, latency, parallelism, encrypted))

    @settings(deadline=None)
    @given(batch_settings(lambda w: [0, 1, w, w + 1, 4 * w]))
    def test_write_batch(self, batch):
        latency, parallelism, encrypted, size, rng = batch
        slot_counts = {bucket_id: rng.choice([1, 8, 28, rng.randrange(1, 40)])
                       for bucket_id in rng.sample(range(1 << 14), size)}
        assert (simulate_parallel_write_batch(slot_counts, latency, parallelism,
                                              encrypted=encrypted)
                == scheduled_write_ms(slot_counts, latency, parallelism, encrypted))

    @pytest.mark.parametrize("staggered", [False, True])
    @settings(deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.1, 3.7]) | st.floats(0.0, 1e4),
                    max_size=12),
           st.data())
    def test_lane_charge(self, staggered, durations, data):
        # Fitting: every busy duration gets a lane and the longest decides.
        # Staggered: fewer lanes than busy durations, each to the first free.
        busy = sum(1 for duration in durations if duration > 0)
        if staggered:
            assume(busy >= 2)
            lanes = data.draw(st.integers(1, busy - 1))
        else:
            lanes = data.draw(st.integers(max(busy, 1), 13))
        stats = LaneStats()
        makespan = stats.charge(durations, lanes)
        assert makespan == scheduled_independent_ms(durations, lanes)
        assert (stats.calls, stats.staggered) == (1, int(staggered))
        assert stats.actual_ms == makespan
        assert stats.ideal_ms == max(durations, default=0.0)
        assert stats.serial_ms == sum(durations)

    @settings(deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.1, 3.7]) | st.floats(0.0, 1e4),
                    min_size=2, max_size=12),
           st.integers(1, 12))
    def test_partition_fanout(self, durations, parallelism):
        # Fewer lanes than busy partitions staggers the fan-out; otherwise
        # the slowest partition decides.
        layer = tiny_proxy(shards=len(durations), parallelism=parallelism).data_layer
        for part, duration in zip(layer.partitions, durations):
            part.executor.deferred_ms = duration
        assert layer._advance_parallel() == scheduled_independent_ms(
            durations, layer.config.fanout_lanes)

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 5000), min_size=2, max_size=8),
           st.sampled_from([0.01, 0.013]) | st.floats(1e-6, 1.0))
    def test_cc_worker_lanes(self, pending, cc_op_ms):
        proxy = tiny_proxy(proxy_workers=len(pending),
                           cost_model=CpuCostModel(cc_op_ms=cc_op_ms))
        for worker, ops in zip(proxy.workers, pending):
            worker.pending_ops = ops
        proxy._charge_cc()
        assert proxy.cc_cpu_ms == scheduled_independent_ms(
            [ops * cc_op_ms for ops in pending], len(pending))


class TestWhichBatchesAreScheduled:
    @staticmethod
    def count_schedule_calls(monkeypatch):
        calls = []
        schedule = ParallelScheduler.schedule

        def counting(self, ops, start_ms=0.0):
            calls.append(len(ops))
            return schedule(self, ops, start_ms)

        monkeypatch.setattr(ParallelScheduler, "schedule", counting)
        return calls

    def test_large_remote_batch_is_decided_by_the_floor(self, monkeypatch):
        calls = self.count_schedule_calls(monkeypatch)
        bucket_ids = [index % 13 for index in range(2000)]
        elapsed = simulate_parallel_read_batch(bucket_ids, BACKENDS["server"], 1024)
        assert calls == []
        assert elapsed == 2000 * BACKENDS["server"].dispatch_ms_per_request

    def test_low_parallelism_dummy_chain_is_scheduled(self, monkeypatch):
        # 200 reads of one bucket on two workers: the metadata chain alone is
        # longer than half the work, so neither shortcut decides.
        calls = self.count_schedule_calls(monkeypatch)
        simulate_parallel_read_batch([0] * 200, BACKENDS["dummy"], 2)
        assert calls == [400]
