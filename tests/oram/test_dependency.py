"""Tests for the parallel-batch dependency model."""

import pytest

from repro.oram.dependency import (DependencyGraphBuilder,
                                   simulate_parallel_read_batch,
                                   simulate_parallel_write_batch,
                                   simulate_sequential_read_batch)
from repro.sim.latency import BACKENDS, CpuCostModel


def make_reads(n, buckets=None):
    """A read batch as the executor describes it: one bucket id per slot read."""
    return buckets if buckets is not None else list(range(n))


class TestGraphBuilder:
    def test_two_ops_per_read(self):
        builder = DependencyGraphBuilder(latency=BACKENDS["server"])
        ops = builder.build_read_ops(make_reads(5))
        assert len(ops) == 10

    def test_same_bucket_metadata_is_chained(self):
        builder = DependencyGraphBuilder(latency=BACKENDS["server"])
        ops = builder.build_read_ops(make_reads(3, buckets=[7, 7, 7]))
        meta_ops = [op for op in ops if op.tag == "meta"]
        chained = [op for op in meta_ops if op.deps]
        assert len(chained) == 2

    def test_different_buckets_not_chained(self):
        builder = DependencyGraphBuilder(latency=BACKENDS["server"])
        ops = builder.build_read_ops(make_reads(3, buckets=[1, 2, 3]))
        meta_ops = [op for op in ops if op.tag == "meta"]
        assert all(not op.deps for op in meta_ops)

    def test_fetch_depends_on_its_metadata(self):
        builder = DependencyGraphBuilder(latency=BACKENDS["server"])
        ops = builder.build_read_ops(make_reads(2))
        fetches = [op for op in ops if op.tag == "fetch"]
        assert all(len(op.deps) == 1 for op in fetches)

    def test_write_ops_one_per_bucket(self):
        builder = DependencyGraphBuilder(latency=BACKENDS["server"])
        ops = builder.build_write_ops({1: 10, 2: 10, 5: 10})
        assert len(ops) == 3
        assert all(not op.deps for op in ops)


class TestSimulatedSchedules:
    def test_parallel_beats_sequential_on_remote_backends(self):
        reads = make_reads(64, buckets=list(range(64)))
        for backend in ("server", "server_wan", "dynamo"):
            parallel = simulate_parallel_read_batch(reads, BACKENDS[backend], 128)
            sequential = simulate_sequential_read_batch(reads, BACKENDS[backend])
            assert parallel < sequential, backend

    def test_parallel_does_not_beat_sequential_on_dummy(self):
        # The zero-latency backend is CPU bound; coordination makes the
        # parallel executor no faster (paper Figure 10a).
        reads = make_reads(256, buckets=[i % 15 for i in range(256)])
        parallel = simulate_parallel_read_batch(reads, BACKENDS["dummy"], 128)
        sequential = simulate_sequential_read_batch(reads, BACKENDS["dummy"])
        assert parallel >= sequential * 0.9

    def test_speedup_grows_with_latency(self):
        reads = make_reads(200, buckets=[i % 63 for i in range(200)])
        speedups = {}
        for backend in ("server", "server_wan"):
            model = BACKENDS[backend]
            parallel = simulate_parallel_read_batch(reads, model, 256)
            sequential = simulate_sequential_read_batch(reads, model)
            speedups[backend] = sequential / parallel
        assert speedups["server_wan"] > speedups["server"]

    def test_crypto_cost_increases_makespan_when_cpu_bound(self):
        reads = make_reads(512, buckets=[i % 7 for i in range(512)])
        with_crypto = simulate_parallel_read_batch(reads, BACKENDS["dummy"], 64,
                                                   encrypted=True)
        without = simulate_parallel_read_batch(reads, BACKENDS["dummy"], 64,
                                               encrypted=False)
        assert with_crypto > without

    def test_dispatch_floor_limits_large_batches(self):
        model = BACKENDS["server"]
        small = simulate_parallel_read_batch(make_reads(10), model, 1024)
        large = simulate_parallel_read_batch(make_reads(1000), model, 1024)
        assert large > small
        assert large >= 1000 * model.dispatch_ms_per_request

    def test_write_batch_scales_with_slot_count(self):
        model = BACKENDS["server"]
        small = simulate_parallel_write_batch({1: 10}, model, 64)
        large = simulate_parallel_write_batch({i: 10 for i in range(100)}, model, 64)
        assert large > small

    def test_empty_batch_is_free(self):
        assert simulate_parallel_read_batch([], BACKENDS["server"], 8) == 0.0

    def test_dynamo_parallelism_capped(self):
        reads = make_reads(640, buckets=list(range(640)))
        dynamo = simulate_parallel_read_batch(reads, BACKENDS["dynamo"], 1024)
        server = simulate_parallel_read_batch(reads, BACKENDS["server"], 1024)
        assert dynamo > server
