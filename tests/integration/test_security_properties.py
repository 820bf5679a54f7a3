"""Integration tests for Obladi's security properties.

These are the empirical counterparts of the paper's security lemmas: the
adversary-visible trace must be statistically independent of the logical
workload, the Ring ORAM invariants must hold end to end, and the epoch shape
must be a function of the configuration only.
"""

import os
import random

import pytest

from repro.analysis.obliviousness import (check_bucket_invariant, chi_square_uniformity,
                                          epoch_batch_pattern, leaf_access_counts,
                                          trace_similarity)
from repro.api import EngineConfig, create_engine
from repro.core.client import Read, ReadMany, Write
from repro.core.config import ObladiConfig, RingOramConfig
from repro.core.proxy import ObladiProxy


def build_proxy(seed=11):
    config = ObladiConfig(
        oram=RingOramConfig(num_blocks=256, z_real=4, block_size=128),
        read_batches=2, read_batch_size=10, write_batch_size=10,
        backend="server", durability=False, seed=seed,
    )
    proxy = ObladiProxy(config)
    proxy.load_initial_data({f"k{i}": f"value-{i}".encode() for i in range(64)})
    return proxy


def run_workload(proxy, key_picker, epochs=12, txns_per_epoch=6, writes=False, seed=5):
    rng = random.Random(seed)
    for _ in range(epochs):
        for _ in range(txns_per_epoch):
            key = key_picker(rng)

            def program(key=key):
                value = yield Read(key)
                if writes:
                    yield Write(key, (value or b"") + b"!")
                return value

            proxy.submit(program)
        proxy.run_epoch()


class TestWorkloadIndependence:
    def test_skewed_and_uniform_workloads_produce_similar_path_distributions(self):
        uniform_proxy = build_proxy(seed=11)
        skewed_proxy = build_proxy(seed=11)
        uniform_proxy.storage.trace.clear()
        skewed_proxy.storage.trace.clear()

        run_workload(uniform_proxy, lambda rng: f"k{rng.randrange(64)}")
        run_workload(skewed_proxy, lambda rng: f"k{rng.randrange(4)}")   # hot keys only

        depth = uniform_proxy.data_layer.partitions[0].oram.params.depth
        distance = trace_similarity(uniform_proxy.storage.trace, skewed_proxy.storage.trace,
                                    depth)
        # The leaf-access distributions must stay statistically close even
        # though the logical workloads are radically different.
        assert distance < 0.2

    def test_paths_read_are_uniformly_distributed(self):
        proxy = build_proxy()
        proxy.storage.trace.clear()
        run_workload(proxy, lambda rng: f"k{rng.randrange(8)}", epochs=16)
        depth = proxy.data_layer.partitions[0].oram.params.depth
        counts = leaf_access_counts(proxy.storage.trace, depth)
        _stat, p_value = chi_square_uniformity(counts, 1 << depth)
        assert p_value > 0.001

    def test_batch_pattern_is_configuration_shaped(self):
        proxy = build_proxy()
        proxy.storage.trace.clear()
        run_workload(proxy, lambda rng: f"k{rng.randrange(16)}", epochs=4)
        pattern = epoch_batch_pattern(proxy.storage.trace)
        # Each epoch shows exactly R read batches, one write batch and the
        # delete batch of the versions that write superseded.
        expected = (["read"] * proxy.config.read_batches + ["write", "delete"]) * 4
        assert pattern == expected

    def test_read_batches_always_padded_to_fixed_size(self):
        proxy = build_proxy()
        proxy.storage.trace.clear()
        # One tiny transaction per epoch: batches must still appear full-size.
        run_workload(proxy, lambda rng: "k1", epochs=3, txns_per_epoch=1)
        read_batches = [size for kind, size in proxy.storage.trace.batch_shape()
                        if kind == "read"]
        assert set(read_batches) == {proxy.config.read_batch_size}

    def test_bucket_invariant_never_violated(self):
        proxy = build_proxy()
        run_workload(proxy, lambda rng: f"k{rng.randrange(32)}", epochs=10, writes=True)
        assert check_bucket_invariant(proxy.storage.trace) == []

    def test_write_conflicts_do_not_change_adversary_view_shape(self):
        # Two runs: one with heavy write contention (many aborts), one with
        # none.  The adversary-visible batch pattern must be identical.
        calm = build_proxy(seed=21)
        contended = build_proxy(seed=21)
        calm.storage.trace.clear()
        contended.storage.trace.clear()

        def contended_txn():
            value = yield Read("k1")
            yield Write("k1", b"fight")
            return value

        def calm_txn(i):
            def program():
                value = yield Read(f"k{i}")
                yield Write(f"k{i}", b"peace")
                return value
            return program

        for epoch in range(4):
            for i in range(5):
                contended.submit(contended_txn)
                calm.submit(calm_txn(epoch * 5 + i))
            contended.run_epoch()
            calm.run_epoch()

        assert contended.stats_aborted > calm.stats_aborted
        assert epoch_batch_pattern(calm.storage.trace) == \
            epoch_batch_pattern(contended.storage.trace)
        sizes_calm = [s for _k, s in calm.storage.trace.batch_shape() if _k == "read"]
        sizes_contended = [s for _k, s in contended.storage.trace.batch_shape()
                           if _k == "read"]
        assert sizes_calm == sizes_contended


class TestBulkRandomness:
    def test_a_durable_epoch_draws_no_byte_from_the_getrandom_syscall(self, monkeypatch):
        # os.urandom makes only the long-lived keys, at construction; nonces
        # and dummy slots come from OpenSSL's CSPRNG.  One epoch here runs
        # read batches, a flush, WAL appends, a full checkpoint and the
        # collect of what they superseded.
        engine = create_engine("obladi", EngineConfig()
                               .with_oram(num_blocks=64, z_real=4, s_dummies=3,
                                          evict_rate=3, block_size=96)
                               .with_batching(read_batches=2, read_batch_size=4,
                                              write_batch_size=4)
                               .with_backend("server")
                               .with_durability(True, checkpoint_frequency=1)
                               .with_seed(3))

        def syscall(n):
            raise AssertionError(f"os.urandom({n}) on the data path")

        monkeypatch.setattr(os, "urandom", syscall)
        engine.load_initial_data({f"k{i}": b"v%d" % i for i in range(16)})
        recovery = engine.proxy.recovery
        checkpoints, wal_bytes = recovery.stats_checkpoints, recovery.stats_wal_bytes
        stored = engine.storage.keys()

        def append(key):
            def program():
                value = yield Read(key)
                yield Write(key, value + b"!")
                return value
            return program

        results = engine.submit_many([append(f"k{i}") for i in range(3)])
        assert [(result.committed, result.return_value) for result in results] == [
            (True, b"v0"), (True, b"v1"), (True, b"v2")]
        assert recovery.stats_checkpoints == checkpoints + 1
        assert recovery.stats_wal_bytes > wal_bytes
        assert set(stored) - set(engine.storage.keys())      # collect deleted
        assert engine.read("k1") == b"v1!"
