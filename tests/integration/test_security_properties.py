"""Integration tests for Obladi's security properties.

The Ring ORAM bucket invariant must hold end to end, and an epoch's bulk
randomness must not come from the getrandom syscall.  Workload independence
itself is the game in ``tests/analysis/test_leakage_game.py``.
"""

import os
import random

import pytest

from repro.analysis import check_bucket_invariant
from repro.api import EngineConfig, create_engine
from repro.core.client import Read, ReadMany, Write
from repro.core.config import ObladiConfig, RingOramConfig
from repro.core.proxy import ObladiProxy


def make_proxy(seed=11):
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
    def test_bucket_invariant_never_violated(self):
        proxy = make_proxy()
        run_workload(proxy, lambda rng: f"k{rng.randrange(32)}", epochs=10, writes=True)
        assert check_bucket_invariant(proxy.storage.servers[0].trace) == []


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
