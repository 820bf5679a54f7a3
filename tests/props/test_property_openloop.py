"""Property-based tests for the open-loop load generator.

**A fixed arrival seed is total determinism.**  The arrival process is the
only new randomness the open loop introduces; with a fixed ``arrival_seed``
(and engine seed) the entire ``RunStats`` — every latency sample, queue
delay, counter and result — is byte-identical across two runs.  Whether the
storage servers' views depend on how load arrives is the game in
``tests/analysis/test_leakage_game.py``.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, PoissonArrivals, create_engine
from repro.core.client import Read, Write

NUM_KEYS = 32
SHARDS = 2


def build_engine(seed, shards=1):
    config = (EngineConfig()
              .with_oram(num_blocks=256, z_real=4, block_size=96)
              .with_batching(read_batches=3, read_batch_size=8,
                             write_batch_size=8)
              .with_sharding(shards)
              .with_backend("dummy")
              .with_durability(False)
              .with_encryption(False)
              .with_seed(seed))
    engine = create_engine("obladi", config)
    engine.load_initial_data({f"k{i}": f"init-{i}".encode()
                              for i in range(NUM_KEYS)})
    return engine


def rmw_source(workload_seed, hot_keys):
    """Read-modify-write factory source over ``hot_keys`` random keys."""
    rng = random.Random(workload_seed)

    def source():
        key = f"k{rng.randrange(hot_keys)}"

        def factory():
            def program():
                value = yield Read(key)
                yield Write(key, (value or b"") + b"!")
                return value
            return program()

        return factory

    return source


class TestOpenLoopDeterminism:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**16), st.integers(0, 2**16))
    def test_fixed_arrival_seed_makes_run_stats_byte_identical(
            self, seed, arrival_seed):
        """Two runs from identical engine and arrival seeds agree on the
        *entire* RunStats — repr equality pins every sample and counter."""
        runs = []
        for _ in range(2):
            engine = build_engine(seed, shards=SHARDS)
            runs.append(engine.run_open_loop(
                rmw_source(seed + 7, hot_keys=6), 14,
                arrivals=PoissonArrivals(600.0, seed=arrival_seed),
                clients=4))
        first, second = runs
        assert repr(first) == repr(second)
        assert first == second
        assert first.queue_delays_ms == second.queue_delays_ms
        assert first.max_queue_depth == second.max_queue_depth

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**16))
    def test_different_arrival_seeds_change_arrivals_not_integrity(self, seed):
        """Perturbing only the arrival seed re-times the load but never
        breaks the accounting identity or the final state's consistency."""
        totals = []
        for arrival_seed in (1, 2):
            engine = build_engine(seed)
            run = engine.run_open_loop(
                rmw_source(seed + 3, hot_keys=6), 12,
                arrivals=PoissonArrivals(300.0, seed=arrival_seed), clients=4)
            assert run.committed + run.aborted == \
                (run.offered - run.dropped) + run.retries
            # Every committed transaction appended exactly one byte to one
            # of the six hot keys.
            appended = sum(len(engine.read(f"k{i}") or b"") - len(f"init-{i}")
                           for i in range(6))
            assert appended == run.committed
            totals.append(run.committed)
        assert all(count > 0 for count in totals)
