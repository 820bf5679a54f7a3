"""Property-based tests for the open-loop load generator.

Two families of properties:

* **Obliviousness is load-independent.**  The adversary-visible schedule —
  per partition namespace and per storage server — is a function of the
  configuration, never of the workload *or of how load arrives*: whatever
  arrival process drives the proxy, every dispatched epoch still shows the
  padded fixed-shape batches, and two different logical workloads offered
  through the same arrival process are indistinguishable node by node.
* **A fixed arrival seed is total determinism.**  The arrival process is
  the only new randomness the open loop introduces; with a fixed
  ``arrival_seed`` (and engine seed) the entire ``RunStats`` — every
  latency sample, queue delay, counter and result — is byte-identical
  across two runs.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import partition_traces, server_traces
from repro.api import EngineConfig, PoissonArrivals, create_engine
from repro.core.client import Read, Write

NUM_KEYS = 32
SHARDS = 2


def build_engine(seed, shards=1, storage_servers=1):
    config = (EngineConfig()
              .with_oram(num_blocks=256, z_real=4, block_size=96)
              .with_batching(read_batches=3, read_batch_size=8,
                             write_batch_size=8)
              .with_sharding(shards)
              .with_storage_servers(storage_servers)
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


def clear_traces(engine):
    storage = engine.proxy.storage
    if hasattr(storage, "clear_traces"):
        storage.clear_traces()
    else:
        storage.trace.clear()


class TestOpenLoopObliviousness:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**16), st.integers(0, 2**16),
           st.floats(min_value=50.0, max_value=5000.0))
    def test_per_partition_shape_is_arrival_and_workload_independent(
            self, seed, arrival_seed, rate_tps):
        """Whatever Poisson rate offers the load and whatever keys it
        touches, every epoch fans out as padded per-partition batches: R
        read batches *per partition* at exactly the per-partition quota,
        then one write batch per partition, then one delete batch per
        partition — and both namespaces carry traffic.  (Batch boundaries interleave on the shared server, so the
        shape is asserted on the shared trace; ``partition_traces`` splits
        the request streams themselves.)"""
        engine = build_engine(seed, shards=SHARDS)
        clear_traces(engine)
        run = engine.run_open_loop(
            rmw_source(seed, hot_keys=NUM_KEYS), 12,
            arrivals=PoissonArrivals(rate_tps, seed=arrival_seed),
            clients=4, max_retries=0)
        assert run.committed + run.aborted == run.offered
        config = engine.proxy.config
        shape = engine.proxy.storage.trace.batch_shape()
        kinds = [kind for kind, _ in shape]
        assert kinds == ((["read"] * SHARDS) * config.read_batches
                         + ["write"] * SHARDS + ["delete"] * SHARDS) * run.epochs
        read_sizes = {size for kind, size in shape if kind == "read"}
        assert read_sizes == {config.partition_read_batch_size}
        split = partition_traces(engine.proxy.storage.trace)
        assert set(split) == set(range(SHARDS))
        for index, sub in split.items():
            assert len(sub.events) > 0, f"partition {index} observed nothing"

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**16), st.integers(0, 2**16))
    def test_per_server_view_is_workload_independent_under_open_loop(
            self, seed, arrival_seed):
        """Uniform vs hot-key workloads offered through the *same* arrival
        process onto one server per partition: every node's own view shows
        the identical batch pattern (kind sequence and padded read sizes).
        ``max_retries=0`` keeps the wave count workload-independent, so the
        full shapes are comparable batch for batch."""
        arrivals = PoissonArrivals(400.0, seed=arrival_seed)
        views = {}
        quota = None
        for label, hot in (("uniform", NUM_KEYS), ("hot", 3)):
            engine = build_engine(seed, shards=SHARDS, storage_servers=SHARDS)
            quota = engine.proxy.config.partition_read_batch_size
            clear_traces(engine)
            engine.run_open_loop(rmw_source(seed + 1, hot_keys=hot), 10,
                                 arrivals=arrivals, clients=4, max_retries=0)
            views[label] = server_traces(engine.proxy.storage)
        assert set(views["uniform"]) == set(views["hot"]) == set(range(SHARDS))
        for server in range(SHARDS):
            shape_uniform = views["uniform"][server].batch_shape()
            shape_hot = views["hot"][server].batch_shape()
            assert shape_uniform, f"server {server} observed nothing"
            assert [kind for kind, _ in shape_uniform] == \
                [kind for kind, _ in shape_hot], f"server {server}"
            for shape in (shape_uniform, shape_hot):
                read_sizes = {size for kind, size in shape if kind == "read"}
                assert read_sizes == {quota}, f"server {server}"


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
