"""Property-based tests for the Obladi proxy as a transactional key-value store."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ObladiEngine
from repro.concurrency.serializability import check_serializable
from repro.core.client import Read, ReadMany, Write
from repro.core.config import ObladiConfig, RingOramConfig
from repro.core.proxy import ObladiProxy


def make_proxy(seed):
    config = ObladiConfig(
        oram=RingOramConfig(num_blocks=128, z_real=4, block_size=96),
        read_batches=3, read_batch_size=8, write_batch_size=8,
        backend="dummy", durability=False, seed=seed, encrypt=False,
    )
    proxy = ObladiProxy(config)
    proxy.load_initial_data({f"k{i}": f"init-{i}".encode() for i in range(12)})
    return proxy


#: A batch of single-key read-modify-write transactions described as
#: (key index, new value) pairs grouped per epoch.
epoch_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=11), st.binary(min_size=1, max_size=8)),
    min_size=1, max_size=4,
)


class TestProxyLinearisesEpochs:
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(epoch_strategy, min_size=1, max_size=4), st.integers(0, 2**16))
    def test_committed_writes_follow_epoch_order(self, epochs, seed):
        """The value read after all epochs is the last *committed* write, and
        committed histories are serializable."""
        engine = ObladiEngine(make_proxy(seed))
        expected = {f"k{i}": f"init-{i}".encode() for i in range(12)}

        for epoch_ops in epochs:
            programs, handles = [], []
            for key_index, value in epoch_ops:
                key = f"k{key_index}"

                def program(key=key, value=value):
                    yield Read(key)
                    yield Write(key, value)
                    return value

                programs.append(program)
                handles.append((key, value))
            # One wave is one epoch; results come back in submission (and so
            # timestamp) order, and the committed ones update the model.
            for result, (key, value) in zip(engine.submit_many(programs), handles):
                if result.committed:
                    expected[key] = value

        def audit():
            rows = yield ReadMany([f"k{i}" for i in range(8)])
            return rows

        result = engine.submit(audit)
        if result.committed:
            for key, value in result.return_value.items():
                assert value == expected[key], key

        ok, cycle = check_serializable(engine.committed_history)
        assert ok, cycle

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**16))
    def test_epoch_shape_independent_of_random_workload(self, seed):
        """Whatever transactions run, the adversary sees R read batches of the
        configured size, one write batch and one delete batch, per epoch."""
        proxy = make_proxy(seed)
        proxy.storage.trace.clear()
        rng = random.Random(seed)
        for _ in range(3):
            for _ in range(rng.randrange(1, 5)):
                key = f"k{rng.randrange(12)}"

                def program(key=key):
                    value = yield Read(key)
                    if rng.random() < 0.5:
                        yield Write(key, b"x")
                    return value

                proxy.submit(program)
            proxy.run_epoch()
        shape = proxy.storage.trace.batch_shape()
        read_sizes = {size for kind, size in shape if kind == "read"}
        kinds = [kind for kind, _ in shape]
        assert read_sizes == {proxy.config.read_batch_size}
        assert kinds == (["read"] * proxy.config.read_batches + ["write", "delete"]) * 3
