"""Property-based tests (hypothesis) for the Ring ORAM substrate."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import check_bucket_invariant, views
from repro.api import ObladiEngine
from repro.core.client import Read, Write
from repro.core.config import ObladiConfig, RingOramConfig
from repro.core.proxy import ObladiProxy
from repro.oram import path_math
from repro.oram.crypto import CipherSuite
from repro.oram.parameters import derive_parameters, partition_block_count

from tests.conftest import OneOpPerEpoch, valid_blocks


class TestPathMathProperties:
    @given(st.integers(min_value=0, max_value=2**10 - 1), st.integers(min_value=1, max_value=10))
    def test_every_bucket_on_path_contains_the_leaf(self, leaf, depth):
        leaf = leaf % (1 << depth)
        buckets = path_math.path_buckets(leaf, depth)
        assert len(buckets) == depth + 1
        for level, bucket in enumerate(buckets):
            assert path_math.bucket_level(bucket) == level
            assert path_math.bucket_index_in_level(bucket) == leaf >> (depth - level)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=8))
    def test_a_window_of_2_to_the_l_evictions_crosses_each_level_l_bucket_once(self, start, depth):
        for level in range(depth + 1):
            crossed = [path_math.path_buckets(path_math.eviction_path(g, depth), depth)[level]
                       for g in range(start, start + (1 << level))]
            assert sorted(crossed) == list(range((1 << level) - 1, (1 << (level + 1)) - 1))

    @given(st.integers(min_value=0, max_value=2**16 - 1), st.integers(min_value=1, max_value=16))
    def test_reverse_bits_is_an_involution(self, value, width):
        value = value % (1 << width)
        assert path_math.reverse_bits(path_math.reverse_bits(value, width), width) == value

    @given(st.integers(min_value=1, max_value=200_000), st.integers(min_value=1, max_value=128))
    def test_derived_tree_always_fits_the_blocks(self, blocks, z):
        params = derive_parameters(num_blocks=blocks, z_real=z)
        assert params.z_real * params.num_leaves >= blocks
        assert params.s_dummies >= 1
        assert params.evict_rate >= 1


class TestOramProperties:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=15), st.binary(min_size=1, max_size=12)),
                    min_size=1, max_size=60),
           st.integers(min_value=0, max_value=2**16))
    def test_oram_behaves_like_a_dictionary(self, operations, seed):
        """Writes followed by reads always return the latest written value."""
        db = OneOpPerEpoch(seed=seed, depth=3)
        reference = {}
        rng = random.Random(seed)
        for block, value in operations:
            if reference and rng.random() < 0.4:
                probe = rng.choice(sorted(reference))
                assert db.read(probe) == reference[probe]
            db.write(block, value)
            reference[block] = value
        for block, value in sorted(reference.items()):
            assert db.read(block) == value

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=80),
           st.integers(min_value=0, max_value=2**16))
    def test_path_invariant_always_holds(self, accesses, seed):
        """After any access sequence every block is in the stash or on its path."""
        db = OneOpPerEpoch(seed=seed, depth=3)
        oram = db.oram
        for block in range(16):
            db.write(block, bytes([block]))
        for block in accesses:
            db.read(block)
        for block in range(16):
            leaf = oram.position_map.lookup(block)
            if block in oram.stash or leaf is None:
                continue
            found = False
            for bid in path_math.path_buckets(leaf, oram.params.depth):
                if block in valid_blocks(oram.metadata.bucket(bid)):
                    found = True
                    break
            assert found, f"block {block} neither in stash nor on its path"

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=120),
           st.integers(min_value=0, max_value=2**16))
    def test_stash_never_explodes(self, accesses, seed):
        db = OneOpPerEpoch(seed=seed)
        for i, block in enumerate(accesses):
            db.write(block, bytes([i % 251]))
        assert len(db.oram.stash) <= 6 * db.oram.params.z_real


SHARDS = 4


def build_sharded_proxy(seed=13, shards=SHARDS, storage_servers=1,
                        proxy_workers=1):
    config = ObladiConfig(
        oram=RingOramConfig(num_blocks=256, z_real=4, block_size=64),
        read_batches=2, read_batch_size=16, write_batch_size=16,
        backend="dummy", durability=False, encrypt=False,
        shards=shards, storage_servers=storage_servers, seed=seed,
        proxy_workers=proxy_workers,
    )
    proxy = ObladiProxy(config)
    proxy.load_initial_data({f"k{i}": bytes([i % 251]) for i in range(64)})
    return proxy


def run_sharded_workload(proxy, key_picker, epochs=12, txns_per_epoch=8, seed=5):
    rng = random.Random(seed)
    for _ in range(epochs):
        for _ in range(txns_per_epoch):
            key = key_picker(rng)

            def program(key=key):
                value = yield Read(key)
                yield Write(key, (value or b"") + b"!")
                return value

            proxy.submit(program)
        proxy.run_epoch()


class TestPartitionedObliviousness:
    """The adversary watches each partition's storage namespace separately:
    every indistinguishability property must hold per partition, not just in
    aggregate across the sharded proxy."""

    def test_bucket_invariant_holds_per_partition(self):
        proxy = build_sharded_proxy()
        run_sharded_workload(proxy, lambda rng: f"k{rng.randrange(32)}")
        # Checked on the shared trace (partition-aware) and per partition.
        assert check_bucket_invariant(proxy.storage.servers[0].trace) == []
        split = views(proxy.storage)
        assert set(split) == {(0, 0, index) for index in range(SHARDS)}
        for key, view in split.items():
            assert check_bucket_invariant(view) == [], f"view {key}"

    def test_partition_trees_cover_the_keyspace(self):
        proxy = build_sharded_proxy()
        per_partition = partition_block_count(256, SHARDS)
        for part in proxy.data_layer.partitions:
            assert part.oram.params.num_blocks == per_partition
            assert part.oram.params.z_real * part.oram.params.num_leaves >= per_partition

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=2**16))
    def test_sharded_proxy_behaves_like_a_dictionary(self, seed):
        """Partitioning never changes answers: random read/write programs see
        exactly the values the reference dictionary predicts."""
        engine = ObladiEngine(build_sharded_proxy(seed=seed))
        reference = {f"k{i}": bytes([i % 251]) for i in range(64)}
        rng = random.Random(seed)
        for _ in range(4):
            keys = list(dict.fromkeys(        # dedupe: avoid write conflicts
                f"k{rng.randrange(64)}" for _ in range(6)))
            new_values = {key: bytes([rng.randrange(251)]) for key in keys}

            def factory(key):
                def program():
                    value = yield Read(key)
                    yield Write(key, new_values[key])
                    return value
                return program

            results = engine.submit_many([factory(key) for key in keys])
            for key, result in zip(keys, results):
                if result.committed:
                    assert result.return_value == reference[key], key
                    reference[key] = new_values[key]

        for key in sorted(reference):
            assert engine.read(key) == reference[key], key


class TestPerServerObliviousness:
    """With distinct per-partition storage servers every *node* runs its own
    observer: the bucket invariant must hold in each server's view of each
    namespace it hosts."""

    def test_bucket_invariant_holds_on_every_server(self):
        proxy = build_sharded_proxy(storage_servers=SHARDS)
        run_sharded_workload(proxy, lambda rng: f"k{rng.randrange(32)}")
        split = views(proxy.storage)
        assert set(split) == {(index, 0, index) for index in range(SHARDS)}
        for server in proxy.storage.servers:
            assert check_bucket_invariant(server.trace) == []
        for key, view in split.items():
            assert check_bucket_invariant(view) == [], f"view {key}"


class TestProxyTierObliviousness:
    """Sharding the *trusted* tier (``proxy_workers``) must not perturb the
    physical schedule at all: per-worker read scheduling happens strictly
    above the batch quotas, so the padded per-partition/per-server batches
    are exactly those of the single-proxy deployment."""

    def _trace_fingerprint(self, trace):
        return ([(event.op, event.key, event.batch_id) for event in trace.events],
                [(batch.kind, batch.request_count) for batch in trace.batches])

    def test_physical_schedule_identical_to_single_proxy(self):
        """Same seed, same workload: the adversary's full view (request
        sequence, batch boundaries and shapes) is byte-identical whether the
        trusted tier runs 1 worker or 4."""
        single = build_sharded_proxy(proxy_workers=1)
        sharded = build_sharded_proxy(proxy_workers=4)
        single.storage.servers[0].trace.clear()
        sharded.storage.servers[0].trace.clear()
        run_sharded_workload(single, lambda rng: f"k{rng.randrange(64)}")
        run_sharded_workload(sharded, lambda rng: f"k{rng.randrange(64)}")
        assert self._trace_fingerprint(sharded.storage.servers[0].trace) == \
            self._trace_fingerprint(single.storage.servers[0].trace)


class TestCryptoProperties:
    @given(st.binary(min_size=0, max_size=56), st.binary(min_size=8, max_size=32))
    def test_encrypt_decrypt_identity(self, payload, context):
        suite = CipherSuite(key=b"key" * 11, block_size=64)
        assert suite.decrypt(suite.encrypt(payload, context), context) == payload

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.binary(min_size=0, max_size=40))
    def test_seal_open_identity(self, block_id, value):
        suite = CipherSuite(key=b"key" * 11, block_size=64)
        opened_id, opened_value = suite.open_block(suite.seal_blocks([(block_id, value, b"")])[0])
        assert opened_id == block_id
        assert opened_value == value

    @given(st.binary(min_size=0, max_size=56))
    def test_ciphertext_length_constant(self, payload):
        suite = CipherSuite(key=b"key" * 11, block_size=64)
        assert len(suite.encrypt(payload)) == suite.ciphertext_size
