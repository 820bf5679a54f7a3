"""Tests for the data handler and the key directory."""

from repro.core.config import ObladiConfig, RingOramConfig
from repro.core.data_handler import KeyDirectory
from repro.sharding import PartitionedDataLayer
from repro.sim.clock import SimClock
from repro.storage.cluster import StorageCluster


def make_layer():
    """A one-partition data layer and its partition's handler.

    The layer owns the epoch lifecycle (``begin_epoch`` / ``abort_epoch``
    reset the shared version cache and the executor); the handler runs the
    batches.
    """
    config = ObladiConfig(oram=RingOramConfig(num_blocks=64, z_real=4, block_size=64),
                          backend="server", parallelism=32, durability=False, seed=3)
    clock = SimClock()
    layer = PartitionedDataLayer(config, storage=StorageCluster(clock=clock),
                                 clock=clock, master_key=b"m" * 32)
    return layer, layer.partitions[0].handler


class TestKeyDirectory:
    def test_ids_are_stable_and_dense(self):
        directory = KeyDirectory()
        first = directory.block_id("alpha")
        second = directory.block_id("beta")
        assert directory.block_id("alpha") == first
        assert {first, second} == {0, 1}
        assert len(directory) == 2

    def test_known(self):
        directory = KeyDirectory()
        directory.block_id("a")
        assert directory.known("a")
        assert not directory.known("b")

    def test_full_serialisation_roundtrip(self):
        directory = KeyDirectory()
        for key in ("a", "b", "c"):
            directory.block_id(key)
        restored = KeyDirectory.deserialize(directory.serialize())
        assert restored.block_id("b") == directory.block_id("b")
        assert restored.block_id("new") == 3     # next id preserved

    def test_delta_serialisation_contains_only_new_keys(self):
        directory = KeyDirectory()
        directory.block_id("old")
        directory.clear_dirty()
        directory.block_id("fresh")
        other = KeyDirectory()
        applied = other.apply_delta(directory.serialize_delta())
        assert applied == 1
        assert other.known("fresh")
        assert not other.known("old")

    def test_delta_preserves_next_id(self):
        directory = KeyDirectory()
        for key in ("a", "b", "c"):
            directory.block_id(key)
        directory.clear_dirty()
        directory.block_id("d")
        other = KeyDirectory()
        other.apply_delta(directory.serialize_delta())
        assert other.block_id("brand-new") == 4


class TestDataHandler:
    def test_read_batch_installs_base_values(self):
        layer, handler = make_layer()
        layer.begin_epoch()
        handler.execute_write_batch({"k1": b"v1", "k2": b"v2"}, batch_size=4)
        handler.flush()
        handler.executor.collect()
        layer.begin_epoch()
        values = handler.execute_read_batch(["k1", "k2", "missing"], batch_size=8)
        assert values["k1"] == b"v1"
        assert values["missing"] is None
        assert handler.cache.has_base("k1")
        assert handler.cache.base_value("k2") == b"v2"

    def test_cached_keys_not_refetched(self):
        layer, handler = make_layer()
        layer.begin_epoch()
        handler.execute_read_batch(["k1"], batch_size=4)
        served_before = handler.stats_reads_served_from_cache
        handler.execute_read_batch(["k1"], batch_size=4)
        assert handler.stats_reads_served_from_cache > served_before

    def test_abort_epoch_clears_cache_and_buffered_writes(self):
        layer, handler = make_layer()
        layer.begin_epoch()
        handler.execute_read_batch(["k1"], batch_size=4)
        layer.abort_epoch()
        assert not handler.cache.has_base("k1")
        assert len(handler.executor._buffered_rewrites) == 0

    def test_stash_resident_detection(self):
        layer, handler = make_layer()
        layer.begin_epoch()
        handler.execute_write_batch({"hot": b"value"}, batch_size=2)
        handler.flush()
        if handler.stash_resident("hot"):
            assert handler.stash_value("hot") == b"value"
        assert not handler.stash_resident("never-seen")

    def test_directory_grows_with_new_keys(self):
        layer, handler = make_layer()
        layer.begin_epoch()
        handler.execute_read_batch(["a", "b"], batch_size=4)
        handler.execute_write_batch({"c": b"x"}, batch_size=2)
        handler.flush()
        assert len(handler.directory) == 3
