"""Tests for the checkpoint store."""

import pytest

from repro.recovery.checkpoint import MANIFEST_KEY, CheckpointManifest, CheckpointStore
from repro.sim.clock import SimClock
from repro.storage.backend import StorageOp
from repro.storage.memory import InMemoryStorageServer


def checkpoint_keys(storage):
    return sorted(key for key in storage.keys() if key.startswith("ckpt/"))


@pytest.fixture
def storage():
    return InMemoryStorageServer(clock=SimClock())


@pytest.fixture
def store(storage):
    return CheckpointStore(storage)


class TestManifest:
    def test_fresh_manifest_is_empty(self, store):
        assert store.manifest.last_epoch == -1
        assert store.chain() == []

    def test_manifest_roundtrip(self):
        manifest = CheckpointManifest(last_epoch=4, last_full_epoch=2, delta_epochs=[3, 4],
                                      access_count=100, eviction_count=12)
        restored = CheckpointManifest.deserialize(manifest.serialize())
        assert restored == manifest

    def test_manifest_persisted_on_storage(self, store, storage):
        store.write_checkpoint(0, {"position": b"{}"}, {}, full=True,
                               access_count=1, eviction_count=0)
        assert storage.contains(MANIFEST_KEY)
        reloaded = CheckpointStore(storage, cipher=store.cipher)
        assert reloaded.manifest.last_epoch == 0


class TestWriteAndRead:
    def test_component_roundtrip_encrypted(self, store):
        store.write_checkpoint(1, {"position": b"position-data"}, {"valid_map": b"[]"},
                               full=True, access_count=5, eviction_count=1)
        assert store.read_component(1, "position", full=True) == b"position-data"
        assert store.read_component(1, "valid_map", full=True, encrypted=False) == b"[]"

    def test_encrypted_components_unreadable_raw(self, store, storage):
        store.write_checkpoint(1, {"position": b"plaintext-position"}, {}, full=True,
                               access_count=0, eviction_count=0)
        raw = storage.read("ckpt/1/full/position")
        assert raw != b"plaintext-position"

    def test_missing_component_is_none(self, store):
        assert store.read_component(9, "position", full=True) is None

    def test_sizes_reported(self, store):
        sizes = store.write_checkpoint(0, {"position": b"x" * 100, "metadata": b"y" * 50,
                                           "stash": b"z" * 25},
                                       {"valid_map": b"v" * 10}, full=True,
                                       access_count=0, eviction_count=0)
        assert sizes.position_bytes >= 100
        assert sizes.metadata_bytes >= 50
        assert sizes.stash_bytes >= 25
        assert sizes.valid_map_bytes == 10
        assert sizes.total_bytes >= 185


class TestChain:
    def test_chain_full_then_deltas(self, store):
        store.write_checkpoint(0, {"position": b"full"}, {}, full=True,
                               access_count=0, eviction_count=0)
        store.write_checkpoint(1, {"position": b"d1"}, {}, full=False,
                               access_count=0, eviction_count=0)
        store.write_checkpoint(2, {"position": b"d2"}, {}, full=False,
                               access_count=0, eviction_count=0)
        chain = store.chain()
        assert [(entry["epoch"], entry["full"]) for entry in chain] == [
            (0, True), (1, False), (2, False)]

    def test_new_full_checkpoint_resets_deltas(self, store):
        store.write_checkpoint(0, {"position": b"f0"}, {}, full=True,
                               access_count=0, eviction_count=0)
        store.write_checkpoint(1, {"position": b"d1"}, {}, full=False,
                               access_count=0, eviction_count=0)
        store.write_checkpoint(2, {"position": b"f2"}, {}, full=True,
                               access_count=0, eviction_count=0)
        chain = store.chain()
        assert [(entry["epoch"], entry["full"]) for entry in chain] == [(2, True)]

    def test_counters_stored(self, store):
        store.write_checkpoint(0, {"position": b"x"}, {}, full=True,
                               access_count=42, eviction_count=7)
        assert store.manifest.access_count == 42
        assert store.manifest.eviction_count == 7

    def test_garbage_collect_removes_old_epochs(self, store, storage):
        """A new full checkpoint retires the previous chain — the old full
        checkpoint and its deltas — once its manifest is stored."""
        store.write_checkpoint(0, {"position": b"old"}, {"valid_map": b"[]"}, full=True,
                               access_count=0, eviction_count=0)
        store.write_checkpoint(1, {"position": b"d1"}, {}, full=False,
                               access_count=0, eviction_count=0)
        storage.trace.clear()
        store.write_checkpoint(5, {"position": b"new"}, {}, full=True,
                               access_count=0, eviction_count=0)
        # The commit deletes nothing: the caller collects once it has acted
        # on it.
        assert storage.contains("ckpt/1/delta/position")
        assert store.collect() == 3
        assert store.collect() == 0
        # Components, then the manifest, then the delete: a crash between
        # any two leaves a readable chain.
        assert [(event.op, event.key) for event in storage.trace.events] == [
            (StorageOp.WRITE, "ckpt/5/full/position"),
            (StorageOp.WRITE, MANIFEST_KEY),
            (StorageOp.DELETE, "ckpt/0/full/position"),
            (StorageOp.DELETE, "ckpt/0/full/valid_map"),
            (StorageOp.DELETE, "ckpt/1/delta/position")]
        assert storage.trace.batch_shape()[-1] == ("delete", 3)
        assert store.read_component(0, "position", full=True) is None
        assert store.read_component(0, "valid_map", full=True, encrypted=False) is None
        assert store.read_component(1, "position", full=False) is None
        assert store.read_component(5, "position", full=True) == b"new"
        assert checkpoint_keys(storage) == ["ckpt/5/full/position", MANIFEST_KEY]

    def test_full_checkpoint_rewritten_at_its_own_epoch_survives(self, store, storage):
        """A cutover fence may land at the epoch the last full checkpoint
        already used: keys the new chain rewrote are not deleted."""
        for payload in (b"first", b"again"):
            store.write_checkpoint(4, {"position": payload}, {}, full=True,
                                   access_count=0, eviction_count=0)
            store.collect()
        assert store.read_component(4, "position", full=True) == b"again"
        assert checkpoint_keys(storage) == ["ckpt/4/full/position", MANIFEST_KEY]

    def test_a_reloaded_store_sweeps_before_its_first_full_checkpoint(self, store, storage):
        """A store that loaded a chain it did not write lists the server once:
        objects outside the manifest's chain go at once, the chain itself
        once the next full checkpoint's manifest is stored and collected."""
        store.write_checkpoint(0, {"position": b"f0"}, {}, full=True,
                               access_count=0, eviction_count=0)
        store.write_checkpoint(1, {"position": b"d1"}, {}, full=False,
                               access_count=0, eviction_count=0)
        storage.write("ckpt/2/delta/position", b"written, never named")
        reloaded = CheckpointStore(storage, cipher=store.cipher)
        reloaded.write_checkpoint(2, {"position": b"d2"}, {}, full=False,
                                  access_count=0, eviction_count=0)
        assert checkpoint_keys(storage) == [
            "ckpt/0/full/position", "ckpt/1/delta/position", "ckpt/2/delta/position",
            MANIFEST_KEY]
        reloaded.write_checkpoint(3, {"position": b"f3"}, {}, full=True,
                                  access_count=0, eviction_count=0)
        reloaded.collect()
        assert checkpoint_keys(storage) == ["ckpt/3/full/position", MANIFEST_KEY]

    def test_sweep_keeps_the_chain_and_deletes_the_rest(self, store, storage):
        store.write_checkpoint(0, {"position": b"f0"}, {}, full=True,
                               access_count=0, eviction_count=0)
        storage.write_batch({"ckpt/7/full/position": b"orphan",
                             "ckpt/0/delta/position": b"orphan", "wal/0": b"log"})
        assert CheckpointStore(storage, cipher=store.cipher).sweep() == 2
        assert checkpoint_keys(storage) == ["ckpt/0/full/position", MANIFEST_KEY]
        assert storage.contains("wal/0")
