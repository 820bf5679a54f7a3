"""Property-based tests: the bulk loader ≡ its reference form, state for state.

:meth:`repro.oram.ring_oram.RingOram.bulk_load` finds each block's bucket by
arithmetic on its leaf, draws leaves with
:meth:`repro.oram.position_map.PositionMap.draw_leaf`, and rewrites each
written bucket once without building the all-dummy layout a lookup would
have made; :meth:`repro.sharding.partitioned.PartitionedDataLayer.bulk_load`
routes every key in one call.  None of that may move a draw or a byte.  The
reference below is the loader's plain first form: ``randrange`` leaves, a
path list per block, ``MetadataTable.bucket`` then a fresh layout per
written bucket, one ``partition_for_key`` per key.  Both run on twin data
layers from the same seed, and every piece of client state the load leaves
must match: bucket rows, the position map, the stash, the key directories,
the dirty sets, what the server stores and the RNG state.  Every tree must
also pass :meth:`~repro.oram.ring_oram.RingOram.check_invariants`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ObladiConfig, RingOramConfig
from repro.oram import metadata as metadata_module
from repro.oram import path_math
from repro.oram.crypto import freshness_context
from repro.oram.ring_oram import BucketRewrite
from repro.oram.stash import StashReason
from repro.sharding.partitioned import PartitionedDataLayer
from repro.sim.clock import SimClock
from repro.storage.cluster import StorageCluster

from tests.conftest import stored_data, stored_versions

NUM_BLOCKS = 64
MASTER_KEY = bytes(range(32))


def reference_lookup_or_assign(position_map, block_id):
    """``PositionMap.lookup_or_assign`` with a ``randrange`` leaf."""
    leaf = position_map.lookup(block_id)
    if leaf is None:
        leaf = position_map._rng.randrange(position_map.num_leaves)
        position_map._positions[block_id] = leaf
        position_map._dirty.add(block_id)
    return leaf


def reference_rewrite_bucket(metadata, bucket_id, contents):
    """``MetadataTable.rewrite_bucket`` in its first form: ``bucket()``
    first, which draws, builds and stores an all-dummy layout."""
    old = metadata.bucket(bucket_id)
    fresh = metadata._fresh_bucket(bucket_id, contents)
    fresh.version = old.version + 1
    metadata._buckets[bucket_id] = fresh
    metadata._dirty.add(bucket_id)
    return fresh


def reference_bulk_load(oram, blocks):
    """``RingOram.bulk_load`` in its first form."""
    placements = {}
    for block_id, value in sorted(blocks.items()):
        leaf = reference_lookup_or_assign(oram.position_map, block_id)
        placed = False
        for bid in reversed(path_math.path_buckets(leaf, oram.params.depth)):
            bucket_load = placements.setdefault(bid, [])
            if len(bucket_load) < oram.params.z_real:
                bucket_load.append((block_id, value))
                placed = True
                break
        if not placed:
            oram.stash.put(block_id, leaf, value, StashReason.EVICTION_RESIDUE)
    rewrites = []
    for bid, contents in sorted(placements.items()):
        meta = reference_rewrite_bucket(oram.metadata, bid, contents)
        rewrites.append(BucketRewrite(bucket_id=bid, version=meta.version,
                                      slot_blocks=list(meta.blocks),
                                      plain_contents=dict(contents)))
    items = oram.seal_rewrites(rewrites)
    if items:
        oram.storage.write_batch(items)
        oram.clock.advance(oram.cost_model.sequential_block_cost_ms(oram.crypto_charged())
                           * len(items))


def reference_layer_bulk_load(layer, items):
    """``PartitionedDataLayer.bulk_load`` in its first form."""
    groups = [{} for _ in layer.partitions]
    for key, value in items.items():
        part = layer.partition_for_key(key)
        groups[part.index][part.directory.block_id(key)] = value
    for part, blocks in zip(layer.partitions, groups):
        reference_bulk_load(part.oram, blocks)


def make_layer(z_real, shards, encrypt, seed):
    config = ObladiConfig(oram=RingOramConfig(num_blocks=NUM_BLOCKS, z_real=z_real,
                                              block_size=16),
                          shards=shards, encrypt=encrypt, durability=False, seed=seed)
    return PartitionedDataLayer(config, StorageCluster(record_trace=False),
                                SimClock(), MASTER_KEY)


def loaded_values(layer):
    """``{(partition, block id): value}`` over every real slot the server holds
    and every stash entry, each opened under its own context.

    A block held twice fails, and with the cipher off every dummy slot must
    open as a dummy.
    """
    data = stored_data(layer.partitions[0].storage)
    held = {}
    for part in layer.partitions:
        oram = part.oram
        copies = [(entry.block_id, entry.value) for entry in oram.stash.entries()]
        for bid in oram.metadata.buckets_present():
            meta = oram.metadata.bucket(bid)
            for slot, (block, key) in enumerate(zip(meta.blocks,
                                                    oram.slot_keys(bid, meta.version))):
                if block is not None:
                    context = freshness_context(bid, meta.version, slot)
                    opened, value = oram.cipher.open_block(data[key], context)
                    assert opened == block
                    copies.append((block, value))
                elif not layer.config.encrypt:
                    assert oram.cipher.open_block(data[key]) == (None, b"")
        for block, value in copies:
            assert (part.index, block) not in held
            held[part.index, block] = value
    return held


def client_state(layer):
    """Everything a bulk load leaves behind, per partition."""
    state = []
    for part in layer.partitions:
        oram = part.oram
        state.append((
            oram.metadata.serialize_full(),
            oram.metadata.serialize_valid_map(),
            oram.metadata.dirty_buckets(),
            oram.position_map.serialize_full(),
            sorted(oram.position_map.dirty_entries().items()),
            [(e.block_id, e.leaf, e.value, e.reason) for e in oram.stash.entries()],
            part.directory.serialize(),
            oram.rng.getstate(),
        ))
    return state


def load_both(z_real, shards, encrypt, seed, size):
    items = {f"key{i}": b"value-%d" % i for i in range(size)}
    layer, reference = (make_layer(z_real, shards, encrypt, seed) for _ in range(2))
    layer.bulk_load(items)
    reference_layer_bulk_load(reference, items)
    return layer, reference, items


def assert_same_load(layer, reference, items):
    assert client_state(layer) == client_state(reference)
    ours = stored_data(layer.partitions[0].storage)
    theirs = stored_data(reference.partitions[0].storage)
    assert sorted(ours) == sorted(theirs)
    if not layer.config.encrypt:
        assert ours == theirs
    assert {len(blob) for blob in ours.values()} == {len(blob) for blob in theirs.values()}
    assert layer.clock.now_ms == reference.clock.now_ms
    assert loaded_values(layer) == {
        (layer.partition_of(key), layer.partition_for_key(key).directory.block_id(key)): value
        for key, value in items.items()}
    for part in layer.partitions:
        assert part.oram.check_invariants() == [], f"partition {part.index}"


@pytest.mark.parametrize("encrypt", [False, True])
@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("z_real", [2, 4, 8, 16])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32), size=st.integers(0, 112))
def test_bulk_load_is_the_reference_loader(z_real, shards, encrypt, seed, size):
    """Up to 1.75x the provisioned blocks: near capacity some of them
    overflow into the stash, which stays far inside its bound."""
    assert_same_load(*load_both(z_real, shards, encrypt, seed, size))


@pytest.mark.parametrize("encrypt", [False, True])
@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("z_real", [2, 4, 8, 16])
def test_an_overfull_load_spills_into_the_stash_as_the_reference_does(z_real, shards, encrypt):
    layer, reference, items = load_both(z_real, shards, encrypt, seed=3, size=2 * NUM_BLOCKS)
    assert sum(len(part.oram.stash) for part in layer.partitions) > 0
    assert_same_load(layer, reference, items)


@pytest.mark.parametrize("shards", [1, 2])
def test_each_written_bucket_is_built_once(monkeypatch, shards):
    """One ``BucketMeta`` per written bucket; the reference builds two (the
    all-dummy layout ``bucket()`` draws, then the loaded one)."""
    layer = make_layer(4, shards, False, seed=11)
    built = []
    original = metadata_module.BucketMeta.__init__

    def counting_init(self, bucket_id, *args, **kwargs):
        built.append(bucket_id)
        original(self, bucket_id, *args, **kwargs)

    monkeypatch.setattr(metadata_module.BucketMeta, "__init__", counting_init)
    layer.bulk_load({f"key{i}": b"v" for i in range(NUM_BLOCKS)})
    monkeypatch.undo()
    written = [stored_versions(part.storage, part.oram.key_prefix) for part in layer.partitions]
    assert sorted(built) == sorted(bid for stored in written for bid in stored)
    assert len(built) > 0
    for part, stored in zip(layer.partitions, written):
        assert part.oram.metadata.buckets_present() == sorted(stored)
        assert all(versions == {1: part.oram.params.slots_per_bucket}
                   for versions in stored.values())
