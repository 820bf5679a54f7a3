"""Property-based tests: a checkpoint component's size is set by the configuration.

The storage server sees every checkpoint's byte count, so a padded component
must not reveal how much of its pad was real (paper §8).  For any dirty set
or stash content that fits the pad, the padded position-map delta and the
padded stash are the same length, a function of the pad (and the block size)
alone; a metadata delta is its row count times a width fixed by ``Z + S``.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.oram.metadata import MetadataTable
from repro.oram.position_map import PositionMap
from repro.oram.stash import Stash, StashReason

PAD = 16
BLOCK_SIZE = 24
BLOCK_IDS = st.integers(0, 2 ** 32 - 2)


@given(st.dictionaries(BLOCK_IDS, st.integers(0, 2 ** 20 - 1), max_size=PAD))
def test_a_padded_position_delta_is_as_long_whatever_it_holds(dirty):
    pmap = PositionMap(num_leaves=2 ** 20)
    for block_id, leaf in dirty.items():
        pmap.set(block_id, leaf)
    blob = pmap.serialize_delta(pad_to_entries=PAD)
    assert len(blob) == PAD * 8
    other = PositionMap(num_leaves=2 ** 20)
    assert other.apply_delta(blob) == len(dirty)
    assert dict(other.items()) == dirty


@given(st.dictionaries(BLOCK_IDS,
                       st.tuples(st.integers(0, 2 ** 32 - 1),
                                 st.binary(max_size=BLOCK_SIZE),
                                 st.sampled_from(list(StashReason))),
                       max_size=PAD))
def test_a_padded_stash_is_as_long_whatever_it_holds(entries):
    stash = Stash()
    for block_id, (leaf, value, reason) in entries.items():
        stash.put(block_id, leaf, value, reason)
    blob = stash.serialize(PAD, BLOCK_SIZE)
    assert len(blob) == PAD * (13 + BLOCK_SIZE)
    restored = Stash.deserialize(blob, BLOCK_SIZE)
    assert [(e.block_id, e.leaf, e.value, e.reason) for e in restored.entries()] \
        == [(e.block_id, e.leaf, e.value, e.reason) for e in stash.entries()]


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32),
       st.lists(st.tuples(st.integers(0, 30), st.integers(0, 6), st.integers(0, 40)),
                max_size=40))
def test_a_metadata_delta_is_its_row_count_times_a_width_set_by_z_and_s(z, s, seed,
                                                                      steps):
    table = MetadataTable(num_buckets=31, z_real=z, s_dummies=s, rng=random.Random(seed))
    for bucket_id, blocks, reads in steps:
        meta = table.rewrite_bucket(bucket_id, [(block_id, b"")
                                                for block_id in range(min(blocks, z))])
        for _ in range(reads % (z + s + 1)):
            meta.invalidate(meta.valid.index(True))
            meta.reads_since_write += 1
    rows = len(table.dirty_buckets())
    assert len(table.serialize_delta()) == rows * (12 + 4 * (z + s))
    assert len(table.serialize_valid_map(table.dirty_buckets())) \
        == rows * (4 + (z + s + 7) // 8)
