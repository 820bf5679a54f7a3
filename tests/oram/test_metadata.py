"""Tests for per-bucket metadata (permutations, valid bits, versions)."""

import random
import struct

import pytest

from repro.oram.crypto import IntegrityError
from repro.oram.metadata import NO_BLOCK, MetadataTable
from repro.oram.parameters import RingOramParameters
from repro.oram.ring_oram import RingOram
from repro.storage.memory import InMemoryStorageServer


@pytest.fixture
def table():
    return MetadataTable(num_buckets=15, z_real=4, s_dummies=6, rng=random.Random(2))


class TestBucketLayout:
    def test_fresh_bucket_has_all_slots(self, table):
        meta = table.bucket(0)
        assert len(meta.blocks) == len(meta.valid) == 10
        assert meta.version == 0
        assert meta.reads_since_write == 0

    def test_fresh_bucket_is_all_dummies(self, table):
        meta = table.bucket(3)
        assert meta.real_block_ids() == []
        assert len(meta.valid_dummy_slots()) == 10

    def test_out_of_range_bucket_rejected(self, table):
        with pytest.raises(ValueError):
            table.bucket(15)

    def test_rewrite_installs_contents(self, table):
        meta = table.rewrite_bucket(1, [(10, b"a"), (11, b"b")])
        assert sorted(meta.real_block_ids()) == [10, 11]
        assert meta.version == 1
        assert meta.reads_since_write == 0

    def test_rewrite_rejects_overflow(self, table):
        contents = [(i, b"x") for i in range(5)]
        with pytest.raises(ValueError):
            table.rewrite_bucket(1, contents)

    def test_rewrite_shuffles_slot_positions(self):
        # With a non-trivial RNG the block does not always land in slot 0.
        positions = set()
        for seed in range(10):
            table = MetadataTable(3, 2, 2, rng=random.Random(seed))
            meta = table.rewrite_bucket(0, [(1, b"v")])
            positions.add(meta.slot_of_block(1))
        assert len(positions) > 1

    def test_versions_increase_monotonically(self, table):
        table.rewrite_bucket(2, [])
        table.rewrite_bucket(2, [(1, b"v")])
        assert table.bucket(2).version == 2


class TestSlotAccounting:
    def test_slot_of_block_finds_valid_slot(self, table):
        table.rewrite_bucket(0, [(42, b"v")])
        idx = table.bucket(0).slot_of_block(42)
        assert idx is not None
        assert table.bucket(0).blocks[idx] == 42

    def test_invalidate_marks_slot(self, table):
        table.rewrite_bucket(0, [(42, b"v")])
        meta = table.bucket(0)
        idx = meta.slot_of_block(42)
        meta.invalidate(idx)
        assert meta.slot_of_block(42) is None

    def test_double_invalidate_rejected(self, table):
        meta = table.bucket(0)
        meta.invalidate(0)
        with pytest.raises(ValueError):
            meta.invalidate(0)

    def test_over_read_reported_on_the_sth_read_since_a_rewrite(self):
        # Six dummy paths over distinct leaves: only the root, which lies on
        # every path, reaches S = 6 reads, and only on the sixth.
        params = RingOramParameters(num_blocks=32, z_real=4, s_dummies=6,
                                    evict_rate=3, depth=3, block_size=64)
        oram = RingOram(params, InMemoryStorageServer(), seed=2)
        for leaf in range(5):
            assert oram.plan_path_read(None, force_dummy_path=leaf).over_read == []
        assert oram.plan_path_read(None, force_dummy_path=5).over_read == [0]
        assert oram.metadata.bucket(0).reads_since_write == 6

        oram.complete_eviction(oram.plan_early_reshuffle(0), {})
        assert oram.metadata.bucket(0).reads_since_write == 0
        assert oram.plan_path_read(None, force_dummy_path=6).over_read == []

    def test_valid_real_block_ids_excludes_invalidated(self, table):
        table.rewrite_bucket(0, [(1, b"a"), (2, b"b")])
        meta = table.bucket(0)
        meta.invalidate(meta.slot_of_block(1))
        assert meta.valid_real_block_ids() == [2]


class TestSerialization:
    def test_full_roundtrip(self, table):
        table.rewrite_bucket(0, [(1, b"a")])
        table.rewrite_bucket(7, [(2, b"b")])
        table.bucket(7).invalidate(table.bucket(7).slot_of_block(2))
        restored = MetadataTable(15, 4, 6)
        assert restored.apply_delta(table.serialize_full()) == 2
        restored.apply_valid_map(table.serialize_valid_map())
        assert restored.bucket(0).real_block_ids() == [1]
        assert restored.bucket(7).slot_of_block(2) is None
        assert restored.bucket(7).version == 1

    def test_delta_contains_only_dirty_buckets(self, table):
        table.rewrite_bucket(0, [(1, b"a")])
        table.clear_dirty()
        table.rewrite_bucket(3, [(2, b"b")])
        other = MetadataTable(15, 4, 6)
        applied = other.apply_delta(table.serialize_delta())
        assert applied == 1
        assert other.bucket(3).real_block_ids() == [2]
        assert other.bucket(0).real_block_ids() == []

    def test_valid_map_roundtrip(self, table):
        table.rewrite_bucket(0, [(1, b"a")])
        meta = table.bucket(0)
        meta.invalidate(0)
        blob = table.serialize_valid_map()
        other = MetadataTable(15, 4, 6)
        other.rewrite_bucket(0, [(1, b"a")])
        other.apply_valid_map(blob)
        assert other.bucket(0).valid[0] is False

    def test_valid_map_for_unknown_bucket_is_corruption(self, table):
        # A checkpoint's valid rows cover the buckets of its metadata rows;
        # skipping a stray row would leave consumed slots marked valid.
        table.rewrite_bucket(0, [(1, b"a")])
        blob = table.serialize_valid_map()
        with pytest.raises(ValueError, match="bucket 0"):
            MetadataTable(15, 4, 6).apply_valid_map(blob)

    def test_valid_map_of_another_width_is_corruption(self, table):
        table.rewrite_bucket(5, [(1, b"a")])
        blob = table.serialize_valid_map()
        narrower = MetadataTable(15, 4, 5)
        narrower.rewrite_bucket(5, [(1, b"a")])
        before = list(narrower.bucket(5).valid)
        with pytest.raises(ValueError, match="bucket 5"):
            narrower.apply_valid_map(blob)
        assert narrower.bucket(5).valid == before

    def test_valid_map_that_is_not_whole_records_is_corruption(self, table):
        table.rewrite_bucket(0, [(1, b"a")])
        table.rewrite_bucket(1, [(2, b"b")])
        blob = table.serialize_valid_map()
        assert len(blob) == 2 * (4 + 2)
        for bad in (blob[:-1], blob + b"\x00"):
            with pytest.raises(ValueError, match="not a whole number"):
                table.apply_valid_map(bad)

    def test_valid_map_with_bits_past_the_slots_is_corruption(self, table):
        table.rewrite_bucket(2, [(1, b"a")])
        with pytest.raises(ValueError, match="bucket 2 sets bits past its 10 slots"):
            table.apply_valid_map(struct.pack("<IH", 2, 1 << 10))

    def test_bucket_row_roundtrip(self):
        # Bucket id, version, reads since write, then one u32 per slot (a
        # dummy is NO_BLOCK); the valid bits live in the valid map alone.
        row = struct.pack("<IIIII", 3, 7, 2, 5, NO_BLOCK)
        valid_record = struct.pack("<IB", 3, 0b01)
        table = MetadataTable(num_buckets=4, z_real=1, s_dummies=1)
        assert table.apply_delta(row) == 1
        assert table.bucket(3).valid == [True, True]
        table.apply_valid_map(valid_record)
        restored = table.bucket(3)
        assert (restored.bucket_id, restored.version, restored.reads_since_write) == (3, 7, 2)
        assert restored.blocks == [5, None]
        assert restored.valid == [True, False]
        assert table.serialize_full() == row
        assert table.serialize_valid_map() == valid_record

    def test_rows_that_are_not_whole_are_an_integrity_error(self, table):
        table.rewrite_bucket(0, [(1, b"a")])
        blob = table.serialize_full()
        assert len(blob) == 12 + 4 * 10
        for bad in (blob[:-1], blob + b"\x00"):
            with pytest.raises(IntegrityError, match="not a whole number"):
                MetadataTable(15, 4, 6).apply_delta(bad)

    def test_dirty_tracking_cleared(self, table):
        table.rewrite_bucket(0, [])
        assert table.dirty_buckets() == [0]
        table.clear_dirty()
        assert table.dirty_buckets() == []
