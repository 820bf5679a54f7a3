"""Tests for the client-side stash."""

import pytest

from repro.oram.crypto import IntegrityError
from repro.oram.stash import Stash, StashOverflowError, StashReason


class TestBasicOperations:
    def test_put_and_get(self):
        stash = Stash()
        stash.put(1, leaf=3, value=b"v")
        entry = stash.get(1)
        assert entry.leaf == 3 and entry.value == b"v"

    def test_put_replaces_existing(self):
        stash = Stash()
        stash.put(1, 3, b"old")
        stash.put(1, 5, b"new", StashReason.EVICTION_RESIDUE)
        entry = stash.get(1)
        assert entry.value == b"new"
        assert entry.leaf == 5
        assert entry.reason is StashReason.EVICTION_RESIDUE
        assert len(stash) == 1

    def test_remove(self):
        stash = Stash()
        stash.put(1, 0, b"v")
        removed = stash.remove(1)
        assert removed.block_id == 1
        assert 1 not in stash
        assert stash.remove(1) is None

    def test_contains_and_len(self):
        stash = Stash()
        stash.put(1, 0, b"a")
        stash.put(2, 0, b"b")
        assert 1 in stash and 3 not in stash
        assert len(stash) == 2

    def test_entries_sorted_by_block_id(self):
        stash = Stash()
        for block in (5, 1, 3):
            stash.put(block, 0, b"v")
        assert [e.block_id for e in stash.entries()] == [1, 3, 5]

    def test_peak_size_tracked(self):
        stash = Stash()
        for block in range(5):
            stash.put(block, 0, b"v")
        for block in range(5):
            stash.remove(block)
        assert stash.peak_size == 5

    def test_capacity_overflow_raises(self):
        stash = Stash(capacity=2)
        stash.put(1, 0, b"v")
        stash.put(2, 0, b"v")
        with pytest.raises(StashOverflowError):
            stash.put(3, 0, b"v")

    def test_mark_residue(self):
        stash = Stash()
        stash.put(1, 0, b"v")
        stash.mark_residue(1)
        assert stash.get(1).reason is StashReason.EVICTION_RESIDUE


class TestSerialization:
    def test_roundtrip_preserves_entries(self):
        stash = Stash()
        stash.put(1, 3, b"alpha")
        stash.put(2, 7, b"beta", StashReason.EVICTION_RESIDUE)
        blob = stash.serialize(pad_to_blocks=8, block_size=16)
        restored = Stash.deserialize(blob, block_size=16)
        assert restored.get(1).value == b"alpha"
        assert restored.get(2).reason is StashReason.EVICTION_RESIDUE
        assert len(restored) == 2

    def test_padding_hides_occupancy(self):
        small, large = Stash(), Stash()
        small.put(1, 0, b"x" * 16)
        for block in range(6):
            large.put(block, 0, b"y" * 16)
        blob_small = small.serialize(pad_to_blocks=8, block_size=16)
        blob_large = large.serialize(pad_to_blocks=8, block_size=16)
        # Both serialise eight records of 13 + 16 bytes.
        assert len(blob_small) == len(blob_large) == 8 * (13 + 16)

    def test_values_with_trailing_zero_bytes_survive(self):
        stash = Stash()
        stash.put(1, 0, b"abc\x00\x00")
        blob = stash.serialize(pad_to_blocks=2, block_size=16)
        assert Stash.deserialize(blob, block_size=16).get(1).value == b"abc\x00\x00"

    def test_blob_that_is_not_whole_records_is_an_integrity_error(self):
        stash = Stash()
        stash.put(1, 0, b"v")
        blob = stash.serialize(pad_to_blocks=2, block_size=16)
        for bad in (blob[:-1], blob + b"\x00"):
            with pytest.raises(IntegrityError, match="not a whole number"):
                Stash.deserialize(bad, block_size=16)

    def test_serialize_rejects_pad_below_occupancy(self):
        stash = Stash()
        for block in range(4):
            stash.put(block, 0, b"v")
        with pytest.raises(StashOverflowError):
            stash.serialize(pad_to_blocks=2, block_size=8)

    def test_serialize_rejects_oversized_value(self):
        stash = Stash()
        stash.put(1, 0, b"x" * 32)
        with pytest.raises(ValueError):
            stash.serialize(pad_to_blocks=4, block_size=16)
