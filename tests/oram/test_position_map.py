"""Tests for the position map."""

import random

import pytest

from repro.oram.crypto import IntegrityError
from repro.oram.position_map import PositionMap


@pytest.fixture
def pmap():
    return PositionMap(num_leaves=16, rng=random.Random(1))


class TestMapping:
    def test_lookup_unknown_block_is_none(self, pmap):
        assert pmap.lookup(5) is None

    def test_lookup_or_assign_creates_mapping(self, pmap):
        leaf = pmap.lookup_or_assign(5)
        assert 0 <= leaf < 16
        assert pmap.lookup(5) == leaf

    def test_lookup_or_assign_is_stable(self, pmap):
        assert pmap.lookup_or_assign(5) == pmap.lookup_or_assign(5)

    def test_remap_changes_leaf_eventually(self, pmap):
        pmap.lookup_or_assign(5)
        leaves = {pmap.remap(5) for _ in range(50)}
        assert len(leaves) > 1
        assert all(0 <= leaf < 16 for leaf in leaves)

    def test_remap_distribution_is_roughly_uniform(self):
        pmap = PositionMap(num_leaves=8, rng=random.Random(3))
        counts = [0] * 8
        for _ in range(4000):
            counts[pmap.remap(0)] += 1
        assert min(counts) > 300

    def test_len_counts_mapped_blocks(self, pmap):
        pmap.lookup_or_assign(1)
        pmap.lookup_or_assign(2)
        assert pmap.lookup(3) is None
        assert len(pmap) == 2

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            PositionMap(0)


class TestCheckpointing:
    def test_dirty_tracking(self, pmap):
        pmap.lookup_or_assign(1)
        pmap.remap(1)
        assert 1 in pmap.dirty_entries()
        pmap.clear_dirty()
        assert pmap.dirty_entries() == {}

    def test_full_serialisation_roundtrip(self, pmap):
        for block in range(10):
            pmap.lookup_or_assign(block)
        blob = pmap.serialize_full()
        assert len(blob) == 10 * 8
        restored = PositionMap(16)
        assert restored.apply_delta(blob) == 10
        assert restored.dirty_entries() == {}
        assert {b: restored.lookup(b) for b in range(10)} == \
               {b: pmap.lookup(b) for b in range(10)}

    def test_delta_applies_only_dirty_entries(self, pmap):
        pmap.lookup_or_assign(1)
        pmap.clear_dirty()
        pmap.remap(2)
        blob = pmap.serialize_delta()
        other = PositionMap(16)
        applied = other.apply_delta(blob)
        assert applied == 1
        assert other.lookup(2) == pmap.lookup(2)
        assert other.lookup(1) is None

    def test_delta_padding_fixes_entry_count(self, pmap):
        pmap.remap(1)
        short = pmap.serialize_delta(pad_to_entries=8)
        pmap.remap(3)
        pmap.remap(5)
        longer = pmap.serialize_delta(pad_to_entries=8)
        # Both deltas encode exactly 8 fixed-width entries.
        assert len(short) == len(longer) == 8 * 8

    def test_delta_padding_overflow_rejected(self, pmap):
        pmap.remap(1)
        pmap.remap(2)
        with pytest.raises(ValueError):
            pmap.serialize_delta(pad_to_entries=1)

    def test_padded_delta_entries_are_ignored_on_apply(self, pmap):
        pmap.remap(1)
        blob = pmap.serialize_delta(pad_to_entries=4)
        other = PositionMap(16)
        assert other.apply_delta(blob) == 1
        assert len(other) == 1

    def test_delta_that_is_not_whole_entries_is_an_integrity_error(self, pmap):
        pmap.remap(1)
        blob = pmap.serialize_delta(pad_to_entries=4)
        for bad in (blob[:-1], blob + b"\x00"):
            with pytest.raises(IntegrityError, match="not a whole number"):
                PositionMap(16).apply_delta(bad)
