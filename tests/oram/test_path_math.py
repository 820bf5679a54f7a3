"""Tests for tree geometry and the deterministic eviction schedule."""

import pytest

from repro.oram import path_math


class TestTreeGeometry:
    def test_bucket_level_and_index_round_trip(self):
        # Heap numbering: the bucket at ``level`` with in-level ``index``.
        for level in range(5):
            for index in range(1 << level):
                bid = (1 << level) - 1 + index
                assert path_math.bucket_level(bid) == level
                assert path_math.bucket_index_in_level(bid) == index

    def test_root_is_bucket_zero(self):
        assert path_math.bucket_level(0) == 0
        assert path_math.bucket_index_in_level(0) == 0

    def test_negative_bucket_id_rejected(self):
        with pytest.raises(ValueError):
            path_math.bucket_level(-1)


class TestPaths:
    def test_path_starts_at_root_and_ends_at_leaf(self):
        depth = 4
        buckets = path_math.path_buckets(leaf=5, depth=depth)
        assert buckets[0] == 0
        assert len(buckets) == depth + 1
        assert path_math.bucket_level(buckets[-1]) == depth

    def test_adjacent_levels_are_parent_child(self):
        buckets = path_math.path_buckets(leaf=11, depth=4)
        for parent, child in zip(buckets, buckets[1:]):
            assert (child - 1) // 2 == parent

    def test_all_paths_distinct_leaves(self):
        depth = 3
        leaves = {path_math.path_buckets(leaf, depth)[-1] for leaf in range(1 << depth)}
        assert len(leaves) == 1 << depth

    def test_leaf_out_of_range(self):
        with pytest.raises(ValueError):
            path_math.path_buckets(leaf=8, depth=3)

    def test_path_holds_the_leafs_ancestor_at_every_level(self):
        depth = 3
        for level, bid in enumerate(path_math.path_buckets(leaf=6, depth=depth)):
            assert path_math.bucket_level(bid) == level
            assert path_math.bucket_index_in_level(bid) == 6 >> (depth - level)

    # The eviction write phase places a stash block by the deepest level its
    # path shares with the evicted one, ``depth - (a ^ b).bit_length()``:
    # one less than the number of buckets the two paths share.
    @staticmethod
    def shared_levels(leaf_a, leaf_b, depth):
        return len(set(path_math.path_buckets(leaf_a, depth))
                   & set(path_math.path_buckets(leaf_b, depth))) - 1

    def test_common_level_of_a_path_with_itself_is_the_leaf(self):
        assert 4 - (5 ^ 5).bit_length() == self.shared_levels(5, 5, 4) == 4

    def test_common_level_of_opposite_leaves_is_the_root(self):
        # Leaves 0 and 2^d - 1 share only the root.
        assert 4 - (0 ^ 15).bit_length() == self.shared_levels(0, 15, 4) == 0

    def test_common_level_of_sibling_leaves(self):
        # Leaves 0b100 and 0b101 share the top two levels plus the root.
        assert 3 - (4 ^ 5).bit_length() == self.shared_levels(4, 5, 3) == 2


class TestEvictionSchedule:
    def test_reverse_bits(self):
        assert path_math.reverse_bits(0b001, 3) == 0b100
        assert path_math.reverse_bits(0b110, 3) == 0b011
        assert path_math.reverse_bits(0, 4) == 0

    def test_reverse_bits_rejects_overflow(self):
        with pytest.raises(ValueError):
            path_math.reverse_bits(8, 3)

    def test_reverse_bits_rejects_a_negative_value(self):
        with pytest.raises(ValueError):
            path_math.reverse_bits(-1, 3)

    def test_eviction_path_cycles_through_all_leaves(self):
        depth = 3
        visited = {path_math.eviction_path(g, depth) for g in range(1 << depth)}
        assert visited == set(range(1 << depth))

    def test_negative_eviction_counter_rejected(self):
        with pytest.raises(ValueError):
            path_math.eviction_path(-1, 3)

    def test_a_root_only_tree_evicts_its_one_path(self):
        assert [path_math.eviction_path(g, 0) for g in range(3)] == [0, 0, 0]
        assert path_math.path_buckets(0, 0) == [0]

    def test_eviction_path_is_periodic(self):
        depth = 4
        for g in range(40):
            assert path_math.eviction_path(g, depth) == path_math.eviction_path(
                g + (1 << depth), depth)

    def test_consecutive_evictions_spread_across_subtrees(self):
        # Reverse-lexicographic order alternates between left and right
        # subtrees, which is what balances bucket rewrites.
        depth = 3
        first, second = path_math.eviction_path(0, depth), path_math.eviction_path(1, depth)
        assert (first < 4) != (second < 4)

    def test_level_l_bucket_is_rewritten_once_every_2_to_the_l_evictions(self):
        # Any 2**l consecutive evict-paths cross every level-l bucket exactly
        # once, which is what bounds a bucket's reads between rewrites.
        depth = 4
        for start in range(40):
            for level in range(depth + 1):
                crossed = [path_math.path_buckets(path_math.eviction_path(g, depth), depth)[level]
                           for g in range(start, start + (1 << level))]
                assert sorted(crossed) == list(range((1 << level) - 1, (1 << (level + 1)) - 1))
