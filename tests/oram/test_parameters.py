"""Tests for Ring ORAM parameter derivation."""

import pytest

from repro.oram.parameters import (PUBLISHED_PARAMETERS, RingOramParameters,
                                   depth_for_blocks, derive_parameters, published_a_s)


class TestPublishedParameters:
    def test_paper_configuration_present(self):
        # The Obladi evaluation uses Z=100, S=196, A=168.
        assert PUBLISHED_PARAMETERS[100] == (168, 196)

    def test_published_a_s_exact_match(self):
        assert published_a_s(4) == (3, 6)
        assert published_a_s(16) == (20, 25)

    def test_interpolated_values_respect_invariants(self):
        for z in (5, 12, 40, 70, 130):
            a, s = published_a_s(z)
            assert 1 <= a <= 2 * z
            assert s >= a


class TestDepthDerivation:
    def test_depth_covers_blocks(self):
        for blocks in (10, 100, 1000, 100_000):
            for z in (4, 16, 100):
                depth = depth_for_blocks(blocks, z)
                assert z * (1 << depth) >= blocks

    def test_depth_is_minimal(self):
        depth = depth_for_blocks(1000, 16)
        assert 16 * (1 << (depth - 1)) < 1000

    def test_depth_at_least_one(self):
        assert depth_for_blocks(1, 100) >= 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            depth_for_blocks(0, 4)
        with pytest.raises(ValueError):
            depth_for_blocks(10, 0)


class TestRingOramParameters:
    def test_derived_parameters_consistent(self):
        params = derive_parameters(num_blocks=10_000, z_real=16)
        assert params.num_leaves == 1 << params.depth
        assert params.num_buckets == 2 * params.num_leaves - 1
        assert params.slots_per_bucket == params.z_real + params.s_dummies

    def test_explicit_overrides_win(self):
        params = derive_parameters(num_blocks=100, z_real=4, evict_rate=2, s_dummies=9)
        assert params.evict_rate == 2
        assert params.s_dummies == 9

    def test_stash_bound_default_is_multiple_of_z(self):
        params = derive_parameters(num_blocks=100, z_real=16)
        assert params.stash_bound >= 4 * 16

    def test_stash_bound_override(self):
        params = derive_parameters(num_blocks=100, z_real=4, max_stash_blocks=50)
        assert params.stash_bound == 50

    def test_describe_mentions_key_parameters(self):
        params = derive_parameters(num_blocks=1000, z_real=8)
        text = params.describe()
        assert "Z=8" in text and "N=1000" in text

    def test_validation_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RingOramParameters(num_blocks=0, z_real=4, s_dummies=4, evict_rate=2, depth=3)
        with pytest.raises(ValueError):
            RingOramParameters(num_blocks=10, z_real=0, s_dummies=4, evict_rate=2, depth=3)
        with pytest.raises(ValueError):
            RingOramParameters(num_blocks=10, z_real=4, s_dummies=0, evict_rate=2, depth=3)
        with pytest.raises(ValueError):
            RingOramParameters(num_blocks=10, z_real=4, s_dummies=4, evict_rate=0, depth=3)
