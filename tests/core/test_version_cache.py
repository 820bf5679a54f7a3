"""Tests for the epoch version cache."""

import pytest

from repro.core.version_cache import VersionCache


@pytest.fixture
def cache():
    return VersionCache()


class TestBaseValues:
    def test_install_and_lookup(self, cache):
        cache.install_base("k", b"v")
        assert cache.has_base("k")
        assert cache.base_value("k") == b"v"

    def test_missing_key(self, cache):
        assert not cache.has_base("k")
        assert cache.base_value("k") is None

    def test_none_base_value_still_counts_as_cached(self, cache):
        cache.install_base("k", None)
        assert cache.has_base("k")
        assert cache.base_value("k") is None

    def test_reinstall_replaces_base_value(self, cache):
        cache.install_base("k", b"old")
        cache.install_base("k", b"new")
        assert cache.base_value("k") == b"new"


class TestLifecycle:
    def test_reset_clears_everything(self, cache):
        cache.install_base("k", b"v")
        cache.install_base("gone", None)
        cache.reset()
        assert not cache.has_base("k")
        assert not cache.has_base("gone")
        assert cache.base_value("k") is None
