"""Tests for version chains."""

import pytest

from repro.concurrency.versions import Version, VersionChain, VersionStore


class TestVersionChain:
    def test_latest_visible_respects_timestamp(self):
        chain = VersionChain(key="k")
        chain.insert(Version("k", b"v1", writer_ts=1))
        chain.insert(Version("k", b"v5", writer_ts=5))
        assert chain.latest_visible(reader_ts=3).value == b"v1"
        assert chain.latest_visible(reader_ts=7).value == b"v5"
        assert chain.latest_visible(reader_ts=0) is None

    def test_aborted_versions_invisible(self):
        chain = VersionChain(key="k")
        version = Version("k", b"dirty", writer_ts=2, aborted=True)
        chain.insert(version)
        assert chain.latest_visible(reader_ts=10) is None

    def test_uncommitted_versions_are_visible(self):
        # MVTSO deliberately exposes uncommitted writes to younger readers.
        chain = VersionChain(key="k")
        chain.insert(Version("k", b"dirty", writer_ts=2, committed=False))
        assert chain.latest_visible(reader_ts=3).value == b"dirty"

    def test_insert_keeps_chain_sorted(self):
        chain = VersionChain(key="k")
        for ts in (5, 1, 3):
            chain.insert(Version("k", str(ts).encode(), writer_ts=ts))
        assert chain.writer_timestamps() == [1, 3, 5]

    def test_latest_committed(self):
        chain = VersionChain(key="k")
        chain.insert(Version("k", b"a", writer_ts=1, committed=True))
        chain.insert(Version("k", b"b", writer_ts=2, committed=False))
        assert chain.latest_committed().value == b"a"

    def test_read_marker_only_advances(self):
        chain = VersionChain(key="k")
        chain.record_read(5)
        chain.record_read(3)
        assert chain.read_marker_ts == 5

    def test_remove_aborted(self):
        chain = VersionChain(key="k")
        chain.insert(Version("k", b"a", writer_ts=1, aborted=True))
        chain.insert(Version("k", b"b", writer_ts=2))
        assert chain.remove_aborted() == 1
        assert len(chain) == 1


class TestVersionStore:
    def test_chain_created_on_demand(self):
        store = VersionStore()
        chain = store.chain("x")
        assert chain.key == "x"
        assert store.get_chain("x") is chain

    def test_chain_is_created_once_per_key(self):
        store = VersionStore()
        store.chain("x").insert(Version("x", b"a", writer_ts=1))
        assert store.chain("x") is store.get_chain("x")
        assert store.chain("x").writer_timestamps() == [1]
        assert store.get_chain("y") is None

    def test_get_chain_returns_none_for_unknown(self):
        assert VersionStore().get_chain("missing") is None

    def test_clear(self):
        store = VersionStore()
        store.chain("a")
        store.clear()
        assert store.get_chain("a") is None
