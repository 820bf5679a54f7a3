"""Tests for NamespacedStorage key iteration under mixed prefixes."""

import pytest

from repro.storage.memory import InMemoryStorageServer
from repro.storage.namespace import NamespacedStorage, partition_prefix


@pytest.fixture
def base():
    server = InMemoryStorageServer()
    server.write("wal/0", b"wal")                     # unprefixed durability key
    NamespacedStorage(server, "p0/").write("oram/1", b"a")
    NamespacedStorage(server, "p1/").write("oram/1", b"b")
    NamespacedStorage(server, "p1/").write("oram/2", b"c")
    NamespacedStorage(server, "p10/").write("oram/1", b"d")
    return server


class TestPartitionPrefix:
    def test_prefix_format(self):
        assert partition_prefix(0) == "p0/"
        assert partition_prefix(12) == "p12/"

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            partition_prefix(-1)


class TestMixedPrefixIteration:
    def test_keys_are_stripped_and_scoped_to_the_namespace(self, base):
        assert sorted(NamespacedStorage(base, "p1/").keys()) == ["oram/1", "oram/2"]
        assert NamespacedStorage(base, "p0/").keys() == ["oram/1"]

    def test_p1_does_not_swallow_p10(self, base):
        """'p1/' must not match 'p10/...' — the slash is part of the prefix."""
        assert "0/oram/1" not in NamespacedStorage(base, "p1/").keys()
        assert NamespacedStorage(base, "p10/").keys() == ["oram/1"]

    def test_unprefixed_keys_belong_to_no_namespace(self, base):
        for prefix in ("p0/", "p1/", "p10/"):
            assert "wal/0" not in NamespacedStorage(base, prefix).keys()
        assert "wal/0" in base.keys()

    def test_contains_respects_the_namespace(self, base):
        view = NamespacedStorage(base, "p1/")
        assert view.contains("oram/2")
        assert not view.contains("wal/0")
        assert not NamespacedStorage(base, "p0/").contains("oram/2")

    def test_read_batch_round_trips_under_mixed_prefixes(self, base):
        view = NamespacedStorage(base, "p1/")
        keys = ["oram/1", "oram/2", "missing", "oram/1"]        # present, missing, repeated
        reads = base.stats_reads
        values = view.read_batch(keys)
        assert values == {"oram/1": b"b", "oram/2": b"c", "missing": None}
        assert list(values) == ["oram/1", "oram/2", "missing"]
        assert base.stats_reads - reads == 4
        # The mapping a lookup per caller key under the prefix gives.
        stored = base.snapshot()
        assert values == {key: stored.get("p1/" + key) for key in keys}

    def test_delete_batch_only_touches_the_namespace(self, base):
        NamespacedStorage(base, "p1/").delete_batch(["oram/1"])
        assert not NamespacedStorage(base, "p1/").contains("oram/1")
        assert NamespacedStorage(base, "p0/").contains("oram/1")
        assert NamespacedStorage(base, "p10/").contains("oram/1")
