"""Tests for the multi-server storage cluster (server topology seam)."""

import pytest

from repro.core.config import ObladiConfig, RingOramConfig
from repro.sim.clock import SimClock
from repro.sim.latency import link_latency_models
from repro.storage.cluster import StorageCluster, build_storage
from repro.storage.memory import InMemoryStorageServer
from repro.storage.namespace import NamespacedStorage, partition_prefix


def _cluster(num_servers=3, **kwargs):
    return StorageCluster(num_servers=num_servers, **kwargs)


class TestTopology:
    def test_needs_at_least_two_servers(self):
        with pytest.raises(ValueError):
            StorageCluster(num_servers=1)

    def test_servers_are_distinct_stores(self):
        cluster = _cluster(2)
        cluster.servers[0].write("x", b"zero")
        cluster.servers[1].write("x", b"one")
        assert cluster.servers[0].read("x") == b"zero"
        assert cluster.servers[1].read("x") == b"one"


class TestLinkModels:
    def test_homogeneous_links_share_the_base_model(self):
        models = link_latency_models("server", 3)
        assert len(models) == 3
        assert all(model.name == "server" for model in models)

    def test_extra_rtt_applies_per_link(self):
        models = link_latency_models("server", 3, link_extra_rtt_ms=(0.0, 9.7))
        assert models[0].read_rtt_ms == pytest.approx(0.3)
        assert models[1].read_rtt_ms == pytest.approx(10.0)
        assert models[2].read_rtt_ms == pytest.approx(0.3)   # beyond the sequence
        assert models[1].name == "server_s1"

    def test_link_of_a_server_does_not_depend_on_the_cluster_size(self):
        """A scale-down keeps the links of the servers it keeps."""
        extra = (0.0, 5.0, 2.0)
        assert link_latency_models("server", 2, extra) == \
            link_latency_models("server", 3, extra)[:2]


class TestMetadataRouting:
    def test_storage_server_interface_hits_the_metadata_server(self):
        cluster = _cluster(3)
        cluster.write("checkpoint/manifest", b"m")
        assert cluster.metadata_server.read("checkpoint/manifest") == b"m"
        assert cluster.contains("checkpoint/manifest")
        assert not cluster.servers[1].contains("checkpoint/manifest")
        assert cluster.keys() == ["checkpoint/manifest"]


class TestSharedSimulationPlumbing:
    def test_clock_forwards_to_every_server(self):
        cluster = _cluster(2)
        clock = SimClock()
        cluster.clock = clock
        for server in cluster.servers:
            assert server.clock is clock
        assert cluster.clock is clock
        clock.advance(1.5)
        cluster.servers[1].read_batch(["k"])
        assert clock.now_ms == 1.5
        assert [event.time_ms for event in cluster.servers[1].trace.events] == [1.5]

    def test_growth_shares_the_clock_and_trace_setting(self):
        clock = SimClock()
        server = InMemoryStorageServer(clock=clock, record_trace=False)
        server.write("wal/0", b"w")
        cluster = StorageCluster.from_server(server, num_servers=2)
        assert cluster.metadata_server is server and cluster.contains("wal/0")
        cluster.resize(4)
        assert [s.clock for s in cluster.servers] == [clock] * 4
        assert [s.trace for s in cluster.servers] == [None] * 4
        cluster.resize(2)
        assert cluster.servers[0] is server and cluster.num_servers == 2

    def test_fail_recover_covers_the_whole_tier(self):
        cluster = _cluster(2)
        cluster.fail()
        with pytest.raises(ConnectionError):
            cluster.servers[1].read("x")
        cluster.recover()
        assert cluster.servers[1].read("x") is None

    def test_one_outage_counts_the_keys_of_every_server(self):
        cluster = _cluster(2)
        cluster.fail(after=3)
        cluster.servers[0].write_batch({"a": b"1", "b": b"2"})
        cluster.resize(3)
        with pytest.raises(ConnectionError):
            cluster.servers[2].write_batch({"c": b"3", "d": b"4"})
        assert cluster.servers[2].keys() == ["c"]
        for server in cluster.servers:
            with pytest.raises(ConnectionError):
                server.read("a")


class TestObservability:
    def test_each_server_records_its_own_trace(self):
        cluster = _cluster(2)
        NamespacedStorage(cluster.servers[0], partition_prefix(0)).write("x", b"a")
        NamespacedStorage(cluster.servers[1], partition_prefix(1)).write("x", b"b")
        assert [e.key for e in cluster.servers[0].trace.events] == ["p0/x"]
        assert [e.key for e in cluster.servers[1].trace.events] == ["p1/x"]

    def test_each_server_counts_its_own_requests(self):
        cluster = _cluster(2)
        cluster.servers[0].write("a", b"1")
        cluster.servers[1].read("a")
        cluster.servers[1].read("b")
        assert [(s.stats_reads, s.stats_writes) for s in cluster.servers] == [(0, 1), (2, 0)]


class TestBuildStorage:
    def _config(self, **overrides):
        base = dict(oram=RingOramConfig(num_blocks=64, z_real=4, block_size=64),
                    backend="dummy", durability=False, encrypt=False)
        base.update(overrides)
        return ObladiConfig(**base)

    def test_single_server_for_default_topology(self):
        storage = build_storage(self._config())
        assert isinstance(storage, InMemoryStorageServer)

    def test_cluster_for_multi_server_topology(self):
        storage = build_storage(self._config(shards=4, storage_servers=4,
                                             link_extra_rtt_ms=(1.0,)))
        assert isinstance(storage, StorageCluster)
        assert storage.num_servers == 4

    def test_config_rejects_more_servers_than_shards(self):
        with pytest.raises(ValueError, match="storage_servers"):
            self._config(shards=2, storage_servers=4)

