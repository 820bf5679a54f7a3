"""Tests for the multi-server storage cluster (server topology seam)."""

import pytest

from repro.core.config import ObladiConfig, RingOramConfig
from repro.sim.clock import SimClock
from repro.sim.latency import link_latency_models
from repro.storage.cluster import StorageCluster, build_storage
from repro.storage.memory import InMemoryStorageServer
from repro.storage.namespace import NamespacedStorage, partition_prefix
from repro.storage.trace import merge_traces


def _cluster(num_servers=3, **kwargs):
    return StorageCluster(num_servers=num_servers, **kwargs)


class TestTopology:
    def test_needs_at_least_two_servers(self):
        with pytest.raises(ValueError):
            StorageCluster(num_servers=1)

    def test_round_robin_partition_hosting(self):
        cluster = _cluster(3)
        assert [cluster.server_index_for_partition(i) for i in range(7)] == \
            [0, 1, 2, 0, 1, 2, 0]
        assert cluster.server_for_partition(4) is cluster.servers[1]

    def test_negative_partition_rejected(self):
        with pytest.raises(ValueError):
            _cluster().server_index_for_partition(-1)

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

    def test_all_keys_aggregates_every_server(self):
        cluster = _cluster(2)
        cluster.servers[0].write("a", b"1")
        cluster.servers[1].write("b", b"22")
        assert sorted(cluster.all_keys()) == ["a", "b"]
        assert cluster.size_bytes() == 3
        assert [sorted(s) for s in cluster.snapshot()] == [["a"], ["b"]]


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
        assert cluster.traces == [None] * 4
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
        NamespacedStorage(cluster.server_for_partition(0), partition_prefix(0)).write("x", b"a")
        NamespacedStorage(cluster.server_for_partition(1), partition_prefix(1)).write("x", b"b")
        assert cluster.servers[0].trace.keys_accessed() == ["p0/x"]
        assert cluster.servers[1].trace.keys_accessed() == ["p1/x"]

    def test_merged_trace_is_time_ordered_and_clear_propagates(self):
        cluster = _cluster(2)
        cluster.servers[0].write("a", b"1")
        cluster.servers[1].write("b", b"2")
        assert merge_traces(cluster.traces).keys_accessed() == ["a", "b"]
        # The cluster has no trace of its own: `clear_traces()` is what an
        # experiment calls between phases, and it clears every server's.
        cluster.clear_traces()
        for server in cluster.servers:
            assert len(server.trace) == 0

    def test_merged_trace_carries_batch_boundaries(self):
        cluster = _cluster(2)
        cluster.servers[0].trace.begin_batch("read", 1.0, 8)
        cluster.servers[1].trace.begin_batch("write", 0.5, 4)
        assert merge_traces(cluster.traces).batch_shape() == [("write", 4), ("read", 8)]

    def test_aggregate_stats(self):
        cluster = _cluster(2)
        cluster.servers[0].write("a", b"1")
        cluster.servers[1].read("a")
        cluster.servers[1].read("b")
        assert cluster.stats_writes == 1
        assert cluster.stats_reads == 2
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

    def test_config_topology_names(self):
        assert self._config().topology == "colocated"
        assert self._config(shards=4, storage_servers=4).topology == "per-partition"
        assert self._config(shards=4, storage_servers=2).topology == "grouped"
