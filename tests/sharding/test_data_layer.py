"""Tests for the data layer: routing, namespacing, topology, timing."""

import pytest

from repro.api import create_engine
from repro.core.config import ObladiConfig, RingOramConfig
from repro.core.proxy import ObladiProxy
from repro.oram.ring_oram import RingOram
from repro.recovery.manager import derive_key
from repro.sharding import PartitionedDataLayer, key_partition
from repro.sim.clock import SimClock
from repro.storage.cluster import StorageCluster
from repro.storage.memory import InMemoryStorageServer
from repro.storage.namespace import NamespacedStorage, partition_prefix
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload


def _config(**overrides):
    base = dict(
        oram=RingOramConfig(num_blocks=256, z_real=4, block_size=64),
        read_batches=2, read_batch_size=16, write_batch_size=16,
        backend="dummy", durability=False, encrypt=False, seed=9,
    )
    base.update(overrides)
    return ObladiConfig(**base)


def _layer(shards):
    clock = SimClock()
    storage = StorageCluster(clock=clock)
    return PartitionedDataLayer(_config(shards=shards), storage=storage, clock=clock,
                                master_key=b"m" * 32)


class TestKeyPartition:
    def test_single_shard_always_zero(self):
        assert key_partition("anything", 1) == 0

    def test_deterministic_across_calls(self):
        for key in ("a", "k17", "account:42"):
            assert key_partition(key, 8) == key_partition(key, 8)

    def test_recorded_mapping_is_unchanged(self):
        # Stored layouts route by this map (sha256 over "0:" + key), so a
        # change to it strands every key already written.
        assert [key_partition(f"k{i}", 8) for i in range(16)] == [
            7, 2, 1, 6, 1, 5, 7, 5, 3, 1, 7, 2, 7, 6, 2, 2]
        assert [key_partition(f"account:{i}", 3) for i in range(16)] == [
            2, 0, 2, 2, 0, 2, 1, 2, 1, 1, 0, 0, 1, 2, 2, 2]

    def test_roughly_balanced(self):
        counts = {}
        for i in range(4000):
            counts.setdefault(key_partition(f"key-{i}", 4), 0)
            counts[key_partition(f"key-{i}", 4)] = counts.get(key_partition(f"key-{i}", 4), 0) + 1
        assert set(counts) == {0, 1, 2, 3}
        for count in counts.values():
            assert 700 < count < 1300   # 1000 expected; generous tolerance


class TestNamespacedStorage:
    def test_round_trip_and_isolation(self):
        base = InMemoryStorageServer()
        view_a = NamespacedStorage(base, partition_prefix(0))
        view_b = NamespacedStorage(base, partition_prefix(1))
        view_a.write("x", b"from-a")
        view_b.write("x", b"from-b")
        assert view_a.read("x") == b"from-a"
        assert view_b.read("x") == b"from-b"
        assert base.read("p0/x") == b"from-a"
        assert sorted(base.keys()) == ["p0/x", "p1/x"]

    def test_shares_base_clock_and_trace(self):
        base = InMemoryStorageServer()
        view = NamespacedStorage(base, "p3/")
        view.write("y", b"payload")
        assert view.clock is base.clock
        assert view.trace is base.trace
        assert base.trace.events[-1].key == "p3/y"

    def test_trace_split_recovers_partition_view(self):
        base = InMemoryStorageServer()
        NamespacedStorage(base, "p0/").write("x", b"a")
        NamespacedStorage(base, "p1/").write("x", b"b")
        split = base.trace.split(lambda key: (key[:3], key[3:]))
        assert [e.key for e in split["p1/"].events] == ["x"]
        unstripped = base.trace.split(lambda key: (key[:3], key))
        assert [e.key for e in unstripped["p1/"].events] == ["p1/x"]


class TestOnePartition:
    """One shard is the general layer with N=1, and it is the paper's single
    tree: no ``p0/`` namespace, the configured seed, the ``"oram-block"``
    key and the unsplit sizing, and a batch charges its own duration."""

    def test_default_config_builds_one_partition(self):
        config = ObladiConfig()
        clock = SimClock()
        layer = PartitionedDataLayer(config, storage=StorageCluster(clock=clock),
                                     clock=clock, master_key=b"m" * 32)
        assert layer.num_partitions == 1
        assert layer.partitions[0].component_prefix == ""

    @pytest.mark.parametrize("generation, prefix", [(0, ""), (1, "g1/")])
    def test_namespace_is_the_generation_alone(self, generation, prefix):
        clock = SimClock()
        layer = PartitionedDataLayer(_config(generation=generation),
                                     storage=StorageCluster(clock=clock),
                                     clock=clock, master_key=b"m" * 32)
        [part] = layer.partitions
        assert part.component_prefix == part.oram.key_prefix == prefix

    def test_seed_key_and_sizing_are_the_single_trees(self):
        master = b"m" * 32
        layer = _layer(1)
        [part] = layer.partitions
        assert part.oram.params.num_blocks == 256
        assert part.cipher.key == derive_key(master, "oram-block")
        fresh = RingOram(part.oram.params, InMemoryStorageServer(), seed=layer.config.seed)
        assert part.oram.rng.getstate() == fresh.rng.getstate()

    def test_read_batch_advances_the_clock_by_its_own_duration(self):
        layer = _layer(1)
        layer.bulk_load({f"k{i}": b"v" for i in range(64)})
        layer.begin_epoch()
        before = layer.clock.now_ms
        layer.execute_read_batch([f"k{i}" for i in range(8)], 16)
        duration = layer.partitions[0].executor.stats.read_time_ms
        assert duration > 0
        assert layer.clock.now_ms == before + duration
        assert layer.fanout_stats.calls == 1
        assert layer.fanout_stats.actual_ms == duration
        assert layer.fanout_stats.staggered == 0


class TestBuildDataLayer:

    def test_partitioned_layer_for_many_shards(self):
        layer = _layer(4)
        assert isinstance(layer, PartitionedDataLayer)
        assert layer.num_partitions == 4
        assert [p.component_prefix for p in layer.partitions] == \
            ["p0/", "p1/", "p2/", "p3/"]

    def test_partitions_have_independent_state(self):
        layer = _layer(4)
        orams = [p.oram for p in layer.partitions]
        assert len({id(o.position_map) for o in orams}) == 4
        assert len({id(o.stash) for o in orams}) == 4
        assert len({o.cipher.key for o in orams}) == 4   # distinct derived keys

    def test_partition_sizing_covers_keyspace(self):
        layer = _layer(4)
        for part in layer.partitions:
            assert part.oram.params.num_blocks == 64    # ceil(256 / 4)

    def test_routing_matches_key_partition(self):
        layer = _layer(4)
        config = layer.config
        for i in range(50):
            key = f"k{i}"
            assert layer.partition_of(key) == key_partition(key, config.shards)
            assert layer.partition_for_key(key).index == layer.partition_of(key)


class TestParallelTiming:
    def test_epoch_batch_time_is_max_over_partitions(self):
        """Fanning one batch across partitions charges the slowest partition,
        not the sum — sharded epochs finish faster than single-tree epochs."""
        data = {f"k{i}": bytes([i % 251]) for i in range(128)}

        def run(shards):
            config = _config(shards=shards, backend="server",
                             read_batches=1, read_batch_size=32, write_batch_size=16)
            proxy = ObladiProxy(config)
            proxy.load_initial_data(data)
            layer = proxy.data_layer
            # Respect per-partition quotas: take at most quota keys per shard
            # (the proxy's batch manager enforces exactly this bound).
            quota = config.partition_read_batch_size
            taken = {}
            keys = []
            for i in range(128):
                part = layer.partition_of(f"k{i}")
                if taken.get(part, 0) < min(quota, 4):
                    taken[part] = taken.get(part, 0) + 1
                    keys.append(f"k{i}")
            start = proxy.clock.now_ms
            layer.begin_epoch()
            layer.execute_read_batch(keys, 32)
            return proxy.clock.now_ms - start

        assert run(4) < run(1)

    def test_flush_advances_once_not_per_partition(self):
        config = _config(shards=4, backend="server")
        proxy = ObladiProxy(config)
        proxy.load_initial_data({f"k{i}": b"v" for i in range(64)})
        layer = proxy.data_layer
        layer.begin_epoch()
        layer.execute_write_batch({f"k{i}": b"new" for i in range(16)}, 16)
        before = proxy.clock.now_ms
        makespan = layer.flush()
        assert proxy.clock.now_ms == pytest.approx(before + makespan)

    def test_deferred_clock_leaves_no_residue(self):
        layer = _layer(4)
        layer.bulk_load({f"k{i}": b"v" for i in range(64)})
        layer.begin_epoch()
        layer.execute_read_batch([f"k{i}" for i in range(8)], 16)
        layer.flush()
        for part in layer.partitions:
            assert part.executor.deferred_ms == 0.0


def _cluster_layer(shards, servers, cluster_servers=None, **overrides):
    clock = SimClock()
    config = _config(shards=shards, storage_servers=servers, **overrides)
    cluster = StorageCluster(num_servers=cluster_servers or servers, clock=clock)
    return PartitionedDataLayer(config, storage=cluster, clock=clock,
                                master_key=b"m" * 32), cluster


class TestServerTopology:
    def test_partitions_are_hosted_round_robin(self):
        layer, cluster = _cluster_layer(4, 2)
        for part in layer.partitions:
            assert part.storage is cluster.servers[part.index % cluster.num_servers]
            assert part.oram.storage is part.storage
            assert part.oram.key_prefix == part.component_prefix == partition_prefix(part.index)

    def test_per_partition_namespaces_land_on_their_host_server(self):
        layer, cluster = _cluster_layer(4, 4)
        layer.bulk_load({f"k{i}": b"v" for i in range(64)})
        for index, server in enumerate(cluster.servers):
            prefixes = {key.split("/", 1)[0] for key in server.keys()}
            assert prefixes == {f"p{index}"}

    def test_executors_use_their_links_latency_model(self):
        layer, cluster = _cluster_layer(
            4, 4, backend="server", link_extra_rtt_ms=(0.0, 5.0, 0.0, 9.0))
        rtts = [part.executor.latency.read_rtt_ms for part in layer.partitions]
        assert rtts == pytest.approx([0.3, 5.3, 0.3, 9.3])

    def test_links_follow_the_layers_own_server_count(self):
        """After a scale-down the cluster keeps idle servers; partition i
        still travels link i % storage_servers of the configuration."""
        layer, cluster = _cluster_layer(4, 2, cluster_servers=4, backend="server",
                                        link_extra_rtt_ms=(0.0, 5.0))
        rtts = [part.executor.latency.read_rtt_ms for part in layer.partitions]
        assert rtts == pytest.approx([0.3, 5.3, 0.3, 5.3])
        hosts = [part.storage for part in layer.partitions]
        assert hosts == [cluster.servers[i % 2] for i in range(4)]

    def test_mismatched_cluster_size_rejected(self):
        clock = SimClock()
        cluster = StorageCluster(num_servers=2, clock=clock)
        with pytest.raises(ValueError, match="cluster"):
            PartitionedDataLayer(_config(shards=4, storage_servers=4),
                                 storage=cluster, clock=clock, master_key=b"m" * 32)

    def test_one_node_cluster_with_multi_server_config_rejected(self):
        """No silent degrade to colocated: a multi-server config given one
        server fails loudly at the proxy, and a plain server at every count."""
        clock = SimClock()
        config = _config(shards=4, storage_servers=4)
        with pytest.raises(ValueError, match="cluster has 1 servers"):
            ObladiProxy(config, storage=StorageCluster(clock=clock), clock=clock)
        with pytest.raises(TypeError, match="StorageCluster"):
            ObladiProxy(config, storage=InMemoryStorageServer(clock=clock), clock=clock)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_one_server_link_is_timed_with_its_delay(self, shards):
        clock = SimClock()
        config = _config(shards=shards, backend="server", link_extra_rtt_ms=(5.0,))
        layer = PartitionedDataLayer(config, storage=StorageCluster(clock=clock),
                                     clock=clock, master_key=b"m" * 32)
        rtts = [part.executor.latency.read_rtt_ms for part in layer.partitions]
        assert rtts == pytest.approx([5.3] * shards)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_one_server_link_delay_slows_a_closed_loop(self, shards):
        """A delay on the only server's link is charged, not dropped."""

        def elapsed_ms(link_extra_rtt_ms):
            workload = SmallBankWorkload(SmallBankConfig(num_accounts=50, seed=1))
            config = ObladiConfig(oram=RingOramConfig(num_blocks=256, z_real=4),
                                  shards=shards, link_extra_rtt_ms=link_extra_rtt_ms,
                                  seed=1)
            engine = create_engine("obladi", config)
            engine.load_initial_data(workload.initial_data())
            return engine.run_closed_loop(workload.transaction_factory, 32,
                                          clients=8).elapsed_ms

        assert elapsed_ms((5.0,)) > elapsed_ms(()) + 5.0

    def test_heterogeneous_link_slows_only_its_partitions(self):
        """A slow link raises the fan-out makespan only when one of *its*
        partitions has work — per-link cost, not per-tier cost."""
        layer, _ = _cluster_layer(4, 4, backend="server",
                                  link_extra_rtt_ms=(0.0, 0.0, 0.0, 50.0))
        layer.bulk_load({f"k{i}": b"v" for i in range(64)})
        layer.begin_epoch()
        start = layer.clock.now_ms
        layer.execute_read_batch([f"k{i}" for i in range(8)], 16)
        layer.flush()
        elapsed = layer.clock.now_ms - start
        # The padded batches touch every partition each round, so the 50 ms
        # link dominates the makespan.
        assert elapsed >= 50.0


class TestStaggeredFanout:
    def test_enough_lanes_charges_the_ideal_parallel_bound(self):
        layer = _layer(4)   # default parallelism (1024) >= shards
        layer.bulk_load({f"k{i}": b"v" for i in range(64)})
        layer.begin_epoch()
        layer.execute_read_batch([f"k{i}" for i in range(8)], 16)
        layer.flush()
        stats = layer.fanout_stats
        assert stats.staggered == 0
        assert stats.actual_ms == pytest.approx(stats.ideal_ms)

    def test_lane_pressure_staggers_between_the_bounds(self):
        clock = SimClock()
        storage = StorageCluster(clock=clock)
        config = _config(shards=8, parallelism=4, backend="server",
                         read_batch_size=32, write_batch_size=32)
        layer = PartitionedDataLayer(config, storage=storage, clock=clock,
                                     master_key=b"m" * 32)
        assert config.fanout_lanes == 4
        layer.bulk_load({f"k{i}": b"v" for i in range(128)})
        layer.begin_epoch()
        layer.execute_read_batch([f"k{i}" for i in range(16)], 32)
        layer.flush()
        stats = layer.fanout_stats
        assert stats.staggered > 0
        assert stats.ideal_ms < stats.actual_ms < stats.serial_ms

    def test_fanout_makespan_advances_the_shared_clock(self):
        clock = SimClock()
        storage = StorageCluster(clock=clock)
        config = _config(shards=8, parallelism=4, backend="server",
                         read_batch_size=32, write_batch_size=32)
        layer = PartitionedDataLayer(config, storage=storage, clock=clock,
                                     master_key=b"m" * 32)
        layer.bulk_load({f"k{i}": b"v" for i in range(128)})
        layer.begin_epoch()
        before = clock.now_ms
        layer.execute_read_batch([f"k{i}" for i in range(16)], 32)
        actual_before_flush = layer.fanout_stats.actual_ms
        assert clock.now_ms == pytest.approx(before + actual_before_flush)
