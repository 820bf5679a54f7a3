"""Unit tests for :mod:`repro.analysis`: the profile names every tree, the
simulation builds what the configuration fixes, the judge can fail column by
column, views split right, and Ring ORAM's bucket invariant is checked per
namespace.

The judge runs on simulated views only, so each case costs milliseconds: two
simulated runs stand in for the real ones, one of them doctored.
"""

import random
from collections import defaultdict
from types import SimpleNamespace

import pytest

from repro.analysis import check_bucket_invariant, distinguish, leakage, simulate_view, views
from repro.analysis.leakage import _two_sample_p
from repro.api import RunStats
from repro.core.config import ObladiConfig, RingOramConfig
from repro.elasticity.migration import MigrationReport
from repro.storage.backend import StorageOp
from repro.storage.cluster import StorageCluster
from repro.storage.namespace import NamespacedStorage
from repro.storage.trace import AccessTrace

CONFIG = ObladiConfig(oram=RingOramConfig(num_blocks=128, z_real=4, s_dummies=2, evict_rate=3),
                      read_batches=2, read_batch_size=16, write_batch_size=8,
                      shards=2, storage_servers=2)
LEAK = leakage(CONFIG, RunStats(epochs=12))
FIRST_LEAF = (1 << LEAK.trees[0, 0, 0].depth) - 1
#: Two epochs of copying into a (4, 2, 1) layout from epoch 5, one drain batch at the end.
RESHARD = MigrationReport(from_generation=0, to_generation=1, from_topology=(2, 2, 1),
                          to_topology=(4, 2, 1), epochs=3, copy_batches=4, drain_batches=2,
                          initial_keys=10, copied_keys=10, write_through_keys=0, first_epoch=5)


def rebuilt(view, key=lambda key: key, time=lambda time_ms: time_ms, keep=lambda kind, at: True):
    """``view`` with keys and instants mapped and the batches ``keep`` rejects dropped."""
    trace = AccessTrace()
    for batch in view.batches:
        if keep(batch.kind, batch.time_ms):
            trace.begin_batch(batch.kind, time(batch.time_ms), batch.request_count)
    for event in view.events:
        if keep(event.op.value, event.time_ms):
            trace.record(event.op, key(event.key), event.size_bytes, time(event.time_ms))
    return trace


def judged(doctor=lambda view: view):
    """Findings on two simulated runs, the second one doctored view by view."""
    real = [simulate_view(LEAK, 1), {key: doctor(view)
                                     for key, view in simulate_view(LEAK, 2).items()}]
    return distinguish(real, [simulate_view(LEAK, 3), simulate_view(LEAK, 4)])


def test_the_judge_accepts_simulated_views():
    assert set(LEAK.trees) == {(0, 0, 0), (1, 0, 1)}
    assert judged() == []


def test_the_judge_rejects_leaves_from_half_the_tree():
    def half(key):
        bucket = int(key.split("/")[1])
        if bucket < FIRST_LEAF:
            return key
        return f"oram/{FIRST_LEAF + (bucket - FIRST_LEAF) // 2}/v0/s/0"

    findings = judged(lambda view: rebuilt(view, key=half))
    assert [finding.split(":")[0] for finding in findings] == ["leaves"] * 2


def test_the_judge_rejects_an_epoch_one_read_batch_short():
    def short(view):
        dropped = [b.time_ms for b in view.batches if b.kind == "read"][5]
        return rebuilt(view, keep=lambda kind, at: (kind, at) != ("read", dropped))

    columns = {finding.split(":")[0] for finding in judged(short)}
    assert columns == {"kinds", "read offsets"}


def test_the_judge_rejects_a_read_batch_shifted_by_a_tenth_of_a_ms():
    def shifted(view):
        moved = [b.time_ms for b in view.batches if b.kind == "read"][5]
        return rebuilt(view, time=lambda at: at + 0.1 if at == moved else at)

    assert [finding.split(":")[0] for finding in judged(shifted)] == ["read offsets"] * 2


def test_the_judge_rejects_gaps_between_epochs_taken_from_an_arrival_list():
    rng = random.Random(9)
    arrivals = [rng.expovariate(1 / 20) for _ in range(LEAK.epochs)]
    starts = sorted({b.time_ms for b in simulate_view(LEAK, 2)[0, 0, 0].batches
                     if b.kind == "read"})[::CONFIG.read_batches]

    def idle(at):
        return at + sum(arrivals[:sum(start <= at for start in starts)])

    findings = judged(lambda view: rebuilt(view, time=idle))
    assert findings and {finding.split(":")[0] for finding in findings} == {"steps"}


def test_the_judge_rejects_a_view_the_simulation_lacks():
    extra = simulate_view(LEAK, 1)
    extra[0, 0, 1] = extra[1, 0, 1]
    findings = distinguish([extra, simulate_view(LEAK, 2)],
                           [simulate_view(LEAK, 3), simulate_view(LEAK, 4)])
    assert {finding.split(": run 0 view (0, 0, 1): ")[0] for finding in findings} == \
        {"kinds", "read offsets", "write-back sizes"}


def test_the_judge_rejects_a_read_batch_one_request_short():
    def resized(view):
        trace, first = AccessTrace(), view.batches[0]
        for batch in view.batches:
            trace.begin_batch(batch.kind, batch.time_ms,
                              batch.request_count - (batch is first))
        for event in view.events:
            trace.record(event.op, event.key, event.size_bytes, event.time_ms)
        return trace

    assert [finding.split(":")[0] for finding in judged(resized)] == ["kinds"] * 2


def test_the_judge_rejects_an_epoch_without_its_write_back():
    def dropped(view):
        skipped = [b.time_ms for b in view.batches if b.kind == "write"][3]
        return rebuilt(view, keep=lambda kind, at: (kind, at) != ("write", skipped))

    assert "kinds" in {finding.split(":")[0] for finding in judged(dropped)}


def test_the_judge_rejects_write_backs_twice_the_simulated_size():
    def doubled(view):
        trace = AccessTrace()
        for batch in view.batches:
            trace.begin_batch(batch.kind, batch.time_ms,
                              batch.request_count * (1 + (batch.kind == "write")))
        for event in view.events:
            trace.record(event.op, event.key, event.size_bytes, event.time_ms)
        return trace

    findings = judged(doubled)
    assert findings == [f"write-back sizes: run 1 view {key}: p=2.3e-06"
                        for key in sorted(LEAK.trees)]


def test_no_runs_have_nothing_to_tell():
    assert distinguish([], []) == []
    assert distinguish([{}], [{}]) == []


def test_the_two_sample_test_on_empty_and_equal_samples():
    assert _two_sample_p([], []) == 1.0
    assert _two_sample_p([3], []) == 0.0
    assert _two_sample_p([1, 2, 3], [3, 2, 1]) == 1.0


class TestLeakage:
    @pytest.mark.parametrize("shards, servers", [(1, 1), (4, 1), (4, 2), (4, 4)])
    def test_partition_i_is_a_tree_on_server_i_mod_servers(self, shards, servers):
        config = ObladiConfig(shards=shards, storage_servers=servers)
        assert sorted(leakage(config, RunStats()).trees) == \
            sorted((i % servers, 0, i) for i in range(shards))

    def test_every_tree_has_one_partitions_geometry(self):
        geometry = CONFIG.oram.for_partition(CONFIG.shards).to_parameters()
        assert set(LEAK.trees.values()) == {geometry}
        assert geometry.num_blocks < CONFIG.oram.num_blocks

    def test_the_profile_keeps_the_configuration_and_the_epoch_count(self):
        assert (LEAK.config, LEAK.epochs, LEAK.reshards) == (CONFIG, 12, ())

    def test_a_reshard_adds_the_target_generation_and_its_copy_batches(self):
        leak = leakage(CONFIG, RunStats(epochs=12, migrations=[RESHARD]))
        ((first, target, copies),) = leak.reshards
        assert (first, copies) == (5, (1, 1, 3))
        assert (target.generation, target.shards, target.storage_servers) == (1, 4, 2)
        assert sorted(leak.trees) == [(0, 0, 0), (0, 1, 0), (0, 1, 2),
                                      (1, 0, 1), (1, 1, 1), (1, 1, 3)]
        assert leak.trees[0, 1, 0] == CONFIG.oram.for_partition(4).to_parameters()


class TestSimulateView:
    def test_a_seed_fixes_the_views(self):
        first, again = simulate_view(LEAK, 5), simulate_view(LEAK, 5)
        assert list(first) == list(again)
        for key, view in first.items():
            assert (view.events, view.batches) == (again[key].events, again[key].batches)

    def test_another_seed_reads_other_paths(self):
        reads = [[e.key for e in simulate_view(LEAK, seed)[0, 0, 0].events
                  if e.op is StorageOp.READ] for seed in (5, 6)]
        assert reads[0] != reads[1]

    def test_every_epoch_reads_r_configured_batches_delta_apart(self):
        delta, size = CONFIG.batch_interval_ms, CONFIG.partition_read_batch_size
        for view in simulate_view(LEAK, 1).values():
            starts = [b.time_ms for b in view.batches if b.kind == "read"]
            assert [b.request_count for b in view.batches if b.kind == "read"] == \
                [size] * (LEAK.epochs * CONFIG.read_batches)
            assert {second - first for first, second in zip(starts[::2], starts[1::2])} == \
                {delta}
            assert [b.kind for b in view.batches] == \
                ["read", "read", "write", "delete"] * LEAK.epochs

    def test_a_read_batch_fetches_at_most_one_slot_per_bucket_of_each_path(self):
        params = LEAK.trees[0, 0, 0]
        for view in simulate_view(LEAK, 1).values():
            read = defaultdict(list)
            for event in (e for e in view.events if e.op is StorageOp.READ):
                read[event.time_ms].append(int(event.key.split("/")[1]))
            for batch in (b for b in view.batches if b.kind == "read"):
                buckets = read[batch.time_ms]
                assert len(buckets) <= batch.request_count * (params.depth + 1)
                assert all(0 <= bucket < params.num_buckets for bucket in buckets)

    def test_write_backs_rewrite_whole_buckets_and_each_is_collected(self):
        params = LEAK.trees[0, 0, 0]
        for view in simulate_view(LEAK, 1).values():
            written = [b.request_count for b in view.batches if b.kind == "write"]
            assert [b.request_count for b in view.batches if b.kind == "delete"] == written
            assert all(n % params.slots_per_bucket == 0 for n in written)
            assert all(0 < n <= params.num_buckets * params.slots_per_bucket for n in written)

    def test_a_reshard_copies_into_the_target_then_retires_the_source(self):
        leak = leakage(CONFIG, RunStats(epochs=12, migrations=[RESHARD]))
        simulated = simulate_view(leak, 1)
        cutover = max(b.time_ms for key, view in simulated.items() if key[1] == 0
                      for b in view.batches)
        for key, view in simulated.items():
            before = [b.kind for b in view.batches if b.time_ms < cutover]
            after = [b.kind for b in view.batches if b.time_ms > cutover]
            if key[1] == 0:
                assert not after and view.batches[-1].kind == "delete"
                assert view.batches[-1].request_count >= \
                    leak.trees[key].num_buckets * leak.trees[key].slots_per_bucket
            else:
                assert set(before) == {"write", "delete"}      # copies, collected
                assert after.count("read") == (12 - 8) * CONFIG.read_batches


class TestViews:
    #: ``(kind, keys, instant, whether the epoch executor announced it)``: a
    #: read batch per partition (partition 1's served from its buffer without
    #: a request), a generation-1 write-back, a WAL append and a delete.
    BATCHES = [("read", ["p0/oram/3/v1/s/0"], 0.0, True),
               ("read", [], 0.0, True),
               ("write", ["g1/p1/oram/0/v1/s/0"], 1.5, True),
               ("write", ["wal/0/0"], 1.75, False),
               ("delete", ["p1/oram/4/v0/s/2"], 2.0, False)]

    def trace(self, batched):
        trace = AccessTrace()
        for kind, keys, at, announced in self.BATCHES:
            batch_id = trace.begin_batch(kind, at, max(1, len(keys)))
            batch_id = -1 if announced else batch_id      # announced rows carry no id
            if batched:
                trace.record_batch(StorageOp(kind), keys, [1] * len(keys), at, batch_id)
            else:
                for key in keys:
                    trace.record(StorageOp(kind), key, 1, at, batch_id)
        return trace

    def test_views_split_by_namespace_and_own_their_batches(self):
        split = views(SimpleNamespace(trace=self.trace(batched=True)))
        assert sorted(split) == [(0, 0, 0), (0, 0, 1), (0, 1, 1)]
        assert [e.key for e in split[0, 0, 0].events] == ["oram/3/v1/s/0", "wal/0/0"]
        assert split[0, 0, 0].batch_shape() == [("read", 1), ("write", 1)]
        assert split[0, 0, 1].batch_shape() == [("read", 1), ("delete", 1)]
        assert [e.key for e in split[0, 1, 1].events] == ["oram/0/v1/s/0"]
        assert split[0, 1, 1].batch_shape() == [("write", 1)]

    def test_views_do_not_see_how_requests_were_recorded(self):
        batched = views(SimpleNamespace(trace=self.trace(batched=True)))
        single = views(SimpleNamespace(trace=self.trace(batched=False)))
        assert list(batched) == list(single)
        for key, view in batched.items():
            assert view.events == single[key].events
            assert view.batches == single[key].batches

    def test_a_cluster_has_one_view_per_server_and_namespace(self):
        cluster = StorageCluster(num_servers=2)
        cluster.servers[1].write_batch({"p1/oram/0/v1/s/0": b"x"})
        cluster.servers[0].write_batch({"p0/oram/0/v1/s/0": b"y"})
        assert sorted(views(cluster)) == [(0, 0, 0), (1, 0, 1)]
        assert views(NamespacedStorage(cluster.servers[1], "p1/"))[0, 0, 1].batch_shape() == \
            [("write", 1)]


class TestBucketInvariant:
    @staticmethod
    def trace(keys):
        trace = AccessTrace()
        for i, key in enumerate(keys):
            trace.record(StorageOp.READ, key, 64, float(i))
        return trace

    def test_violation_detected(self):
        assert check_bucket_invariant(self.trace(["oram/1/v0/s/0", "oram/1/v0/s/0"])) == [(1, 0, 0)]

    def test_clean_trace(self):
        assert check_bucket_invariant(self.trace([f"oram/1/v0/s/{i}" for i in range(5)])) == []

    def test_non_oram_keys_are_ignored(self):
        assert check_bucket_invariant(self.trace(["wal/0/0", "wal/0/0", "ckpt/manifest"])) == []

    @pytest.mark.parametrize("other", ["p1/oram/1/v0/s/0", "g1/p0/oram/1/v0/s/0"])
    def test_the_invariant_is_per_namespace(self, other):
        # The same (bucket, version, slot) in two trees is no collision;
        # a repeat within one tree is.
        assert check_bucket_invariant(self.trace(["p0/oram/1/v0/s/0", other])) == []
        assert check_bucket_invariant(self.trace([other, other])) == [(1, 0, 0)]
