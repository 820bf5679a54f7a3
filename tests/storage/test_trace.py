"""Tests for the adversary-visible access trace."""

import random
import tracemalloc
from array import array
from types import SimpleNamespace

import pytest

from repro.analysis import views
from repro.storage import trace as trace_module
from repro.storage.backend import StorageOp
from repro.storage.cluster import StorageCluster
from repro.storage.trace import AccessTrace


@pytest.fixture
def trace():
    return AccessTrace()


class TestRecording:
    def test_events_are_sequenced(self, trace):
        trace.record(StorageOp.READ, "a", 10, 0.0)
        trace.record(StorageOp.WRITE, "b", 20, 1.0)
        assert [e.seq for e in trace.events] == [0, 1]

    def test_len_counts_events(self, trace):
        for i in range(5):
            trace.record(StorageOp.READ, f"k{i}", 1, float(i))
        assert len(trace) == 5

    def test_begin_batch_assigns_increasing_ids(self, trace):
        first = trace.begin_batch("read", 0.0, 4)
        second = trace.begin_batch("write", 1.0, 2)
        assert second == first + 1

    def test_clear_resets_everything(self, trace):
        trace.begin_batch("read", 0.0, 1)
        trace.record(StorageOp.READ, "a", 1, 0.0)
        trace.clear()
        assert len(trace) == 0
        assert trace.batches == []
        assert trace.begin_batch("read", 0.0, 1) == 0


class TestQueries:
    def test_events_keep_access_order(self, trace):
        trace.record(StorageOp.READ, "a", 1, 0.0)
        trace.record(StorageOp.WRITE, "b", 1, 1.0)
        trace.record(StorageOp.READ, "a", 1, 2.0)
        assert [(e.op, e.key) for e in trace.events] == \
            [(StorageOp.READ, "a"), (StorageOp.WRITE, "b"), (StorageOp.READ, "a")]

    def test_ops_by_kind(self, trace):
        trace.record(StorageOp.READ, "a", 1, 0.0)
        trace.record(StorageOp.DELETE, "a", 0, 1.0)
        counts = trace.ops_by_kind()
        assert counts[StorageOp.READ] == 1
        assert counts[StorageOp.DELETE] == 1

    def test_batch_shape(self, trace):
        trace.begin_batch("read", 0.0, 8)
        trace.begin_batch("write", 5.0, 4)
        assert trace.batch_shape() == [("read", 8), ("write", 4)]

    def test_total_bytes(self, trace):
        trace.record(StorageOp.READ, "a", 10, 0.0)
        trace.record(StorageOp.WRITE, "b", 32, 0.0)
        assert trace.total_bytes() == 42
        assert trace.total_bytes(StorageOp.WRITE) == 32


def event_fields(trace):
    return [(e.seq, e.time_ms, e.op, e.key, e.size_bytes, e.batch_id) for e in trace.events]


#: Storage batches as ``(op, [(key, size), ...], time_ms, batch_id)``: two
#: generations, two partitions and the shared WAL namespace, interleaved.
BATCHES = [
    (StorageOp.WRITE, [("p0/oram/0/v1/s/0", 64), ("p1/oram/0/v1/s/0", 64),
                       ("wal/0/0", 900)], 0.0, 0),
    (StorageOp.READ, [("p1/oram/0/v1/s/0", 64), ("g1/p0/oram/2/v0/s/3", 0),
                      ("p0/oram/0/v1/s/0", 64)], 1.5, -1),
    (StorageOp.READ, [], 1.5, 1),
    (StorageOp.DELETE, [("ckpt/3", 0)], 2.0, 2),
    (StorageOp.READ, [("g1/p1/oram/5/v2/s/1", 64), ("g1/p0/oram/5/v2/s/1", 64)], 2.0, 3),
]


def recorded(batched: bool) -> AccessTrace:
    """``BATCHES`` recorded one batch, or one request, at a time."""
    trace = AccessTrace()
    for op, requests, time_ms, batch_id in BATCHES:
        if batched:
            trace.record_batch(op, [key for key, _ in requests],
                               [size for _, size in requests], time_ms, batch_id)
        else:
            for key, size in requests:
                trace.record(op, key, size, time_ms, batch_id)
    return trace


class TestRecordBatch:
    def test_equals_one_record_per_request(self):
        batched, single = recorded(True), recorded(False)
        assert event_fields(batched) == event_fields(single)
        assert [e.seq for e in batched.events] == list(range(9))
        assert len(batched) == len(single) == 9
        assert batched.total_bytes(StorageOp.WRITE) == 64 + 64 + 900
        assert batched.ops_by_kind() == single.ops_by_kind()

    def test_mismatched_columns_are_rejected(self):
        with pytest.raises(ValueError):
            AccessTrace().record_batch(StorageOp.READ, ["a", "b"], [1], 0.0)

    @pytest.mark.parametrize("keys", [["a\0b"], ["a", "\0"], ["\0"]])
    def test_a_key_containing_nul_is_rejected(self, trace, keys):
        """NUL separates the keys of a packed block: a key holding one would
        read back as two."""
        with pytest.raises(ValueError, match="NUL"):
            trace.record_batch(StorageOp.READ, keys, [1] * len(keys), 0.0)
        assert len(trace) == 0 and trace.events == []

    @pytest.mark.parametrize("keys, sizes", [(["x", "a\0b"], [1, 1]), (["x", "y"], [1]),
                                             (["x"], [1, 2])])
    def test_a_rejected_batch_leaves_the_trace_as_it_was(self, monkeypatch, keys, sizes):
        monkeypatch.setattr(trace_module, "_SEGMENT_CHARS", 8)
        trace = recorded(True)
        trace.record(StorageOp.READ, "k", 1, 2.5)
        state = (len(trace), event_fields(trace), list(trace._segments), list(trace._open))
        assert state[2] and state[3]            # closed segments and open keys
        with pytest.raises(ValueError):
            trace.record_batch(StorageOp.READ, keys, sizes, 3.0, 4)
        assert (len(trace), event_fields(trace), trace._segments, trace._open) == state

    def test_sizes_are_one_int_when_uniform(self, trace):
        trace.record_batch(StorageOp.WRITE, ["a", "b"], [64, 64], 0.0)
        trace.record_batch(StorageOp.READ, ["a", "b"], [64, 0], 0.0)
        assert [block[2] for block in trace._blocks] == [64, array("q", [64, 0])]
        assert [e.size_bytes for e in trace.events] == [64, 64, 64, 0]
        assert trace.total_bytes() == 192

    def test_empty_and_generator_keys_round_trip(self, trace):
        trace.record_batch(StorageOp.WRITE, iter(["", "x", ""]), iter([0, 5, 7]), 2.0)
        assert [(e.key, e.size_bytes) for e in trace.events] == [("", 0), ("x", 5), ("", 7)]
        assert trace.total_bytes() == 12

    def test_events_are_rebuilt_after_an_append(self, trace):
        trace.record_batch(StorageOp.READ, ["a", "b"], [1, 2], 0.0)
        first = trace.events
        first.pop()                     # a caller's list, not the trace's
        assert len(trace.events) == 2
        trace.record(StorageOp.WRITE, "c", 3, 1.0)
        assert [e.key for e in trace.events] == ["a", "b", "c"]
        trace.clear()
        assert trace.events == [] and len(trace) == 0

    def test_split(self):
        def p1(key, strip=True):
            inside = key.startswith("p1/")
            return inside, key[3:] if inside and strip else key

        for classify in (p1, lambda key: p1(key, strip=False)):
            assert (event_fields(recorded(True).split(classify)[True])
                    == event_fields(recorded(False).split(classify)[True]))
        view = recorded(True).split(p1)[True]
        assert [e.key for e in view.events] == ["oram/0/v1/s/0", "oram/0/v1/s/0"]
        assert [e.batch_id for e in view.events] == [0, -1]

    def test_views_split_per_generation_and_partition(self):
        batched = views(SimpleNamespace(servers=[SimpleNamespace(trace=recorded(True))]))
        single = views(SimpleNamespace(servers=[SimpleNamespace(trace=recorded(False))]))
        assert list(batched) == list(single)
        for key in batched:
            assert event_fields(batched[key]) == event_fields(single[key])
        assert sorted(batched) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
        assert [e.key for e in batched[0, 1, 1].events] == ["oram/5/v2/s/1"]

    def test_cluster_trace_clear_reaches_batch_recorded_rows(self):
        # A cluster has no trace of its own: each server records its batches,
        # and clearing one server's trace leaves the other's rows in place.
        cluster = StorageCluster(num_servers=2)
        cluster.servers[0].write_batch({"a": b"1", "b": b"22"})
        cluster.servers[1].read_batch(["c", "d", "e"])
        first, second = (server.trace for server in cluster.servers)
        assert [(e.key, e.batch_id) for e in first.events] == [("a", 0), ("b", 0)]
        assert [(e.key, e.batch_id) for e in second.events] == [("c", 0), ("d", 0), ("e", 0)]
        first.clear()
        assert (len(first), first.events, first.batch_shape(), first.total_bytes()) == \
            (0, [], [], 0)
        assert second.batch_shape() == [("read", 3)] and len(second) == 3
        cluster.servers[0].read_batch(["f"])
        assert [(e.seq, e.key, e.batch_id) for e in first.events] == [(0, "f", 0)]


def oram_shaped_batches(rng: random.Random, epochs: int = 40):
    """``(kind, op, keys, sizes)`` of an ORAM-shaped run: each epoch, three
    read batches of 640 random slot keys, then a write batch and a delete
    batch of 120 buckets x 20 slots each."""
    for epoch in range(epochs):
        for _ in range(3):
            keys = [f"p{rng.randrange(4)}/oram/{rng.randrange(4096)}/v{rng.randrange(64)}"
                    f"/s/{rng.randrange(20)}" for _ in range(640)]
            yield "read", StorageOp.READ, keys, [rng.choice((292, 0)) for _ in keys]
        buckets = [(rng.randrange(4), rng.randrange(4096)) for _ in range(120)]
        for kind, op, version, size in (("write", StorageOp.WRITE, epoch + 1, 292),
                                        ("delete", StorageOp.DELETE, epoch, 0)):
            keys = [f"p{part}/oram/{bucket}/v{version}/s/{slot}"
                    for part, bucket in buckets for slot in range(20)]
            yield kind, op, keys, [size] * len(keys)


def test_a_trace_retains_few_bytes_per_request():
    """Memory gate: what ``trace.py`` still holds after recording an
    ORAM-shaped run, per request (about 29 bytes with one NUL-joined string
    and one ``array('q')`` per block; about 7 with compressed key segments
    and one size per uniform block)."""
    trace = AccessTrace()
    tracemalloc.start()
    try:
        for time_ms, (kind, op, keys, sizes) in enumerate(oram_shaped_batches(random.Random(7))):
            batch_id = trace.begin_batch(kind, float(time_ms), len(keys))
            trace.record_batch(op, keys, sizes, float(time_ms), batch_id)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = sum(stat.size for stat in snapshot.filter_traces(
        [tracemalloc.Filter(True, trace_module.__file__)]).statistics("filename"))
    assert len(trace) == 40 * (3 * 640 + 2 * 120 * 20)
    assert retained / len(trace) <= 12
