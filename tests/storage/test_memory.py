"""Tests for the in-memory storage server."""

import pytest

from repro.sim.clock import SimClock
from repro.storage.backend import StorageOp
from repro.storage.memory import InMemoryStorageServer


@pytest.fixture
def server():
    return InMemoryStorageServer(clock=SimClock())


class TestReadWrite:
    def test_read_missing_key_returns_none(self, server):
        assert server.read("absent") is None

    def test_write_then_read_roundtrip(self, server):
        server.write("a", b"payload")
        assert server.read("a") == b"payload"

    def test_write_batch_stores_all_items(self, server):
        server.write_batch({f"k{i}": bytes([i]) for i in range(10)})
        assert server.read("k7") == bytes([7])
        assert len(server.keys()) == 10

    def test_read_batch_returns_none_for_missing(self, server):
        server.write("a", b"1")
        values = server.read_batch(["a", "b"])
        assert values["a"] == b"1"
        assert values["b"] is None

    def test_overwrite_replaces_value(self, server):
        server.write("a", b"old")
        server.write("a", b"new")
        assert server.read("a") == b"new"

    def test_delete_batch_removes_keys(self, server):
        server.write("a", b"1")
        server.delete_batch(["a"])
        assert not server.contains("a")

    def test_delete_batch_is_its_own_boundary_kind_and_no_physical_op(self, server):
        server.write_batch({"a": b"1", "b": b"2"})
        server.trace.clear()
        reads, writes = server.stats_reads, server.stats_writes
        server.delete_batch(["a", "b", "never-written"])
        assert server.trace.batch_shape() == [("delete", 3)]
        assert [(e.op, e.size_bytes) for e in server.trace.events] == \
            [(StorageOp.DELETE, 0)] * 3
        assert (server.stats_reads, server.stats_writes) == (reads, writes)

    def test_non_bytes_payload_rejected(self, server):
        with pytest.raises(TypeError):
            server.write_batch({"a": "not-bytes"})

    def test_contains(self, server):
        server.write("a", b"1")
        assert server.contains("a")
        assert not server.contains("b")

    def test_snapshot_is_a_copy(self, server):
        server.write("a", b"1")
        snap = server.snapshot()
        server.write("a", b"2")
        assert snap["a"] == b"1"

    def test_size_bytes(self, server):
        server.write("a", b"123")
        server.write("b", b"4567")
        assert server.size_bytes() == 7


class TestTimeless:
    """The store keeps bytes; what a request costs is charged by the proxy."""

    def test_no_request_advances_the_clock(self, server):
        server.write_batch({"a": b"1", "b": b"22"})
        server.read_batch(["a", "b", "missing"])
        server.delete_batch(["a"])
        assert server.clock.now_ms == 0.0

    def test_trace_rows_carry_the_clock_time_of_their_batch(self, server):
        server.clock.advance(2.5)
        server.write_batch({"a": b"1", "b": b"2"})
        server.clock.advance(1.0)
        server.read_batch(["a"])
        assert [e.time_ms for e in server.trace.events] == [2.5, 2.5, 3.5]

    def test_read_batch_returns_a_value_per_key(self, server):
        server.write("a", b"1")
        assert server.read_batch(["a", "b", "a"]) == {"a": b"1", "b": None}


class TestTraceRecording:
    def test_reads_and_writes_recorded(self, server):
        server.write("a", b"1")
        server.read("a")
        ops = server.trace.ops_by_kind()
        assert ops[StorageOp.WRITE] == 1
        assert ops[StorageOp.READ] == 1

    def test_trace_disabled(self):
        server = InMemoryStorageServer(record_trace=False)
        server.write("a", b"1")
        assert server.trace is None

    def test_record_batch_false_skips_boundary(self, server):
        server.read_batch(["a"], record_batch=False)
        assert server.trace.batch_shape() == []

    def test_trace_records_payload_sizes(self, server):
        server.write("a", b"12345")
        event = server.trace.events[-1]
        assert event.size_bytes == 5

    def test_read_batch_records_every_request_in_order(self, server):
        server.write("a", b"123")
        server.trace.clear()
        server.read_batch(["a", "missing", "a"])
        assert [(e.seq, e.op, e.key, e.size_bytes, e.batch_id)
                for e in server.trace.events] == [
            (0, StorageOp.READ, "a", 3, 0), (1, StorageOp.READ, "missing", 0, 0),
            (2, StorageOp.READ, "a", 3, 0)]


class TestWriteBatchAtomicity:
    @pytest.mark.parametrize("items", [
        {"a": b"1", "kept": b"new", "c": "not bytes", "d": b"4"},
        {"a": b"1", "kept": bytearray(b"new"), "d": b"4", "c": "not bytes"},    # bad one last
    ])
    def test_bad_payload_leaves_nothing_applied(self, server, items):
        """A bad payload mid-batch used to leave the items before it stored
        and traced, under counters already bumped for the whole batch."""
        server.write("kept", b"old")
        before = (server.stats_writes, len(server.trace), server.trace.batch_shape(),
                  server.snapshot())
        with pytest.raises(TypeError, match="payload for 'c' must be bytes, got str"):
            server.write_batch(items)
        assert (server.stats_writes, len(server.trace), server.trace.batch_shape(),
                server.snapshot()) == before

    def test_store_keeps_the_bytes_it_was_given_and_copies_what_can_change(self, server):
        kept, mutable = b"immutable", bytearray(b"before")
        server.write_batch({"kept": kept, "mutable": mutable})
        mutable[:] = b"after!"
        values = server.read_batch(["kept", "mutable"])
        assert values == {"kept": b"immutable", "mutable": b"before"}
        assert values["kept"] is kept                   # stored by reference
        assert type(values["mutable"]) is bytes


class TestFailureInjection:
    def test_failed_server_raises(self, server):
        server.fail()
        with pytest.raises(ConnectionError):
            server.read("a")

    def test_recovered_server_serves_again(self, server):
        server.write("a", b"1")
        server.fail()
        server.recover()
        assert server.read("a") == b"1"

    def test_an_outage_starts_once_its_keys_are_written_or_deleted(self, server):
        server.fail(after=3)
        server.write_batch({"a": b"1", "b": b"2"})
        assert server.read_batch(["a", "b"]) == {"a": b"1", "b": b"2"}
        server.delete_batch(["b"])
        with pytest.raises(ConnectionError):
            server.read("a")
        with pytest.raises(ConnectionError):
            server.delete_batch([])

    def test_a_write_batch_crossing_the_point_is_torn(self, server):
        server.fail(after=2)
        with pytest.raises(ConnectionError):
            server.write_batch({"a": b"1", "b": b"2", "c": b"3"})
        server.recover()
        assert sorted(server.keys()) == ["a", "b"]
        assert server.stats_writes == 2
        assert server.trace.batch_shape() == [("write", 2)]

    def test_a_delete_batch_crossing_the_point_is_torn(self, server):
        server.write_batch({"a": b"1", "b": b"2", "c": b"3"})
        server.fail(after=1)
        with pytest.raises(ConnectionError):
            server.delete_batch(["a", "b"])
        server.recover()
        assert sorted(server.keys()) == ["b", "c"]

    def test_an_outage_cannot_start_in_the_past(self, server):
        with pytest.raises(ValueError):
            server.fail(after=-1)
