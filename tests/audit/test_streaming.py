"""Unit tests for the incremental DSG maintainer and its garbage collector."""

import pytest

from repro.audit import KeyFrontier, StreamingSerializationGraph
from repro.concurrency import CommittedTransaction, check_serializable


def txn(txn_id, ts=None, reads=None, writes=None, epoch=0):
    return CommittedTransaction(
        txn_id=txn_id, timestamp=ts if ts is not None else txn_id, epoch=epoch,
        read_set=dict(reads or {}),
        write_set={key: b"v" for key in (writes or ())})


class TestIncrementalCycleDetection:
    def test_serial_history_stays_clean(self):
        graph = StreamingSerializationGraph()
        graph.ingest_batch([txn(1, writes=["a"]),
                            txn(2, reads={"a": 1}, writes=["a"]),
                            txn(3, reads={"a": 2})])
        assert graph.ok
        assert graph.retained_nodes == 3

    def test_write_skew_cycle_detected_within_batch(self):
        # Each transaction reads the initial version of the other's key:
        # rw edges both ways, the classic 2-cycle.
        graph = StreamingSerializationGraph()
        graph.ingest_batch([txn(1, reads={"b": -1}, writes=["a"]),
                            txn(2, reads={"a": -1}, writes=["b"])])
        assert not graph.ok
        violation = graph.violations[0]
        assert violation.kind == "cycle"
        assert set(violation.cycle) == {1, 2}

    def test_cycle_detected_across_batches(self):
        graph = StreamingSerializationGraph(settle_lag=4)
        graph.ingest_batch([txn(1, reads={"b": -1}, writes=["a"])])
        assert graph.ok
        graph.ingest_batch([txn(2, reads={"a": -1}, writes=["b"])])
        assert not graph.ok
        assert graph.violations[0].kind == "cycle"

    def test_reported_cycle_is_a_real_path(self):
        # A 3-cycle: t1 -wr:a-> t2 -wr:b-> t3 -rw:c-> t1.
        graph = StreamingSerializationGraph(settle_lag=8)
        history = [txn(1, writes=["a", "c"]),
                   txn(2, reads={"a": 1}, writes=["b"]),
                   txn(3, reads={"b": 2, "c": -1})]
        graph.ingest_batch(history)
        assert not graph.ok
        cycle = graph.violations[0].cycle
        assert len(cycle) >= 2
        # Every consecutive hop of the witness (and the closing hop) is a
        # labelled edge of the graph or the rejected closing edge itself.
        offline_ok, _ = check_serializable(history)
        assert not offline_ok

    def test_graph_stays_usable_after_a_cycle(self):
        graph = StreamingSerializationGraph()
        graph.ingest_batch([txn(1, reads={"b": -1}, writes=["a"]),
                            txn(2, reads={"a": -1}, writes=["b"])])
        assert not graph.ok
        before = len(graph.violations)
        graph.ingest_batch([txn(3, reads={"a": 1}, writes=["c"])])
        assert len(graph.violations) == before   # clean txn adds nothing

    def test_wr_edge_binds_late_within_a_batch(self):
        # The reader's record arrives before its writer's (same batch, e.g.
        # commit-order reporting): the wr edge must still materialise.
        graph = StreamingSerializationGraph(settle_lag=4)
        graph.ingest_batch([txn(5, ts=5, reads={"a": 7}),
                            txn(7, ts=7, writes=["a"])])
        assert graph.ok
        assert "wr:a" in graph.edge_labels(7, 5)

    def test_duplicate_txn_id_flagged(self):
        graph = StreamingSerializationGraph()
        graph.ingest_batch([txn(1, writes=["a"])])
        graph.ingest_batch([txn(1, writes=["a"])])
        assert not graph.ok
        assert graph.txns_ingested == 1

    def test_repeated_retained_txn_id_is_a_duplicate_commit(self):
        graph = StreamingSerializationGraph(settle_lag=4)
        graph.ingest_batch([txn(1, writes=["a"]), txn(2, reads={"a": 1})])
        graph.ingest_batch([txn(3, writes=["b"]), txn(2, reads={"a": 1})])
        assert [(v.kind, v.txn_id) for v in graph.violations] == \
            [("duplicate-commit", 2)]

    def test_duplicate_commit_does_not_hold_back_settlement(self):
        # The repeat is not ingested, so its old timestamp must not count
        # towards the younger batch's fence either.
        graph = StreamingSerializationGraph(settle_lag=1)
        graph.ingest_batch([txn(1, writes=["a"])])
        graph.ingest_batch([txn(2, writes=["a"]), txn(1, writes=["a"])])
        assert graph.txns_settled == 1
        assert graph.watermark_ts == 1


class TestGarbageCollection:
    def make_batches(self, count, keys=("a", "b"), reads_latest=True):
        """``count`` single-txn batches of read-modify-writes over ``keys``."""
        batches, last_writer = [], {key: -1 for key in keys}
        for i in range(1, count + 1):
            key = keys[i % len(keys)]
            reads = {key: last_writer[key]} if reads_latest else {}
            batches.append([txn(i, reads=reads, writes=[key])])
            last_writer[key] = i
        return batches

    def test_settlement_collapses_old_batches(self):
        graph = StreamingSerializationGraph(settle_lag=2)
        for batch in self.make_batches(10):
            graph.ingest_batch(batch)
        assert graph.ok
        assert graph.txns_ingested == 10
        assert graph.txns_settled == 8          # all but the lag window
        assert graph.retained_nodes == 2
        assert graph.batches_settled == 8
        assert graph.watermark_ts == 8

    def test_frontier_summarises_settled_writers_and_readers(self):
        graph = StreamingSerializationGraph(settle_lag=1)
        graph.ingest_batch([txn(1, writes=["a"])])
        graph.ingest_batch([txn(2, reads={"a": 1})])
        graph.ingest_batch([txn(3, writes=["b"])])   # settles txn 1
        graph.ingest_batch([txn(4, writes=["b"])])   # settles txn 2
        frontier = graph.frontier("a")
        assert frontier == KeyFrontier(last_writer_ts=1, last_writer_txn=1,
                                       max_reader_ts=2)

    def test_memory_high_water_is_bounded_by_the_window(self):
        graph = StreamingSerializationGraph(settle_lag=2)
        for batch in self.make_batches(200):
            graph.ingest_batch(batch)
        assert graph.ok
        report = graph.report()
        assert report.txns_ingested == 200
        # One txn per batch, lag 2: never more than lag+1 nodes retained.
        assert report.max_retained_nodes <= 3
        assert report.retained_nodes <= 3
        assert report.max_retained_edges <= 6

    def test_stale_read_against_settled_frontier_is_witnessed(self):
        graph = StreamingSerializationGraph(settle_lag=1)
        for batch in self.make_batches(6, keys=("a",)):
            graph.ingest_batch(batch)
        assert graph.ok
        # txn 7 claims it read version 1 of "a", long since overwritten and
        # settled: the writer node is gone, so the frontier witnesses it.
        graph.ingest_batch([txn(7, reads={"a": 1})])
        assert not graph.ok
        violation = graph.violations[0]
        assert violation.kind == "stale-read"
        assert violation.key == "a"

    def test_time_travel_write_below_watermark_is_witnessed(self):
        graph = StreamingSerializationGraph(settle_lag=1)
        for batch in self.make_batches(6, keys=("a",)):
            graph.ingest_batch(batch)
        graph.ingest_batch([txn(100, ts=2, writes=["a"])])
        assert not graph.ok
        kinds = {violation.kind for violation in graph.violations}
        assert "time-travel-write" in kinds or "watermark" in kinds

    def test_timestamp_at_the_watermark_is_a_watermark_violation(self):
        # A read of a key no settled transaction touched, at a timestamp the
        # settled prefix already covers: only the timestamp order is wrong.
        graph = StreamingSerializationGraph(settle_lag=1)
        graph.ingest_batch([txn(1, writes=["a"])])
        graph.ingest_batch([txn(2, writes=["a"])])   # settles txn 1
        assert graph.watermark_ts == 1
        graph.ingest_batch([txn(9, ts=1, reads={"b": -1})])
        assert [(v.kind, v.txn_id) for v in graph.violations] == \
            [("watermark", 9)]

    def test_settlement_defers_when_timestamps_interleave(self):
        # Batches whose timestamp ranges overlap must not settle past each
        # other: the fence defers GC instead of risking a wrong frontier.
        graph = StreamingSerializationGraph(settle_lag=1)
        graph.ingest_batch([txn(10, ts=10, writes=["a"])])
        graph.ingest_batch([txn(5, ts=5, writes=["a"])])   # older ts, newer batch
        graph.ingest_batch([txn(6, ts=6, writes=["a"])])
        graph.ingest_batch([txn(7, ts=7, writes=["a"])])
        assert graph.txns_settled == 0
        assert graph.retained_nodes == 4

    def test_report_snapshot_fields(self):
        graph = StreamingSerializationGraph(settle_lag=2)
        for batch in self.make_batches(8):
            graph.ingest_batch(batch)
        report = graph.report()
        assert report.ok and report.violations == ()
        assert report.batches_ingested == 8
        assert report.retained_nodes == graph.retained_nodes
        assert report.frontier_keys == 2
        assert report.watermark_ts == graph.watermark_ts
        assert report.first_cycle() is None

    def test_settle_lag_validation(self):
        with pytest.raises(ValueError):
            StreamingSerializationGraph(settle_lag=0)


class TestOfflineEquivalenceOnHandHistories:
    HISTORIES = [
        [],
        [txn(1, writes=["a"]), txn(2, reads={"a": 1}, writes=["a"]),
         txn(3, reads={"a": 2})],
        [txn(1, reads={"b": -1}, writes=["a"]),
         txn(2, reads={"a": -1}, writes=["b"])],
        [txn(i, writes=[f"k{i}"]) for i in range(1, 6)],
        [txn(1, writes=["a"]), txn(2, writes=["a"]),
         txn(3, reads={"a": 2}, writes=["b"]), txn(4, reads={"b": 3})],
        # RMW claiming a stale base: lost update, offline-cyclic.
        [txn(1, writes=["a"]), txn(2, reads={"a": 1}, writes=["a"]),
         txn(3, reads={"a": 1}, writes=["a"])],
    ]

    @pytest.mark.parametrize("history", HISTORIES,
                             ids=lambda h: f"{len(h)}txns")
    @pytest.mark.parametrize("batch_size", [1, 2, 10])
    def test_streaming_verdict_matches_offline(self, history, batch_size):
        offline_ok, _ = check_serializable(history)
        graph = StreamingSerializationGraph(settle_lag=2)
        for start in range(0, len(history), batch_size):
            graph.ingest_batch(history[start:start + batch_size])
        assert graph.ok == offline_ok
