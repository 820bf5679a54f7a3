"""Tests for the serialization-graph checker."""

from repro.concurrency import CommittedTransaction, check_serializable
from repro.concurrency.serializability import (SerializationGraph,
                                               build_serialization_graph)


def txn(txn_id, ts, reads=None, writes=None, epoch=0):
    return CommittedTransaction(
        txn_id=txn_id, timestamp=ts, epoch=epoch,
        read_set=dict(reads or {}), write_set=dict(writes or {}),
    )


class TestGraphPrimitives:
    def test_self_edges_ignored(self):
        graph = SerializationGraph()
        graph.add_edge(1, 1, "ww:k")
        assert graph.find_cycle() is None

    def test_simple_cycle_detected(self):
        graph = SerializationGraph()
        graph.add_edge(1, 2, "wr:a")
        graph.add_edge(2, 1, "rw:b")
        cycle = graph.find_cycle()
        assert cycle is not None
        assert set(cycle) >= {1, 2}

    def test_acyclic_chain_has_no_cycle(self):
        graph = SerializationGraph()
        graph.add_edge(1, 2, "ww:a")
        graph.add_edge(2, 3, "ww:a")
        assert graph.find_cycle() is None

    def test_diamond_is_not_a_cycle(self):
        """Two paths into one node are not a cycle: a node the search has
        already finished is not on the current path."""
        graph = SerializationGraph()
        # A diamond inserted in scrambled order: 9 -> {7, 3, 5} -> 1.
        for src, dst in [(9, 7), (9, 3), (5, 1), (9, 5), (3, 1), (7, 1)]:
            graph.add_edge(src, dst, "ww:k")
        assert graph.find_cycle() is None

    def test_long_cycle_detected(self):
        graph = SerializationGraph()
        for i in range(5):
            graph.add_edge(i, (i + 1) % 5, "e")
        assert graph.find_cycle() is not None


class TestHistoryChecking:
    def test_serial_history_is_serializable(self):
        history = [
            txn(1, 1, writes={"a": b"1"}),
            txn(2, 2, reads={"a": 1}, writes={"a": b"2"}),
            txn(3, 3, reads={"a": 2}),
        ]
        ok, cycle = check_serializable(history)
        assert ok and cycle is None

    def test_write_skew_style_cycle_detected(self):
        # T1 reads b then writes a; T2 reads a then writes b, each reading the
        # initial version: classic non-serializable interleaving.
        history = [
            txn(1, 1, reads={"b": -1}, writes={"a": b"1"}),
            txn(2, 2, reads={"a": -1}, writes={"b": b"2"}),
        ]
        graph = build_serialization_graph(history)
        # rw edges in both directions -> cycle.
        assert graph.find_cycle() is not None

    def test_disjoint_transactions_are_serializable(self):
        history = [txn(i, i, writes={f"k{i}": b"v"}) for i in range(1, 6)]
        ok, _ = check_serializable(history)
        assert ok

    def test_wr_edge_built_from_observed_writer(self):
        history = [
            txn(1, 1, writes={"a": b"1"}),
            txn(2, 2, reads={"a": 1}),
        ]
        graph = build_serialization_graph(history)
        assert 2 in graph.edges[1]
        assert "wr:a" in graph.edge_labels[(1, 2)]

    def test_rw_edge_to_later_writer(self):
        history = [
            txn(1, 1, reads={"a": -1}),
            txn(2, 2, writes={"a": b"2"}),
        ]
        graph = build_serialization_graph(history)
        assert 2 in graph.edges[1]

    def test_empty_history_serializable(self):
        ok, _ = check_serializable([])
        assert ok

