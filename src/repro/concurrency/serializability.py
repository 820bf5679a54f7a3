"""Serialization-graph testing for committed histories.

The test suite validates the concurrency control implementations by building
the direct serialization graph (DSG) of every committed history: nodes are
committed transactions; edges are write-read, write-write and read-write
dependencies on each key.  The history is (conflict-)serializable iff the
graph is acyclic.  For multiversioned histories we use the version order
induced by writer timestamps, which is the order both MVTSO and the epoch
write-back install.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.concurrency.transaction import CommittedTransaction


@dataclass
class SerializationGraph:
    """Direct serialization graph over committed transactions."""

    nodes: Set[int] = field(default_factory=set)
    edges: Dict[int, Set[int]] = field(default_factory=lambda: defaultdict(set))
    edge_labels: Dict[Tuple[int, int], Set[str]] = field(default_factory=lambda: defaultdict(set))

    def add_node(self, txn_id: int) -> None:
        """Add a committed transaction to the graph."""
        self.nodes.add(txn_id)

    def add_edge(self, src: int, dst: int, label: str) -> None:
        """Add a labelled dependency edge ``src -> dst`` (self-loops ignored)."""
        if src == dst:
            return
        self.nodes.add(src)
        self.nodes.add(dst)
        self.edges[src].add(dst)
        self.edge_labels[(src, dst)].add(label)

    def find_cycle(self) -> Optional[List[int]]:
        """Return one cycle as a list of txn ids, or ``None`` if acyclic."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {node: WHITE for node in self.nodes}
        parent: Dict[int, Optional[int]] = {}

        def dfs(start: int) -> Optional[List[int]]:
            stack: List[Tuple[int, Iterable[int]]] = [(start, iter(sorted(self.edges[start])))]
            color[start] = GRAY
            parent[start] = None
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color.get(nxt, WHITE) == WHITE:
                        color[nxt] = GRAY
                        parent[nxt] = node
                        stack.append((nxt, iter(sorted(self.edges[nxt]))))
                        advanced = True
                        break
                    if color.get(nxt) == GRAY:
                        cycle = [nxt, node]
                        cur = parent[node]
                        while cur is not None and cur != nxt:
                            cycle.append(cur)
                            cur = parent[cur]
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
            return None

        for node in sorted(self.nodes):
            if color[node] == WHITE:
                cycle = dfs(node)
                if cycle is not None:
                    return cycle
        return None


def build_serialization_graph(history: Sequence[CommittedTransaction]) -> SerializationGraph:
    """Build the DSG of a committed multiversioned history.

    The version order for each key is the order of writer timestamps among
    committed transactions.  Reads record the writer timestamp they observed
    (``-1`` denotes the initial, pre-history version).
    """
    graph = SerializationGraph()
    by_ts: Dict[int, CommittedTransaction] = {}
    writers_per_key: Dict[str, List[CommittedTransaction]] = defaultdict(list)

    for txn in history:
        graph.add_node(txn.txn_id)
        by_ts[txn.timestamp] = txn
        for key in txn.write_set:
            writers_per_key[key].append(txn)

    for key, writers in writers_per_key.items():
        writers.sort(key=lambda t: t.timestamp)
        # Write-write edges follow the version order.
        for earlier, later in zip(writers, writers[1:]):
            graph.add_edge(earlier.txn_id, later.txn_id, f"ww:{key}")

    for txn in history:
        for key, observed_ts in txn.read_set.items():
            writers = writers_per_key.get(key, [])
            # Write-read edge from the observed writer.
            if observed_ts >= 0 and observed_ts in by_ts and by_ts[observed_ts].txn_id != txn.txn_id:
                graph.add_edge(by_ts[observed_ts].txn_id, txn.txn_id, f"wr:{key}")
            # Read-write (anti-dependency) edges to every later writer.
            for writer in writers:
                if writer.txn_id == txn.txn_id:
                    continue
                if writer.timestamp > observed_ts:
                    graph.add_edge(txn.txn_id, writer.txn_id, f"rw:{key}")
    return graph


def check_serializable(history: Sequence[CommittedTransaction]) -> Tuple[bool, Optional[List[int]]]:
    """Whether a committed history is serializable; returns (ok, cycle)."""
    graph = build_serialization_graph(history)
    cycle = graph.find_cycle()
    return cycle is None, cycle
