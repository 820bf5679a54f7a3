"""Streaming serializability checking over committed-transaction batches.

The offline checker (:mod:`repro.concurrency.serializability`) rebuilds the
full direct serialization graph (DSG) and runs a DFS over the engine's entire
lifetime history — fine after a unit test, useless during an open-loop run
where the history grows without bound.  This module keeps the same verdict
*incrementally* and in *bounded memory*, following the outsider-verification
framing of Cobra ("Detecting Incorrect Behavior of Cloud Databases as an
Outsider", PAPERS.md): the engine is treated as an untrusted cloud database
and audited continuously from nothing but the ``CommittedTransaction``
records it reports.

Two mechanisms make that work:

* **Incremental cycle detection.**  :class:`StreamingSerializationGraph`
  maintains a topological order of the retained DSG nodes using the
  Pearce–Kelly ordering-based algorithm: inserting an edge that respects the
  current order is O(1); inserting a back edge triggers a DFS bounded by the
  affected order region, which either surfaces a cycle (a serializability
  violation, reported with the witness path) or locally reorders the region.
  No full-graph DFS ever runs.

* **Epoch-fenced garbage collection.**  Batches (engine waves / proxy
  epochs) *settle* once ``settle_lag`` newer batches have been ingested.
  Because every engine in this repo assigns globally monotonic timestamps
  (MVTSO ``begin`` for obladi/nopriv, the commit sequence for mysql), no
  correct future transaction can precede a settled one; each settled
  transaction is collapsed into a per-key :class:`KeyFrontier` (last
  committed writer, newest settled reader).  A later transaction that *does*
  reach behind a frontier — reading an overwritten version, or writing below
  the watermark — is reported as a concrete witness instead of an edge.
  Retained nodes therefore stay bounded by the active window; the auditor
  reports the high-water mark it actually needed.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.concurrency.transaction import CommittedTransaction

#: Sentinel larger than any real txn id, used to bisect past ties on a
#: timestamp when scanning per-key writer lists.
_MAX_ID = 2 ** 63


@dataclass(frozen=True)
class AuditViolation:
    """One serializability (or reads-latest discipline) violation witness.

    ``kind`` is one of:

    * ``"cycle"`` — inserting a dependency edge closed a cycle among the
      retained transactions; ``cycle`` holds the witness path ``(t0, ...,
      tn)`` meaning ``t0 -> t1 -> ... -> tn -> t0``.
    * ``"stale-read"`` — a transaction reported reading a version older than
      the settled frontier for the key (the version had already been
      overwritten by a settled writer).
    * ``"time-travel-write"`` — a transaction committed a write whose
      timestamp precedes the settled frontier for the key.
    * ``"watermark"`` — a transaction's timestamp is at or below the settled
      watermark (the engine's timestamp order went backwards).
    * ``"duplicate-commit"`` — a transaction id that is still retained was
      reported committed a second time; the repeat is not ingested.
    """

    kind: str
    txn_id: int
    key: Optional[str] = None
    cycle: Optional[Tuple[int, ...]] = None
    detail: str = ""


@dataclass(frozen=True)
class KeyFrontier:
    """Per-key summary of the settled (garbage-collected) prefix.

    ``last_writer_ts`` / ``last_writer_txn`` identify the newest settled
    committed writer of the key (``-1`` when no settled transaction wrote
    it); ``max_reader_ts`` is the newest settled transaction that read the
    key.  Together they are all the settled prefix contributes to future
    edges: a correct reader observes ``last_writer_ts`` (or a retained
    writer), and a correct writer's timestamp exceeds both fields.
    """

    last_writer_ts: int = -1
    last_writer_txn: int = -1
    max_reader_ts: int = -1


@dataclass(frozen=True)
class AuditReport:
    """Verdict and resource accounting snapshot from a streaming audit."""

    #: ``True`` when no violation has been detected so far.
    ok: bool
    #: All violations detected, in detection order.
    violations: Tuple[AuditViolation, ...]
    #: Transactions ingested over the auditor's lifetime.
    txns_ingested: int
    #: Transactions collapsed into frontiers by the garbage collector.
    txns_settled: int
    #: Batches (waves / epochs) ingested and settled.
    batches_ingested: int
    batches_settled: int
    #: Current retained DSG size.
    retained_nodes: int
    retained_edges: int
    #: Lifetime high-water marks of the retained DSG — the auditor's actual
    #: memory requirement, which stays bounded by the active window rather
    #: than growing with the history.
    max_retained_nodes: int
    max_retained_edges: int
    #: Number of keys with a settled frontier summary.
    frontier_keys: int
    #: Highest settled timestamp (``-1`` until the first batch settles).
    watermark_ts: int

    def first_cycle(self) -> Optional[Tuple[int, ...]]:
        """The first reported cycle witness, if any violation carries one."""
        for violation in self.violations:
            if violation.cycle is not None:
                return violation.cycle
        return None


@dataclass
class _Batch:
    """A sealed ingestion batch awaiting settlement."""

    txn_ids: List[int] = field(default_factory=list)
    min_ts: int = _MAX_ID
    max_ts: int = -1


class StreamingSerializationGraph:
    """Incremental DSG maintainer with epoch-fenced garbage collection.

    Feed committed transactions one batch (wave / epoch) at a time via
    :meth:`ingest_batch`; read the verdict at any point via :attr:`ok`,
    :attr:`violations` or :meth:`report`.  The graph keeps the acyclic
    invariant even after detecting a cycle (the closing edge is recorded as
    a violation and not inserted), so auditing continues past the first
    violation.
    """

    def __init__(self, settle_lag: int = 2) -> None:
        if settle_lag < 1:
            raise ValueError("settle_lag must be >= 1")
        #: Batches younger than this many newer batches stay fully retained.
        self.settle_lag = settle_lag
        self.violations: List[AuditViolation] = []
        # Retained DSG: nodes, adjacency, labels and the Pearce–Kelly order.
        self._txns: Dict[int, CommittedTransaction] = {}
        self._out: Dict[int, Set[int]] = {}
        self._in: Dict[int, Set[int]] = {}
        self._labels: Dict[Tuple[int, int], Set[str]] = {}
        self._ord: Dict[int, int] = {}
        self._next_ord = 0
        self._edge_count = 0
        # Per-key indexes over the retained window.
        self._writers: Dict[str, List[Tuple[int, int]]] = {}  # (ts, txn_id), sorted
        self._readers: Dict[str, List[Tuple[int, int]]] = {}  # (observed_ts, txn_id)
        # Settled prefix summaries.
        self._frontier: Dict[str, KeyFrontier] = {}
        self._pending: Deque[_Batch] = deque()
        self.watermark_ts = -1
        # Accounting.
        self.txns_ingested = 0
        self.txns_settled = 0
        self.batches_ingested = 0
        self.batches_settled = 0
        self.max_retained_nodes = 0
        self.max_retained_edges = 0

    # ------------------------------------------------------------------ #
    # Public surface
    # ------------------------------------------------------------------ #
    @property
    def ok(self) -> bool:
        """``True`` while no violation has been detected."""
        return not self.violations

    @property
    def retained_nodes(self) -> int:
        """Number of transactions currently retained in the graph."""
        return len(self._txns)

    @property
    def retained_edges(self) -> int:
        """Number of dependency edges currently retained."""
        return self._edge_count

    def frontier(self, key: str) -> Optional[KeyFrontier]:
        """The settled-prefix summary for ``key``, if any batch settled it."""
        return self._frontier.get(key)

    def edge_labels(self, src: int, dst: int) -> Set[str]:
        """Dependency labels (``ww:k`` / ``wr:k`` / ``rw:k``) on a retained edge."""
        return set(self._labels.get((src, dst), ()))

    def ingest_batch(self, txns: Sequence[CommittedTransaction]) -> None:
        """Ingest one batch of committed transactions and advance the GC.

        A batch is the unit of settlement: once ``settle_lag`` newer batches
        have been ingested (and the timestamp fence holds), its transactions
        are collapsed into per-key frontiers.  Empty batches are ignored so
        idle waves do not advance the fence.
        """
        if not txns:
            return
        batch = _Batch()
        for txn in txns:
            if not self._ingest_txn(txn):
                continue
            batch.txn_ids.append(txn.txn_id)
            batch.min_ts = min(batch.min_ts, txn.timestamp)
            batch.max_ts = max(batch.max_ts, txn.timestamp)
        self._pending.append(batch)
        self.batches_ingested += 1
        self._advance_watermark()

    def report(self) -> AuditReport:
        """Snapshot the current verdict and resource accounting."""
        return AuditReport(
            ok=self.ok,
            violations=tuple(self.violations),
            txns_ingested=self.txns_ingested,
            txns_settled=self.txns_settled,
            batches_ingested=self.batches_ingested,
            batches_settled=self.batches_settled,
            retained_nodes=self.retained_nodes,
            retained_edges=self.retained_edges,
            max_retained_nodes=self.max_retained_nodes,
            max_retained_edges=self.max_retained_edges,
            frontier_keys=len(self._frontier),
            watermark_ts=self.watermark_ts,
        )

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def _ingest_txn(self, txn: CommittedTransaction) -> bool:
        """Insert one transaction: node, per-key index entries and edges.

        Returns ``False`` for a repeat of a retained txn id, which is
        reported and left out of its batch (so it cannot hold back the
        settlement fence).
        """
        if txn.txn_id in self._txns:
            self._violation("duplicate-commit", txn.txn_id,
                            detail=f"txn id {txn.txn_id} reported committed twice")
            return False
        self.txns_ingested += 1
        self._txns[txn.txn_id] = txn
        self._out[txn.txn_id] = set()
        self._in[txn.txn_id] = set()
        self._ord[txn.txn_id] = self._next_ord
        self._next_ord += 1

        if txn.timestamp <= self.watermark_ts:
            self._violation(
                "watermark", txn.txn_id,
                detail=(f"timestamp {txn.timestamp} is at or below the settled "
                        f"watermark {self.watermark_ts}"))

        for key in sorted(txn.write_set):
            self._ingest_write(txn, key)
        for key in sorted(txn.read_set):
            self._ingest_read(txn, key, txn.read_set[key])

        self.max_retained_nodes = max(self.max_retained_nodes, len(self._txns))
        self.max_retained_edges = max(self.max_retained_edges, self._edge_count)
        return True

    def _ingest_write(self, txn: CommittedTransaction, key: str) -> None:
        frontier = self._frontier.get(key)
        if frontier is not None and (txn.timestamp < frontier.last_writer_ts
                                     or txn.timestamp < frontier.max_reader_ts):
            self._violation(
                "time-travel-write", txn.txn_id, key=key,
                detail=(f"write at ts {txn.timestamp} precedes settled frontier "
                        f"(last writer ts {frontier.last_writer_ts}, "
                        f"max reader ts {frontier.max_reader_ts})"))

        writers = self._writers.setdefault(key, [])
        entry = (txn.timestamp, txn.txn_id)
        pos = bisect.bisect_left(writers, entry)
        writers.insert(pos, entry)
        # ww edges with the retained timestamp-order neighbours.  An edge to
        # a farther writer is transitively implied, so consecutive pairs
        # suffice for acyclicity.
        if pos > 0:
            self._add_edge(writers[pos - 1][1], txn.txn_id, f"ww:{key}")
        if pos + 1 < len(writers):
            self._add_edge(txn.txn_id, writers[pos + 1][1], f"ww:{key}")
        # Anti-dependencies from retained readers of older versions, and
        # late-bound wr edges for readers that already reported observing
        # this writer (its record can arrive later in the same batch).
        for observed_ts, reader_id in list(self._readers.get(key, ())):
            if reader_id == txn.txn_id:
                continue
            if observed_ts < txn.timestamp:
                self._add_edge(reader_id, txn.txn_id, f"rw:{key}")
            elif observed_ts == txn.timestamp:
                self._add_edge(txn.txn_id, reader_id, f"wr:{key}")

    def _ingest_read(self, txn: CommittedTransaction, key: str, observed_ts: int) -> None:
        frontier = self._frontier.get(key)
        writers = self._writers.get(key, [])
        # wr edge from the retained writer of the observed version.
        writer_id = self._retained_writer_with_ts(writers, observed_ts)
        if writer_id is not None:
            if writer_id != txn.txn_id:
                self._add_edge(writer_id, txn.txn_id, f"wr:{key}")
        elif frontier is not None and observed_ts < frontier.last_writer_ts:
            # The observed version (possibly the initial one, -1) was already
            # overwritten by a settled writer: the engine failed the
            # reads-latest-committed discipline.  The offline DSG may or may
            # not be cyclic for a *pure* stale read, but for this repo's
            # engines (readers observe the latest committed version) it is
            # always a bug, and the settled writer is gone so a witness is
            # the only faithful report.
            self._violation(
                "stale-read", txn.txn_id, key=key,
                detail=(f"read observed writer ts {observed_ts} but a settled "
                        f"writer (ts {frontier.last_writer_ts}, "
                        f"txn {frontier.last_writer_txn}) overwrote it"))
        # Anti-dependency edges to every retained writer of a newer version
        # (same fan-out as the offline builder).
        pos = bisect.bisect_right(writers, (observed_ts, _MAX_ID))
        for _, writer in writers[pos:]:
            if writer != txn.txn_id:
                self._add_edge(txn.txn_id, writer, f"rw:{key}")
        self._readers.setdefault(key, []).append((observed_ts, txn.txn_id))

    @staticmethod
    def _retained_writer_with_ts(writers: List[Tuple[int, int]],
                                 ts: int) -> Optional[int]:
        pos = bisect.bisect_left(writers, (ts, -1))
        if pos < len(writers) and writers[pos][0] == ts:
            return writers[pos][1]
        return None

    # ------------------------------------------------------------------ #
    # Incremental cycle detection (Pearce–Kelly ordering)
    # ------------------------------------------------------------------ #
    def _add_edge(self, src: int, dst: int, label: str) -> None:
        """Insert ``src -> dst``, maintaining the topological order.

        If the edge would close a cycle it is recorded as a ``"cycle"``
        violation (with the witness path) and *not* inserted, preserving the
        acyclic invariant so later insertions remain meaningful.
        """
        if src == dst or src not in self._txns or dst not in self._txns:
            return
        if dst in self._out[src]:
            self._labels[(src, dst)].add(label)
            return
        lower, upper = self._ord[dst], self._ord[src]
        if lower < upper:
            # Back edge in the current order: search the affected region.
            path = self._forward_region(dst, src, upper)
            if path is not None:
                self._violation("cycle", src, key=label.split(":", 1)[-1],
                                cycle=tuple(path),
                                detail=f"edge {src}->{dst} ({label}) closes a cycle")
                return
            self._reorder(src, dst, lower, upper)
        self._out[src].add(dst)
        self._in[dst].add(src)
        self._labels.setdefault((src, dst), set()).add(label)
        self._edge_count += 1

    def _forward_region(self, start: int, target: int,
                        upper: int) -> Optional[List[int]]:
        """DFS from ``start`` over nodes ordered <= ``upper``.

        Returns the path ``[start, ..., target]`` if ``target`` is reachable
        (i.e. the candidate edge ``target -> start`` closes a cycle), else
        ``None``.  Visited nodes are remembered in ``self._visited_forward``
        for the subsequent reorder step.
        """
        parent: Dict[int, int] = {}
        visited = [start]
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in self._out[node]:
                if nxt in seen or self._ord[nxt] > upper:
                    continue
                parent[nxt] = node
                if nxt == target:
                    path = [target]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    path.reverse()
                    self._visited_forward = visited
                    return path
                seen.add(nxt)
                visited.append(nxt)
                stack.append(nxt)
        self._visited_forward = visited
        return None

    def _reorder(self, src: int, dst: int, lower: int, upper: int) -> None:
        """Pearce–Kelly local reorder after a cycle-free back-edge insert."""
        forward = self._visited_forward  # nodes reachable from dst, ord <= upper
        backward = [src]
        seen = {src}
        stack = [src]
        while stack:
            node = stack.pop()
            for prv in self._in[node]:
                if prv not in seen and self._ord[prv] >= lower:
                    seen.add(prv)
                    backward.append(prv)
                    stack.append(prv)
        forward.sort(key=self._ord.__getitem__)
        backward.sort(key=self._ord.__getitem__)
        pool = sorted(self._ord[n] for n in forward + backward)
        for slot, node in zip(pool, backward + forward):
            self._ord[node] = slot

    # ------------------------------------------------------------------ #
    # Epoch-fenced garbage collection
    # ------------------------------------------------------------------ #
    def _advance_watermark(self) -> None:
        """Settle batches older than the lag window, fence permitting.

        The fence: a batch settles only when every younger retained batch
        has strictly larger timestamps.  Engines with monotonic timestamps
        always pass; if an engine violates monotonicity the watermark check
        flags it and settlement simply defers (safe, never unsound).
        """
        while len(self._pending) > self.settle_lag:
            batch = self._pending[0]
            younger_min = min((b.min_ts for b in list(self._pending)[1:]),
                              default=_MAX_ID)
            if younger_min <= batch.max_ts:
                break
            self._pending.popleft()
            self._settle_batch(batch)

    def _settle_batch(self, batch: _Batch) -> None:
        """Collapse a settled batch into per-key frontier summaries."""
        for txn_id in batch.txn_ids:
            txn = self._txns.pop(txn_id, None)
            if txn is None:
                continue
            for key in txn.write_set:
                self._discard_index_entry(self._writers, key,
                                          (txn.timestamp, txn_id))
                frontier = self._frontier.get(key, KeyFrontier())
                if txn.timestamp > frontier.last_writer_ts:
                    frontier = replace(frontier, last_writer_ts=txn.timestamp,
                                       last_writer_txn=txn_id)
                self._frontier[key] = frontier
            for key, observed_ts in txn.read_set.items():
                self._discard_index_entry(self._readers, key,
                                          (observed_ts, txn_id))
                frontier = self._frontier.get(key, KeyFrontier())
                if txn.timestamp > frontier.max_reader_ts:
                    frontier = replace(frontier, max_reader_ts=txn.timestamp)
                self._frontier[key] = frontier
            for dst in self._out.pop(txn_id, ()):
                self._in[dst].discard(txn_id)
                self._labels.pop((txn_id, dst), None)
                self._edge_count -= 1
            for src in self._in.pop(txn_id, ()):
                self._out[src].discard(txn_id)
                self._labels.pop((src, txn_id), None)
                self._edge_count -= 1
            del self._ord[txn_id]
            self.txns_settled += 1
        self.watermark_ts = max(self.watermark_ts, batch.max_ts)
        self.batches_settled += 1

    @staticmethod
    def _discard_index_entry(index: Dict[str, List[Tuple[int, int]]], key: str,
                             entry: Tuple[int, int]) -> None:
        entries = index.get(key)
        if not entries:
            return
        pos = bisect.bisect_left(entries, entry)
        if pos < len(entries) and entries[pos] == entry:
            entries.pop(pos)
        else:  # readers are append-ordered, not sorted: fall back to remove.
            try:
                entries.remove(entry)
            except ValueError:
                pass
        if not entries:
            del index[key]

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _violation(self, kind: str, txn_id: int, key: Optional[str] = None,
                   cycle: Optional[Tuple[int, ...]] = None, detail: str = "") -> None:
        self.violations.append(AuditViolation(kind=kind, txn_id=txn_id, key=key,
                                              cycle=cycle, detail=detail))
