"""Adversary-visible access trace.

Everything the honest-but-curious storage provider can observe is captured
here: per-request key, operation type, payload size and timestamp, plus
batch boundaries.  The obliviousness analysis (:mod:`repro.analysis`) works
entirely on these traces: if what a run recorded cannot be told from traces
simulated out of its leakage profile alone, the adversary learns nothing
about which workload ran.
"""

from __future__ import annotations

import zlib
from array import array
from dataclasses import dataclass
from operator import index
from typing import (Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.storage.backend import StorageOp


@dataclass(frozen=True)
class TraceEvent:
    """One adversary-visible storage request."""

    seq: int
    time_ms: float
    op: StorageOp
    key: str
    size_bytes: int
    batch_id: int


@dataclass(frozen=True)
class BatchBoundary:
    """Marks the start of a physical batch as seen by the adversary."""

    batch_id: int
    time_ms: float
    kind: str          # "read", "write" or "delete"
    request_count: int


#: One storage batch as recorded, without its keys: the requests of a batch
#: share their operation kind, timestamp and batch id, so only keys and sizes
#: are per request.  ``sizes`` is one ``int`` when every request of the batch
#: moved the same number of bytes (every delete batch and most slot batches)
#: and an ``array('q')`` otherwise.  ``(op, count, sizes, time_ms, batch_id)``.
_Block = Tuple[StorageOp, int, Union[int, array], float, int]

#: Joins keys, within a block and between blocks; a key containing it cannot
#: be recorded.
_SEP = "\0"

#: Open keys are closed into a segment once about this many characters wait.
_SEGMENT_CHARS = 1 << 16

#: ``wbits`` of a segment: raw deflate, without zlib's header and checksum
#: (about 8 % less compression time; a segment never leaves the process).
_RAW_DEFLATE = -15


def _size_column(sizes: Union[int, array], count: int) -> Sequence[int]:
    """A block's sizes, one per request."""
    return [sizes] * count if isinstance(sizes, int) else sizes


class AccessTrace:
    """Accumulates the sequence of requests observed by the storage server.

    Requests are stored per recorded storage batch: a block holds the
    batch's operation, time, batch id, request count and sizes (one ``int``
    when they are all equal).  Keys are kept apart, in request order: the
    NUL-joined keys of whole blocks wait until about ``_SEGMENT_CHARS``
    characters have gathered and are then closed into one level-1 ``zlib``
    segment — about 4 bytes a request on ORAM slot keys.  A request's
    ``seq`` is its row index.  A trace keeps no key object alive — the
    server may long since have dropped the key — and :class:`TraceEvent`
    objects exist only in the lists a view returns; every view decompresses
    the segments it reads.
    """

    def __init__(self) -> None:
        self._blocks: List[_Block] = []
        self._segments: List[bytes] = []   # closed keys, whole blocks each
        self._open: List[str] = []         # NUL-joined keys of each later block
        self._open_chars = 0
        self._length = 0
        self._batches: List[BatchBoundary] = []
        self._next_batch = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def begin_batch(self, kind: str, time_ms: float, request_count: int) -> int:
        """Record the start of a batch; returns its id."""
        batch_id = self._next_batch
        self._next_batch += 1
        self._batches.append(BatchBoundary(batch_id, time_ms, kind, request_count))
        return batch_id

    def record_batch(self, op: StorageOp, keys: Iterable[str], sizes: Iterable[int],
                     time_ms: float, batch_id: int = -1) -> None:
        """Record the requests of one storage batch, in order.

        Equivalent to one :meth:`record` per ``(key, size)`` pair.  A key
        may not contain NUL (the separator of the packed keys); a rejected
        batch leaves the trace as it was.
        """
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        if not isinstance(sizes, (list, tuple)):
            sizes = list(sizes)
        count = len(keys)
        if count != len(sizes):
            raise ValueError(f"{count} keys but {len(sizes)} sizes")
        if not count:
            return
        packed = _SEP.join(keys)
        if packed.count(_SEP) != count - 1:
            raise ValueError("a trace key cannot contain NUL")
        first = sizes[0]
        column = index(first) if sizes.count(first) == count else array("q", sizes)
        self._blocks.append((op, count, column, time_ms, batch_id))
        self._length += count
        self._open.append(packed)
        self._open_chars += len(packed) + 1
        if self._open_chars >= _SEGMENT_CHARS:
            self._segments.append(zlib.compress(
                _SEP.join(self._open).encode("utf-8", "surrogatepass"), 1, _RAW_DEFLATE))
            self._open = []
            self._open_chars = 0

    def record(self, op: StorageOp, key: str, size_bytes: int, time_ms: float,
               batch_id: int = -1) -> None:
        """Record one request."""
        self.record_batch(op, (key,), (size_bytes,), time_ms, batch_id)

    def clear(self) -> None:
        """Drop all recorded events (used between experiment phases)."""
        self._blocks.clear()
        self._segments.clear()
        self._open = []
        self._open_chars = 0
        self._length = 0
        self._batches.clear()
        self._next_batch = 0

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def _chunks(self) -> Iterator[str]:
        """The recorded keys, NUL-joined, one segment (then the open keys) at a time."""
        for segment in self._segments:
            yield zlib.decompress(segment, _RAW_DEFLATE).decode("utf-8", "surrogatepass")
        if self._open:
            yield _SEP.join(self._open)

    def _block_keys(self) -> Iterator[Tuple[_Block, List[str]]]:
        """Every block with its keys, in record order."""
        blocks = iter(self._blocks)
        for chunk in self._chunks():
            keys = chunk.split(_SEP)
            start = 0
            while start < len(keys):
                block = next(blocks)
                yield block, keys[start:start + block[1]]
                start += block[1]

    def _rows(self) -> Iterator[Tuple[int, float, StorageOp, str, int, int]]:
        """Every request as a :class:`TraceEvent` field tuple, in ``seq`` order."""
        seq = 0
        for (op, count, sizes, time_ms, batch_id), keys in self._block_keys():
            for key, size in zip(keys, _size_column(sizes, count)):
                yield seq, time_ms, op, key, size, batch_id
                seq += 1

    @property
    def events(self) -> List[TraceEvent]:
        """The recorded requests, materialised afresh on every read."""
        return [TraceEvent(*row) for row in self._rows()]

    @property
    def batches(self) -> List[BatchBoundary]:
        """Copy of the announced batch boundaries, in announcement order."""
        return list(self._batches)

    def __len__(self) -> int:
        return self._length

    def ops_by_kind(self) -> Dict[StorageOp, int]:
        """Number of requests per operation kind."""
        counts: Dict[StorageOp, int] = {}
        for block in self._blocks:
            counts[block[0]] = counts.get(block[0], 0) + block[1]
        return counts

    def batch_shape(self) -> List[Tuple[str, int]]:
        """The adversary-visible (kind, size) sequence of batches.

        Workload independence requires this sequence to depend only on the
        configuration, never on the data being accessed
        (:func:`repro.analysis.distinguish` checks it per view).
        """
        return [(b.kind, b.request_count) for b in self._batches]

    def split(self, classify: Callable[[str], Tuple[Hashable, str]]
              ) -> Dict[Hashable, "AccessTrace"]:
        """One sub-trace per key group, in order of first appearance.

        ``classify(key)`` returns ``(group, key as the sub-trace records
        it)``; every other field of a request is carried over unchanged.
        """
        parts: Dict[Hashable, AccessTrace] = {}
        for (op, count, sizes, time_ms, batch_id), keys in self._block_keys():
            grouped: Dict[Hashable, Tuple[List[str], List[int]]] = {}
            for key, size in zip(keys, _size_column(sizes, count)):
                group, sub_key = classify(key)
                columns = grouped.get(group)
                if columns is None:
                    columns = grouped[group] = ([], [])
                columns[0].append(sub_key)
                columns[1].append(size)
            for group, (sub_keys, sub_sizes) in grouped.items():
                part = parts.get(group)
                if part is None:
                    part = parts[group] = AccessTrace()
                part.record_batch(op, sub_keys, sub_sizes, time_ms, batch_id)
        return parts

    def total_bytes(self, op: Optional[StorageOp] = None) -> int:
        """Total payload bytes moved, optionally restricted to one op kind."""
        return sum(sizes * count if isinstance(sizes, int) else sum(sizes)
                   for kind, count, sizes, _, _ in self._blocks
                   if op is None or kind == op)

