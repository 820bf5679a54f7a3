"""In-memory storage server: the untrusted store holds bytes, nothing more.

This plays the role of the untrusted cloud store (an in-memory hash map
behind a network in the paper's ``server`` and ``server WAN`` setups, or
DynamoDB in the ``dynamo`` setup).  It keeps the bytes it is sent, counts
requests and records every one in an
:class:`~repro.storage.trace.AccessTrace`, stamped with the shared clock's
current time.  It never advances that clock: what a batch costs on the
network is the proxy's cost model's business (``ObladiConfig.backend``).

A server also carries the deployment's one fault switch,
:meth:`InMemoryStorageServer.fail`: an outage that starts once a given
number of keys has been written or deleted, tearing the batch that crosses
that point.  The engine crashes its proxy when a request fails, so
``fail(after=k)`` is a proxy crash right after its k-th storage mutation.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Optional, Sequence

from repro.sim.clock import SimClock
from repro.storage.backend import StorageOp, StorageServer
from repro.storage.trace import AccessTrace


class _Outage:
    """An injected outage: how many more keys may be written or deleted first.

    The servers of a cluster share one, so the count runs across the tier.
    """

    __slots__ = ("left",)

    def __init__(self, after: int) -> None:
        if after < 0:
            raise ValueError("an outage cannot start before now")
        self.left = after

    def check(self) -> None:
        """Raise once the outage has started."""
        if not self.left:
            raise ConnectionError("storage server is unavailable")

    def admit(self, count: int) -> int:
        """How many keys of a ``count``-key mutation go through; raises if none."""
        self.check()
        admitted = min(count, self.left)
        self.left -= admitted
        return admitted


class InMemoryStorageServer(StorageServer):
    """Key-value store the proxy reaches over a simulated network.

    Parameters
    ----------
    clock:
        Shared simulated clock, read to timestamp trace rows.  If omitted a
        private clock is created; the proxy normally supplies its own.
    record_trace:
        Whether to record the adversary-visible trace (on by default).  A
        trace holds about 4 bytes a request — compressed keys and one size
        per uniform batch — so turning it off saves memory only on very
        long runs.
    """

    def __init__(self, clock: Optional[SimClock] = None, record_trace: bool = True) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.trace = AccessTrace() if record_trace else None
        self._data: Dict[str, bytes] = {}
        self._outage: Optional[_Outage] = None
        self.stats_reads = 0
        self.stats_writes = 0

    # ------------------------------------------------------------------ #
    # The fault switch (the paper assumes storage is reliable; tests use it
    # to crash the proxy at a chosen storage mutation and to check that the
    # proxy surfaces an outage rather than masking it).
    # ------------------------------------------------------------------ #
    def fail(self, after: int = 0) -> None:
        """Start an outage once ``after`` more keys have been written or deleted.

        Requests are served as usual until then.  The write or delete batch
        that crosses the point applies the keys before it — a torn batch —
        and raises ``ConnectionError``, as does every request after it until
        :meth:`recover`.  ``fail()`` starts the outage now.
        """
        self._outage = _Outage(after)

    def join_outage(self, server: "InMemoryStorageServer") -> None:
        """Share ``server``'s injected outage, and its count of keys, from now on.

        A cluster's servers join their metadata server's outage, so one
        :meth:`fail` covers the whole tier and counts keys on any server.
        """
        self._outage = server._outage

    def recover(self) -> None:
        """End an injected outage."""
        self._outage = None

    # ------------------------------------------------------------------ #
    # StorageServer interface
    # ------------------------------------------------------------------ #
    def read_batch(self, keys: Sequence[str],
                   record_batch: bool = True) -> Dict[str, Optional[bytes]]:
        if self._outage is not None:
            self._outage.check()
        self.stats_reads += len(keys)
        found = list(map(self._data.get, keys))
        if self.trace is not None:
            now_ms = self.clock.now_ms
            batch_id = -1
            if record_batch:
                batch_id = self.trace.begin_batch("read", now_ms, len(keys))
            self.trace.record_batch(
                StorageOp.READ, keys,
                [len(value) if value is not None else 0 for value in found],
                now_ms, batch_id)
        return dict(zip(keys, found))

    def write_batch(self, items: Dict[str, bytes], record_batch: bool = True) -> None:
        # Validate the whole batch before anything is counted, stored or
        # traced: a bad payload must not leave a partially applied batch.
        # ``bytes`` payloads are immutable and are stored by reference; only
        # a batch holding something else is looked at item by item, and only
        # a ``bytearray`` (its owner may still mutate it) is copied.
        if set(map(type, items.values())) != {bytes}:
            for key, payload in items.items():
                if not isinstance(payload, (bytes, bytearray)):
                    raise TypeError(f"payload for {key!r} must be bytes, got {type(payload).__name__}")
            items = {key: bytes(payload) for key, payload in items.items()}
        if self._outage is not None:
            admitted = self._outage.admit(len(items))
            if admitted < len(items):
                self._store(dict(islice(items.items(), admitted)), record_batch)
                raise ConnectionError("storage server failed part-way through a write batch")
        self._store(items, record_batch)

    def _store(self, items: Dict[str, bytes], record_batch: bool) -> None:
        self.stats_writes += len(items)
        self._data.update(items)
        if self.trace is not None:
            now_ms = self.clock.now_ms
            batch_id = -1
            if record_batch:
                batch_id = self.trace.begin_batch("write", now_ms, len(items))
            self.trace.record_batch(StorageOp.WRITE, items, map(len, items.values()),
                                    now_ms, batch_id)

    def delete_batch(self, keys: Sequence[str]) -> None:
        if self._outage is not None:
            admitted = self._outage.admit(len(keys))
            if admitted < len(keys):
                self._drop(list(islice(keys, admitted)))
                raise ConnectionError("storage server failed part-way through a delete batch")
        self._drop(keys)

    def _drop(self, keys: Sequence[str]) -> None:
        for key in keys:
            self._data.pop(key, None)
        if self.trace is not None:
            now_ms = self.clock.now_ms
            batch_id = self.trace.begin_batch("delete", now_ms, len(keys))
            self.trace.record_batch(StorageOp.DELETE, keys, [0] * len(keys),
                                    now_ms, batch_id)

    def contains(self, key: str) -> bool:
        return key in self._data

    def keys(self) -> List[str]:
        return list(self._data.keys())

    def size_bytes(self) -> int:
        """Total bytes currently stored (diagnostic)."""
        return sum(len(v) for v in self._data.values())

    def snapshot(self) -> Dict[str, bytes]:
        """Copy of the stored data; used by recovery tests to diff state."""
        return dict(self._data)
