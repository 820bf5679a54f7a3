"""In-memory storage server: the untrusted store holds bytes, nothing more.

This plays the role of the untrusted cloud store (an in-memory hash map
behind a network in the paper's ``server`` and ``server WAN`` setups, or
DynamoDB in the ``dynamo`` setup).  It keeps the bytes it is sent, counts
requests and records every one in an
:class:`~repro.storage.trace.AccessTrace`, stamped with the shared clock's
current time.  It never advances that clock: what a batch costs on the
network is the proxy's cost model's business (``ObladiConfig.backend``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.sim.clock import SimClock
from repro.storage.backend import StorageOp, StorageServer
from repro.storage.trace import AccessTrace


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
        self._failed = False
        self.stats_reads = 0
        self.stats_writes = 0

    # ------------------------------------------------------------------ #
    # Failure injection (the paper assumes storage is reliable; tests use
    # this to validate that the proxy surfaces storage unavailability).
    # ------------------------------------------------------------------ #
    def fail(self) -> None:
        """Make all subsequent requests raise, simulating an outage."""
        self._failed = True

    def recover(self) -> None:
        """Clear a previously injected failure."""
        self._failed = False

    def _check_available(self) -> None:
        if self._failed:
            raise ConnectionError("storage server is unavailable")

    # ------------------------------------------------------------------ #
    # StorageServer interface
    # ------------------------------------------------------------------ #
    def read_batch(self, keys: Sequence[str],
                   record_batch: bool = True) -> Dict[str, Optional[bytes]]:
        self._check_available()
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
        self._check_available()
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
        self._check_available()
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
