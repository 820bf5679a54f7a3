"""In-memory storage server with a pluggable latency model.

This plays the role of the untrusted cloud store (an in-memory hash map
behind a network in the paper's ``server`` and ``server WAN`` setups, or
DynamoDB in the ``dynamo`` setup).  Every request is recorded in an
:class:`~repro.storage.trace.AccessTrace`, and every batch's simulated
duration is computed from the latency model and the parallelism the caller
can extract.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.sim.clock import SimClock
from repro.sim.latency import LatencyModel, get_latency_model
from repro.storage.backend import BatchResult, StorageOp, StorageServer
from repro.storage.trace import AccessTrace


class InMemoryStorageServer(StorageServer):
    """Key-value store over a simulated network.

    Parameters
    ----------
    latency:
        Backend name (``dummy``/``server``/``server_wan``/``dynamo``) or a
        :class:`LatencyModel` instance.
    clock:
        Shared simulated clock.  If omitted a private clock is created; the
        proxy normally supplies its own so that storage time and proxy time
        advance together.
    record_trace:
        Whether to record the adversary-visible trace (on by default; can be
        disabled for very large benchmark runs to save memory).
    """

    def __init__(self, latency="dummy", clock: Optional[SimClock] = None,
                 record_trace: bool = True, charge_latency: bool = True) -> None:
        self.latency: LatencyModel = get_latency_model(latency)
        self.clock = clock if clock is not None else SimClock()
        self.trace = AccessTrace() if record_trace else None
        self.charge_latency = charge_latency
        self._data: Dict[str, bytes] = {}
        self._failed = False
        self.stats_reads = 0
        self.stats_writes = 0
        self.stats_batches = 0

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
    # Timing
    # ------------------------------------------------------------------ #
    def _batch_elapsed_ms(self, n_requests: int, is_write: bool, parallelism: int) -> float:
        """Simulated duration of a batch of ``n_requests`` homogeneous requests.

        With ``p`` usable parallel slots, ``n`` requests complete in
        ``ceil(n / p)`` waves of one round-trip each, plus a serialised
        server-side service term that models provisioned-throughput limits.
        """
        if n_requests == 0:
            return 0.0
        p = self.latency.effective_parallelism(parallelism)
        waves = math.ceil(n_requests / p)
        rtt = self.latency.rtt_ms(is_write)
        service = self.latency.per_request_server_ms * n_requests / p
        return waves * rtt + service

    # ------------------------------------------------------------------ #
    # StorageServer interface
    # ------------------------------------------------------------------ #
    def read_batch(self, keys: Sequence[str], parallelism: int = 1,
                   record_batch: bool = True) -> BatchResult:
        self._check_available()
        elapsed = self._batch_elapsed_ms(len(keys), is_write=False, parallelism=parallelism)
        start_ms = self.clock.now_ms
        if self.charge_latency:
            self.clock.advance(elapsed)
        self.stats_reads += len(keys)
        self.stats_batches += 1
        found = list(map(self._data.get, keys))
        if self.trace is not None:
            batch_id = -1
            if record_batch:
                batch_id = self.trace.begin_batch("read", start_ms, len(keys))
            self.trace.record_batch(
                StorageOp.READ, keys,
                [len(value) if value is not None else 0 for value in found],
                start_ms, batch_id)
        return BatchResult(values=dict(zip(keys, found)), elapsed_ms=elapsed,
                           request_count=len(keys))

    def write_batch(self, items: Dict[str, bytes], parallelism: int = 1,
                    record_batch: bool = True) -> BatchResult:
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
        elapsed = self._batch_elapsed_ms(len(items), is_write=True, parallelism=parallelism)
        start_ms = self.clock.now_ms
        if self.charge_latency:
            self.clock.advance(elapsed)
        self.stats_writes += len(items)
        self.stats_batches += 1
        self._data.update(items)
        if self.trace is not None:
            batch_id = -1
            if record_batch:
                batch_id = self.trace.begin_batch("write", start_ms, len(items))
            self.trace.record_batch(StorageOp.WRITE, items, map(len, items.values()),
                                    start_ms, batch_id)
        return BatchResult(values={}, elapsed_ms=elapsed, request_count=len(items))

    def delete_batch(self, keys: Sequence[str], parallelism: int = 1) -> BatchResult:
        self._check_available()
        elapsed = self._batch_elapsed_ms(len(keys), is_write=True, parallelism=parallelism)
        start_ms = self.clock.now_ms
        if self.charge_latency:
            self.clock.advance(elapsed)
        for key in keys:
            self._data.pop(key, None)
        if self.trace is not None:
            batch_id = self.trace.begin_batch("delete", start_ms, len(keys))
            self.trace.record_batch(StorageOp.DELETE, keys, [0] * len(keys),
                                    start_ms, batch_id)
        return BatchResult(values={}, elapsed_ms=elapsed, request_count=len(keys))

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
