"""Abstract interface to the untrusted storage server.

The proxy talks to storage exclusively through this interface.  Requests are
addressed by an opaque string key (ORAM bucket ids, WAL segment names,
checkpoint names); payloads are ``bytes``.  The interface deliberately
exposes *batched* reads and writes because the simulated-time model charges
latency per request and computes the parallel makespan per batch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


class StorageOp(enum.Enum):
    """Kinds of physical operations the storage server can observe."""

    READ = "read"
    WRITE = "write"
    DELETE = "delete"


@dataclass(frozen=True)
class StorageRequest:
    """A single physical request sent to the storage server.

    The adversary sees the key, the operation type, the payload *size* and
    the time — never plaintext contents (payloads are encrypted by the ORAM
    layer before they reach storage).
    """

    op: StorageOp
    key: str
    payload: Optional[bytes] = None

    @property
    def size_bytes(self) -> int:
        return len(self.payload) if self.payload is not None else 0


@dataclass
class BatchResult:
    """Result of a batched storage operation.

    ``values`` maps keys to payloads for read batches (missing keys map to
    ``None``); ``elapsed_ms`` is the simulated time the batch took given the
    backend latency model and the parallelism available.
    """

    values: Dict[str, Optional[bytes]] = field(default_factory=dict)
    elapsed_ms: float = 0.0
    request_count: int = 0


class StorageServer:
    """Interface implemented by storage backends.

    Concrete implementations must be deterministic given the same request
    sequence: the security analysis replays workloads and compares traces.
    """

    def read_batch(self, keys: Sequence[str], parallelism: int = 1,
                   record_batch: bool = True) -> BatchResult:
        """Read many keys; returns payloads and the simulated elapsed time.

        ``record_batch=False`` tells a tracing backend that the caller has
        already announced the adversary-visible batch these requests belong
        to (the epoch executor issues one logical batch as many calls).
        """
        raise NotImplementedError

    def write_batch(self, items: Dict[str, bytes], parallelism: int = 1,
                    record_batch: bool = True) -> BatchResult:
        """Write many key/payload pairs, all of them or (on error) none."""
        raise NotImplementedError

    def delete_batch(self, keys: Sequence[str], parallelism: int = 1) -> BatchResult:
        """Delete keys: superseded bucket versions, WAL segments, checkpoint chains."""
        raise NotImplementedError

    def read(self, key: str) -> Optional[bytes]:
        """Convenience single-key read."""
        return self.read_batch([key]).values.get(key)

    def write(self, key: str, payload: bytes) -> None:
        """Convenience single-key write."""
        self.write_batch({key: payload})

    def contains(self, key: str) -> bool:
        """Whether the key currently exists on the server."""
        raise NotImplementedError

    def keys(self) -> List[str]:
        """All keys currently stored (test/diagnostic use only)."""
        raise NotImplementedError
