"""Abstract interface to the untrusted storage server.

The proxy talks to storage exclusively through this interface.  Requests are
addressed by an opaque string key (ORAM bucket ids, WAL segment names,
checkpoint names); payloads are ``bytes``.  The interface is *batched*
because batches are what the adversary observes: a tracing backend records
one boundary per batch.  A store keeps bytes and counts requests; it never
says how long anything took — the proxy's cost model owns every simulated
millisecond.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence


class StorageOp(enum.Enum):
    """Kinds of physical operations the storage server can observe."""

    READ = "read"
    WRITE = "write"
    DELETE = "delete"


class StorageServer:
    """Interface implemented by storage backends.

    Concrete implementations must be deterministic given the same request
    sequence: the security analysis replays workloads and compares traces.
    """

    def read_batch(self, keys: Sequence[str],
                   record_batch: bool = True) -> Dict[str, Optional[bytes]]:
        """Read many keys: ``{key: payload}``, ``None`` for a missing key.

        ``record_batch=False`` tells a tracing backend that the caller has
        already announced the adversary-visible batch these requests belong
        to (the epoch executor issues one logical batch as many calls).
        """
        raise NotImplementedError

    def write_batch(self, items: Dict[str, bytes], record_batch: bool = True) -> None:
        """Write many key/payload pairs, all of them or (on error) none."""
        raise NotImplementedError

    def delete_batch(self, keys: Sequence[str]) -> None:
        """Delete keys: superseded bucket versions, WAL segments, checkpoint chains."""
        raise NotImplementedError

    def read(self, key: str) -> Optional[bytes]:
        """Convenience single-key read."""
        return self.read_batch([key])[key]

    def write(self, key: str, payload: bytes) -> None:
        """Convenience single-key write."""
        self.write_batch({key: payload})

    def contains(self, key: str) -> bool:
        """Whether the key currently exists on the server."""
        raise NotImplementedError

    def keys(self) -> List[str]:
        """All keys currently stored (recovery sweeps checkpoints and slots with it)."""
        raise NotImplementedError
