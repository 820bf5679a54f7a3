"""The proxy's data handler: key directory plus ORAM batch execution.

The data handler (DH) owns the mapping from application keys (strings) to
ORAM block ids, the epoch's version cache, and the epoch batch executor.  It
exposes exactly two physical operations to the rest of the proxy, matching
the epoch structure of §6.2:

* :meth:`execute_read_batch` — run one fixed-size read batch of application
  keys through the ORAM (padded with dummy requests) and install the results
  as base values in the version cache;
* :meth:`execute_write_batch` — write the epoch's final values (one write
  batch, padded) and flush all buffered bucket rewrites.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.version_cache import VersionCache
from repro.oram.batch_executor import EpochBatchExecutor
from repro.oram.ring_oram import RingOram


@dataclass
class KeyDirectory:
    """Assigns stable ORAM block ids to application keys.

    The directory is proxy metadata (like the position map) and is
    checkpointed for durability; recovering it avoids an oblivious index,
    which the paper leaves to future work.  Like the position map it supports
    delta serialisation so that steady-state checkpoints stay small: only the
    keys first seen since the last checkpoint are written.
    """

    _ids: Dict[str, int] = field(default_factory=dict)
    _next_id: int = 0
    _dirty: set = field(default_factory=set)

    def block_id(self, key: str) -> int:
        """Stable block id for ``key``, assigned on first use."""
        bid = self._ids.get(key)
        if bid is None:
            bid = self._next_id
            self._next_id += 1
            self._ids[key] = bid
            self._dirty.add(key)
        return bid

    def known(self, key: str) -> bool:
        return key in self._ids

    def keys(self) -> List[str]:
        """Every application key the directory has assigned a block id.

        Live resharding (``repro.elasticity``) seeds its copy queue from
        this: the union of the per-partition directories is exactly the set
        of keys the deployment has ever materialised.
        """
        return list(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def clear_dirty(self) -> None:
        self._dirty.clear()

    def serialize(self) -> bytes:
        """Full serialisation (used by periodic full checkpoints)."""
        return json.dumps({"next": self._next_id, "ids": self._ids},
                          sort_keys=True).encode("utf-8")

    def serialize_delta(self) -> bytes:
        """Only the keys assigned since the last :meth:`clear_dirty`."""
        delta = {key: self._ids[key] for key in self._dirty if key in self._ids}
        return json.dumps({"next": self._next_id, "delta": delta},
                          sort_keys=True).encode("utf-8")

    @classmethod
    def deserialize(cls, blob: bytes) -> "KeyDirectory":
        payload = json.loads(blob.decode("utf-8"))
        directory = cls()
        directory._ids = {str(k): int(v) for k, v in payload["ids"].items()}
        directory._next_id = int(payload["next"])
        return directory

    def apply_delta(self, blob: bytes) -> int:
        """Apply a :meth:`serialize_delta` payload; returns entries applied."""
        payload = json.loads(blob.decode("utf-8"))
        delta = payload.get("delta", {})
        for key, bid in delta.items():
            self._ids[str(key)] = int(bid)
        self._next_id = max(self._next_id, int(payload["next"]))
        return len(delta)


class DataHandler:
    """Bridges application keys and the epoch batch executor."""

    def __init__(self, oram: RingOram, executor: EpochBatchExecutor,
                 directory: Optional[KeyDirectory] = None,
                 cache: Optional[VersionCache] = None) -> None:
        self.oram = oram
        self.executor = executor
        self.directory = directory if directory is not None else KeyDirectory()
        self.cache = cache if cache is not None else VersionCache()
        self.stats_reads_served_from_cache = 0

    # ------------------------------------------------------------------ #
    # Batched physical operations
    # ------------------------------------------------------------------ #
    def execute_read_batch(self, keys: Sequence[str], batch_size: int) -> Dict[str, Optional[bytes]]:
        """Read ``keys`` through the ORAM as one padded batch.

        Results are installed in the version cache as base values and also
        returned.  Keys already cached are not re-read (the caller, the
        batch manager, normally never schedules those).
        """
        to_fetch = [key for key in keys if not self.cache.has_base(key)]
        block_ids: List[Optional[int]] = [self.directory.block_id(key) for key in to_fetch]
        results = self.executor.execute_read_batch(block_ids, batch_size=batch_size)

        out: Dict[str, Optional[bytes]] = {}
        for key, bid in zip(to_fetch, block_ids):
            value = results.get(bid)
            value = value if value else None
            self.cache.install_base(key, value)
            out[key] = value
        for key in keys:
            if key not in out:
                out[key] = self.cache.base_value(key)
                self.stats_reads_served_from_cache += 1
        return out

    def execute_write_batch(self, items: Dict[str, bytes], batch_size: int) -> None:
        """Write the epoch's final values as one padded write batch."""
        payload = {self.directory.block_id(key): value for key, value in items.items()}
        self.executor.execute_write_batch(payload, batch_size=batch_size)

    def flush(self) -> float:
        """Flush all buffered bucket rewrites; returns simulated duration."""
        return self.executor.flush_epoch()

    # ------------------------------------------------------------------ #
    # Stash lookups (used when serving transactions)
    # ------------------------------------------------------------------ #
    def stash_resident(self, key: str) -> bool:
        """Whether the key's block sits in the ORAM stash after a logical access.

        Such blocks can be served without an ORAM read (paper §6.3); the
        proxy uses this to satisfy reads without consuming a batch slot.
        """
        if not self.directory.known(key):
            return False
        entry = self.oram.stash.get(self.directory.block_id(key))
        if entry is None:
            return False
        from repro.oram.stash import StashReason
        return entry.reason is StashReason.LOGICAL_ACCESS

    def stash_value(self, key: str) -> Optional[bytes]:
        if not self.directory.known(key):
            return None
        entry = self.oram.stash.get(self.directory.block_id(key))
        return entry.value if entry is not None else None
