"""Read/write batch construction: slot assignment, deduplication, padding.

The batch manager enforces the epoch's fixed structure (paper §6.2):

* an epoch has ``R`` read batches of exactly ``b_read`` slots each,
  dispatched at fixed intervals;
* a read for a key already scheduled in the current batch shares its slot
  (deduplication) — parallel ORAM batches must touch distinct keys, and the
  sharing also stretches batch capacity;
* a read that cannot be served from the version cache is assigned to the
  *next unfilled* read batch; if the epoch has no unfilled batch left, the
  requesting transaction aborts;
* leftover slots are padded with dummy requests before dispatch;
* the single write batch holds at most ``b_write`` distinct keys.

With a partitioned data layer (``shards > 1``) the fixed structure holds
*per partition*: each read batch carries a quota of ``ceil(b_read/shards)``
slots per partition and the write batch a quota of ``ceil(b_write/shards)``
per partition, because each partition executes (and pads) its share of the
batch independently.  A key whose partition quota is exhausted spills to
the next batch exactly like a full batch does today.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.core.errors import BatchFullError


@dataclass
class ReadBatch:
    """One read batch being assembled."""

    index: int
    capacity: int
    partition_quota: int
    keys: List[str] = field(default_factory=list)
    _keyset: Set[str] = field(default_factory=set)
    _partition_counts: Dict[int, int] = field(default_factory=dict)
    dispatched: bool = False

    def has_room(self, partition: int = 0) -> bool:
        if len(self.keys) >= self.capacity:
            return False
        return self._partition_counts.get(partition, 0) < self.partition_quota

    def contains(self, key: str) -> bool:
        return key in self._keyset

    def add(self, key: str, partition: int = 0) -> None:
        if self.dispatched:
            raise ValueError(f"read batch {self.index} already dispatched")
        if key in self._keyset:
            return
        if not self.has_room(partition):
            raise BatchFullError("read", self.capacity)
        self.keys.append(key)
        self._keyset.add(key)
        self._partition_counts[partition] = self._partition_counts.get(partition, 0) + 1

    @property
    def padding(self) -> int:
        """Dummy slots that will be added at dispatch time."""
        return self.capacity - len(self.keys)


class BatchManager:
    """Assembles the epoch's R read batches and its write batch.

    ``partitioner`` maps an application key to its partition index; each
    batch enforces the per-partition read quota and the write batch the
    per-partition write quota, matching the padded per-partition batches the
    data layer executes.  Unpartitioned, every key is partition 0 and the
    quotas are the batch sizes themselves.
    """

    def __init__(self, read_batches: int, read_batch_size: int, write_batch_size: int,
                 partitioner: Callable[[str], int],
                 read_partition_quota: Optional[int] = None,
                 write_partition_quota: Optional[int] = None) -> None:
        if read_batches < 1:
            raise ValueError("need at least one read batch per epoch")
        self.read_batches_per_epoch = read_batches
        self.read_batch_size = read_batch_size
        self.write_batch_size = write_batch_size
        self.partitioner = partitioner
        self.read_partition_quota = read_partition_quota or read_batch_size
        self.write_partition_quota = write_partition_quota or write_batch_size
        self.reset_epoch()

    # ------------------------------------------------------------------ #
    # Epoch lifecycle
    # ------------------------------------------------------------------ #
    def reset_epoch(self) -> None:
        self._batches: List[ReadBatch] = [
            ReadBatch(index=i, capacity=self.read_batch_size,
                      partition_quota=self.read_partition_quota)
            for i in range(self.read_batches_per_epoch)
        ]
        self._next_batch = 0
        self.stats_deduplicated = 0
        self.stats_scheduled = 0
        self.stats_padded = 0

    # ------------------------------------------------------------------ #
    # Read scheduling
    # ------------------------------------------------------------------ #
    def schedule_read(self, key: str) -> int:
        """Assign ``key`` to the next unfilled batch; returns the batch index.

        Raises :class:`BatchFullError` when every remaining batch of the
        epoch is full — the paper aborts the transaction in that case.
        """
        partition = self.partitioner(key)
        for idx in range(self._next_batch, self.read_batches_per_epoch):
            batch = self._batches[idx]
            if batch.dispatched:
                continue
            if batch.contains(key):
                self.stats_deduplicated += 1
                return idx
            if batch.has_room(partition):
                batch.add(key, partition)
                self.stats_scheduled += 1
                return idx
        raise BatchFullError("read", self.read_batch_size)

    def dispatch_next(self) -> Optional[ReadBatch]:
        """Mark the current batch dispatched and return it (None when done)."""
        if self._next_batch >= self.read_batches_per_epoch:
            return None
        batch = self._batches[self._next_batch]
        batch.dispatched = True
        self.stats_padded += batch.padding
        self._next_batch += 1
        return batch

    # ------------------------------------------------------------------ #
    # Write batch
    # ------------------------------------------------------------------ #
    def build_write_batch(self, write_back: Dict[str, Optional[bytes]]) -> Dict[str, bytes]:
        """Select at most ``b_write`` keys from the epoch's write-back set.

        Deleted keys (``None`` values) are written as empty payloads — the
        ORAM has no notion of deletion, and the record layer encodes
        tombstones explicitly.  Raises :class:`BatchFullError` when the set
        exceeds the batch capacity; the proxy responds by aborting the
        transactions whose writes overflow the batch.
        """
        if len(write_back) > self.write_batch_size:
            raise BatchFullError("write", self.write_batch_size)
        per_partition: Dict[int, int] = {}
        for key in write_back:
            partition = self.partitioner(key)
            per_partition[partition] = per_partition.get(partition, 0) + 1
            if per_partition[partition] > self.write_partition_quota:
                raise BatchFullError("write", self.write_partition_quota)
        return {key: (value if value is not None else b"")
                for key, value in sorted(write_back.items())}
