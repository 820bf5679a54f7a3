"""Client-side stash.

The stash temporarily holds blocks that have been logically accessed (and
remapped) but not yet flushed back to the tree by an evict-path.  Unlike a
cache it is *essential to security*: flushing a block immediately would
reveal its new path.

Obladi draws a distinction the sequential Ring ORAM does not need (paper
§6.3): blocks sitting in the stash because of a *logical access* are mapped
to fresh uniformly random leaves, so serving them locally (without a dummy
path read) does not skew the distribution of paths the server observes;
blocks left behind by an eviction that could not place them (*eviction
residue*) are biased towards paths far from the last evicted path, so they
must still trigger a dummy read.  Every entry therefore carries a provenance
flag.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.oram.crypto import IntegrityError
from repro.oram.metadata import NO_BLOCK


class StashReason(enum.Enum):
    """Why a block currently resides in the stash."""

    LOGICAL_ACCESS = "logical"
    EVICTION_RESIDUE = "residue"


#: A reason's code in a checkpointed stash entry is its index here.
_REASONS = (StashReason.LOGICAL_ACCESS, StashReason.EVICTION_RESIDUE)


@dataclass
class StashEntry:
    """A block buffered at the proxy awaiting eviction."""

    block_id: int
    leaf: int
    value: bytes
    reason: StashReason = StashReason.LOGICAL_ACCESS


class StashOverflowError(Exception):
    """Raised when the stash exceeds its configured bound.

    Ring ORAM guarantees a constant stash bound with overwhelming
    probability; exceeding it indicates a mis-parameterised tree (A too large
    relative to Z) rather than bad luck, so we fail loudly.
    """


class Stash:
    """Bounded collection of :class:`StashEntry`, keyed by block id."""

    def __init__(self, capacity: int = 0) -> None:
        self.capacity = capacity
        self._entries: Dict[int, StashEntry] = {}
        self.peak_size = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._entries

    def get(self, block_id: int) -> Optional[StashEntry]:
        return self._entries.get(block_id)

    def put(self, block_id: int, leaf: int, value: bytes,
            reason: StashReason = StashReason.LOGICAL_ACCESS) -> StashEntry:
        """Insert or replace a block.  Replacement updates leaf, value, reason."""
        entry = StashEntry(block_id=block_id, leaf=leaf, value=value, reason=reason)
        self._entries[block_id] = entry
        if len(self._entries) > self.peak_size:
            self.peak_size = len(self._entries)
        if self.capacity and len(self._entries) > self.capacity:
            raise StashOverflowError(
                f"stash holds {len(self._entries)} blocks, bound is {self.capacity}"
            )
        return entry

    def remove(self, block_id: int) -> Optional[StashEntry]:
        """Remove and return an entry, or ``None`` if absent."""
        return self._entries.pop(block_id, None)

    def entries(self) -> List[StashEntry]:
        """All entries (stable order by block id, for determinism)."""
        return [self._entries[bid] for bid in sorted(self._entries)]

    def mark_residue(self, block_id: int) -> None:
        """Flag a block as eviction residue (could not be flushed)."""
        entry = self._entries.get(block_id)
        if entry is not None:
            entry.reason = StashReason.EVICTION_RESIDUE

    def iter_ids(self) -> Iterator[int]:
        return iter(sorted(self._entries))

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #
    def serialize(self, pad_to_blocks: int, block_size: int) -> bytes:
        """Serialise the stash padded to ``pad_to_blocks`` entries.

        The checkpointed stash must be padded to its maximum size so its
        length reveals nothing about workload skew (paper §8).  Every entry,
        padding included, is one ``13 + block_size``-byte record — block id,
        leaf, value length (little-endian u32s), reason code (u8), then the
        value zero-padded to ``block_size`` — so the blob is exactly
        ``pad_to_blocks * (13 + block_size)`` bytes whatever the stash holds.
        A padding entry has block id ``NO_BLOCK`` and is zero otherwise.
        """
        if pad_to_blocks < len(self._entries):
            raise StashOverflowError(
                f"cannot pad stash of {len(self._entries)} blocks to {pad_to_blocks}"
            )
        record = _record(block_size)
        rows: List[bytes] = []
        for entry in self.entries():
            if len(entry.value) > block_size:
                raise ValueError(
                    f"stash value for block {entry.block_id} exceeds block size {block_size}"
                )
            rows.append(record.pack(entry.block_id, entry.leaf, len(entry.value),
                                    _REASONS.index(entry.reason), entry.value))
        rows.extend([record.pack(NO_BLOCK, 0, 0, 0, b"")] * (pad_to_blocks - len(rows)))
        return b"".join(rows)

    @classmethod
    def deserialize(cls, blob: bytes, block_size: int, capacity: int = 0) -> "Stash":
        """Rebuild a stash from :meth:`serialize` output, dropping padding.

        A blob that is not a whole number of records raises
        ``IntegrityError``.
        """
        record = _record(block_size)
        if len(blob) % record.size:
            raise IntegrityError(f"stash of {len(blob)} bytes is not a whole number "
                                 f"of {record.size}-byte records")
        stash = cls(capacity=capacity)
        for block_id, leaf, length, reason, value in record.iter_unpack(blob):
            if block_id != NO_BLOCK:
                stash.put(block_id, leaf, value[:length], _REASONS[reason])
        return stash


def _record(block_size: int) -> struct.Struct:
    return struct.Struct(f"<IIIB{block_size}s")
