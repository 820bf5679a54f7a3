"""Client-side position map.

The position map records, for every logical block id, the tree leaf (path)
the block is currently mapped to.  Every access remaps the block to a fresh
uniformly random leaf — the *path invariant* that makes repeated accesses to
the same block look independent to the server.

For durability, Obladi checkpoints the map each epoch; to keep checkpoints
small it writes *deltas* (entries changed since the last full checkpoint)
padded to the maximum number of entries an epoch could have changed, so the
delta size never reveals how many real (non-padded) requests ran.

Both are the same fixed-width records, one ``(block id, leaf)`` pair of
little-endian u32s per entry; a padding entry has block id ``NO_BLOCK``.
A full checkpoint is the delta of every entry, unpadded.
"""

from __future__ import annotations

import random
import struct
from typing import Dict, List, Optional, Set, Tuple

from repro.oram.crypto import IntegrityError
from repro.oram.metadata import NO_BLOCK

#: Bytes per checkpointed entry: block id, leaf.
ENTRY_BYTES = 8


class PositionMap:
    """Mapping from block id to leaf, with delta tracking for checkpoints."""

    def __init__(self, num_leaves: int, rng: Optional[random.Random] = None) -> None:
        if num_leaves < 1:
            raise ValueError("num_leaves must be positive")
        self.num_leaves = num_leaves
        self._rng = rng if rng is not None else random.Random()
        self._positions: Dict[int, int] = {}
        self._dirty: Set[int] = set()

    # ------------------------------------------------------------------ #
    # Core mapping operations
    # ------------------------------------------------------------------ #
    def lookup(self, block_id: int) -> Optional[int]:
        """Leaf the block is mapped to, or ``None`` if never seen."""
        return self._positions.get(block_id)

    def lookup_or_assign(self, block_id: int) -> int:
        """Leaf for the block, assigning a fresh random leaf on first touch."""
        leaf = self._positions.get(block_id)
        if leaf is None:
            leaf = self._rng.randrange(self.num_leaves)
            self._positions[block_id] = leaf
            self._dirty.add(block_id)
        return leaf

    def remap(self, block_id: int) -> int:
        """Assign a fresh uniformly random leaf and return it."""
        leaf = self._rng.randrange(self.num_leaves)
        self._positions[block_id] = leaf
        self._dirty.add(block_id)
        return leaf

    def __len__(self) -> int:
        return len(self._positions)

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #
    def dirty_entries(self) -> Dict[int, int]:
        """Entries modified since the last :meth:`clear_dirty` call."""
        return {bid: self._positions[bid] for bid in self._dirty if bid in self._positions}

    def clear_dirty(self) -> None:
        """Mark all entries clean (called after a successful checkpoint)."""
        self._dirty.clear()

    def serialize_full(self) -> bytes:
        """Every entry, ascending by block id, for periodic full checkpoints."""
        return _pack(sorted(self._positions.items()))

    def serialize_delta(self, pad_to_entries: int = 0) -> bytes:
        """The dirty entries, padded to ``pad_to_entries`` entries.

        The blob is ``ENTRY_BYTES`` per entry, padding included, so with a pad
        its length is ``pad_to_entries * ENTRY_BYTES`` whatever the dirty set
        holds — the paper's requirement that the delta size not reveal how
        many real requests an epoch contained.
        """
        entries: List[Tuple[int, int]] = sorted(self.dirty_entries().items())
        if pad_to_entries and len(entries) > pad_to_entries:
            raise ValueError(
                f"delta has {len(entries)} entries but pad bound is {pad_to_entries}"
            )
        entries.extend([(NO_BLOCK, 0)] * (pad_to_entries - len(entries)))
        return _pack(entries)

    def apply_delta(self, blob: bytes) -> int:
        """Apply a serialised delta (or a full map); returns the real entries applied.

        A full checkpoint is restored by applying it to an empty map.  A blob
        that is not a whole number of entries raises ``IntegrityError``.
        """
        if len(blob) % ENTRY_BYTES:
            raise IntegrityError(f"position map of {len(blob)} bytes is not a whole "
                                 f"number of {ENTRY_BYTES}-byte entries")
        fields = struct.unpack(f"<{len(blob) // 4}I", blob)
        applied = 0
        for block_id, leaf in zip(fields[0::2], fields[1::2]):
            if block_id != NO_BLOCK:
                self._positions[block_id] = leaf
                applied += 1
        return applied


def _pack(entries: List[Tuple[int, int]]) -> bytes:
    return struct.pack(f"<{2 * len(entries)}I",
                       *[field for entry in entries for field in entry])
