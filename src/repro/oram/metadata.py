"""Client-side bucket metadata: permutations, valid bits, write versions.

Ring ORAM keeps, for every bucket, a record of which physical slot holds
which real block (or a dummy), which slots have already been read since the
bucket was last written (*invalid* slots), and how many times the bucket has
been written.  The server stores only ciphertexts; all of this metadata lives
at the proxy and must therefore be checkpointed for durability (paper §8):
the permutation map encrypted, the valid/invalid map in the clear (the set of
slots read is public information).
"""

from __future__ import annotations

import json
import random
from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


@dataclass
class SlotInfo:
    """One physical slot of a bucket, as known to the proxy."""

    block_id: Optional[int]   # None = dummy slot
    valid: bool = True        # becomes False once the slot has been read


@dataclass
class BucketMeta:
    """Proxy-side metadata for one bucket.

    ``slots`` is the record; the ascending list of *valid dummy* slot indices
    — what every path read picks from — is kept beside it rather than
    re-scanned per read.  Change a slot only through :meth:`invalidate`,
    :meth:`forget` and :meth:`set_valid_map`, which keep the two in step.
    """

    bucket_id: int
    slots: List[SlotInfo] = field(default_factory=list)
    reads_since_write: int = 0
    version: int = 0
    _valid_dummies: List[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._index_valid_dummies()

    def _index_valid_dummies(self) -> None:
        self._valid_dummies = [i for i, s in enumerate(self.slots)
                               if s.block_id is None and s.valid]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def slot_of_block(self, block_id: int) -> Optional[int]:
        """Physical index of the valid slot holding ``block_id``, if any."""
        for idx, slot in enumerate(self.slots):
            if slot.block_id == block_id and slot.valid:
                return idx
        return None

    def valid_dummy_slots(self) -> List[int]:
        """Indices of valid dummy slots, ascending.

        This is the kept list itself, not a copy: read it, do not mutate it.
        """
        return self._valid_dummies

    def valid_real_slots(self) -> List[int]:
        """Indices of valid slots holding real blocks."""
        return [i for i, s in enumerate(self.slots) if s.block_id is not None and s.valid]

    def real_block_ids(self) -> List[int]:
        """Block ids of all real blocks recorded in the bucket (valid or not)."""
        return [s.block_id for s in self.slots if s.block_id is not None]

    def valid_real_block_ids(self) -> List[int]:
        """Block ids of real blocks whose slots are still valid (unread)."""
        return [s.block_id for s in self.slots if s.block_id is not None and s.valid]

    def invalidate(self, slot_index: int) -> None:
        """Mark a slot as read; reading it again before a rewrite is a bug."""
        slot = self.slots[slot_index]
        if not slot.valid:
            raise ValueError(
                f"slot {slot_index} of bucket {self.bucket_id} read twice between reshuffles"
            )
        slot.valid = False
        if slot.block_id is None:
            self._valid_dummies.remove(slot_index)

    def forget(self, block_id: int) -> bool:
        """Turn every slot recording ``block_id`` into a dummy; True if any did.

        Every recorded copy is cleared, valid or not: invalidated slots keep
        their block id until the bucket is rewritten, so stopping at the
        first match could hit a consumed slot and leave the live copy behind.
        A slot that was still valid becomes a valid dummy.
        """
        changed = False
        for index, slot in enumerate(self.slots):
            if slot.block_id == block_id:
                slot.block_id = None
                if slot.valid:
                    insort(self._valid_dummies, index)
                changed = True
        return changed

    def set_valid_map(self, valids: List[bool]) -> None:
        """Overwrite every slot's valid bit (restoring a checkpointed map)."""
        for slot, valid in zip(self.slots, valids):
            slot.valid = bool(valid)
        self._index_valid_dummies()

    def needs_reshuffle(self, s_dummies: int) -> bool:
        """Whether the bucket must be reshuffled before it can serve more reads.

        Ring ORAM triggers an *early reshuffle* once a bucket has been
        touched ``S`` times since its last write: at that point it may have
        no valid dummies left to serve further accesses obliviously.
        """
        return self.reads_since_write >= s_dummies

    # ------------------------------------------------------------------ #
    # Serialisation (checkpointing)
    # ------------------------------------------------------------------ #
    def to_row(self) -> Tuple[int, List[Optional[int]], List[bool], int, int]:
        return (
            self.bucket_id,
            [s.block_id for s in self.slots],
            [s.valid for s in self.slots],
            self.reads_since_write,
            self.version,
        )

    @classmethod
    def from_row(cls, row) -> "BucketMeta":
        bucket_id, block_ids, valids, reads, version = row
        slots = [SlotInfo(block_id=b, valid=v) for b, v in zip(block_ids, valids)]
        return cls(bucket_id=bucket_id, slots=slots,
                   reads_since_write=reads, version=version)


class MetadataTable:
    """All per-bucket metadata for one ORAM tree."""

    def __init__(self, num_buckets: int, z_real: int, s_dummies: int,
                 rng: Optional[random.Random] = None) -> None:
        if num_buckets < 1:
            raise ValueError("num_buckets must be positive")
        self.num_buckets = num_buckets
        self.z_real = z_real
        self.s_dummies = s_dummies
        self._rng = rng if rng is not None else random.Random()
        self._buckets: Dict[int, BucketMeta] = {}
        self._dirty: Set[int] = set()

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def bucket(self, bucket_id: int) -> BucketMeta:
        """Metadata for ``bucket_id``, creating an all-dummy layout on first use."""
        if not 0 <= bucket_id < self.num_buckets:
            raise ValueError(f"bucket id {bucket_id} out of range")
        meta = self._buckets.get(bucket_id)
        if meta is None:
            meta = self._fresh_bucket(bucket_id, contents=[])
            self._buckets[bucket_id] = meta
            self._dirty.add(bucket_id)
        return meta

    def mark_dirty(self, bucket_id: int) -> None:
        self._dirty.add(bucket_id)

    def _fresh_bucket(self, bucket_id: int, contents: List[Tuple[int, bytes]]) -> BucketMeta:
        """Build a freshly permuted bucket layout holding ``contents`` block ids."""
        if len(contents) > self.z_real:
            raise ValueError(
                f"bucket {bucket_id} asked to hold {len(contents)} blocks, Z={self.z_real}"
            )
        layout: List[Optional[int]] = [bid for bid, _ in contents]
        layout.extend([None] * (self.z_real - len(contents)))   # empty real slots
        layout.extend([None] * self.s_dummies)                  # dummy slots
        self._rng.shuffle(layout)
        slots = [SlotInfo(block_id=bid, valid=True) for bid in layout]
        return BucketMeta(bucket_id=bucket_id, slots=slots)

    def rewrite_bucket(self, bucket_id: int, contents: List[Tuple[int, bytes]]) -> BucketMeta:
        """Replace a bucket's layout after an eviction / reshuffle write.

        Returns the new metadata; the version counter is advanced and the
        read counter reset, matching a physical rewrite of every slot.
        """
        old = self.bucket(bucket_id)
        fresh = self._fresh_bucket(bucket_id, contents)
        fresh.version = old.version + 1
        self._buckets[bucket_id] = fresh
        self._dirty.add(bucket_id)
        return fresh

    def buckets_present(self) -> List[int]:
        return sorted(self._buckets)

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #
    def dirty_buckets(self) -> List[int]:
        return sorted(self._dirty)

    def clear_dirty(self) -> None:
        self._dirty.clear()

    def serialize_full(self) -> bytes:
        rows = [self._buckets[bid].to_row() for bid in sorted(self._buckets)]
        payload = {
            "num_buckets": self.num_buckets,
            "z": self.z_real,
            "s": self.s_dummies,
            "rows": rows,
        }
        return json.dumps(payload).encode("utf-8")

    def serialize_delta(self) -> bytes:
        rows = [self._buckets[bid].to_row() for bid in self.dirty_buckets()
                if bid in self._buckets]
        return json.dumps({"rows": rows}).encode("utf-8")

    @classmethod
    def deserialize_full(cls, blob: bytes,
                         rng: Optional[random.Random] = None) -> "MetadataTable":
        payload = json.loads(blob.decode("utf-8"))
        table = cls(payload["num_buckets"], payload["z"], payload["s"], rng=rng)
        for row in payload["rows"]:
            meta = BucketMeta.from_row(row)
            table._buckets[meta.bucket_id] = meta
        table.clear_dirty()
        return table

    def apply_delta(self, blob: bytes) -> int:
        payload = json.loads(blob.decode("utf-8"))
        for row in payload["rows"]:
            meta = BucketMeta.from_row(row)
            self._buckets[meta.bucket_id] = meta
        return len(payload["rows"])

    def serialize_valid_map(self, bucket_ids: Optional[List[int]] = None) -> bytes:
        """The valid/invalid map (stored unencrypted, per the paper).

        ``bucket_ids`` restricts the serialisation to a subset (the buckets
        dirtied this epoch) so that delta checkpoints stay proportional to
        the epoch's work rather than to the whole tree.
        """
        if bucket_ids is None:
            selected = self._buckets.items()
        else:
            selected = ((bid, self._buckets[bid]) for bid in bucket_ids
                        if bid in self._buckets)
        rows = {str(bid): [s.valid for s in meta.slots] for bid, meta in selected}
        return json.dumps(rows, sort_keys=True).encode("utf-8")

    def apply_valid_map(self, blob: bytes) -> None:
        rows = json.loads(blob.decode("utf-8"))
        for bid_str, valids in rows.items():
            bid = int(bid_str)
            meta = self._buckets.get(bid)
            if meta is None or len(meta.slots) != len(valids):
                continue
            meta.set_valid_map(valids)
