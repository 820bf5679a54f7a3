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
from typing import Callable, Dict, List, Optional, Set, Tuple


def shuffle_in_place(items: list, getrandbits: Callable[[int], int]) -> None:
    """``random.Random.shuffle(items)``, draw for draw, without a call per element.

    The stdlib shuffle swaps ``items[i]`` with ``items[_randbelow(i + 1)]``
    for ``i`` from the end down to 1, and ``_randbelow(n)`` draws
    ``getrandbits(n.bit_length())`` until the result is below ``n``.  This
    is the same loop with the rejection sampling inlined: from an equal RNG
    state it makes the same draws, leaves the same permutation and the same
    state (a props test pins that), so fixed-seed runs cannot tell the two
    apart.
    """
    for i in range(len(items) - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        items[i], items[j] = items[j], items[i]


class BucketMeta:
    """Proxy-side metadata for one bucket, as columns indexed by physical slot.

    ``blocks[i]`` is the block id recorded in slot ``i`` (``None`` = dummy)
    and ``valid[i]`` says whether the slot is still unread since the bucket
    was last written; an invalidated slot keeps its block id until the
    rewrite.  ``valid`` holds Python ``bool``s and nothing else: the columns
    are checkpointed as they are, and checkpoint bytes feed the simulated
    clock.  Between rewrites a bucket holds at most one copy of a block
    (rewrites place stash entries, and the stash is keyed by block id).

    The ascending list of *valid dummy* slot indices — what every path read
    picks from — is kept beside the columns rather than re-scanned per read.
    Outside this module, change a slot only through :meth:`invalidate`,
    :meth:`forget` and :meth:`set_valid_map`, which keep the three in step
    (:meth:`RingOram.plan_path_read <repro.oram.ring_oram.RingOram.plan_path_read>`
    is the one exception and says so).
    """

    __slots__ = ("bucket_id", "blocks", "valid", "reads_since_write", "version",
                 "_valid_dummies")

    def __init__(self, bucket_id: int, blocks: List[Optional[int]],
                 valid: Optional[List[bool]] = None,
                 reads_since_write: int = 0, version: int = 0) -> None:
        self.bucket_id = bucket_id
        self.blocks = blocks
        self.reads_since_write = reads_since_write
        self.version = version
        if valid is None:                   # a freshly written bucket
            self.valid = [True] * len(blocks)
            self._valid_dummies = [i for i, block in enumerate(blocks) if block is None]
        else:
            self.valid = valid
            self._index_valid_dummies()

    def __repr__(self) -> str:
        return (f"BucketMeta(bucket_id={self.bucket_id}, blocks={self.blocks}, "
                f"valid={self.valid}, reads_since_write={self.reads_since_write}, "
                f"version={self.version})")

    def _index_valid_dummies(self) -> None:
        self._valid_dummies = [i for i, (block, valid) in enumerate(zip(self.blocks, self.valid))
                               if valid and block is None]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def slot_of_block(self, block_id: int) -> Optional[int]:
        """Physical index of the valid slot holding ``block_id``, if any."""
        blocks = self.blocks
        if block_id in blocks:
            index = blocks.index(block_id)
            if self.valid[index]:
                return index
        return None

    def valid_dummy_slots(self) -> List[int]:
        """Indices of valid dummy slots, ascending.

        This is the kept list itself, not a copy: read it, do not mutate it.
        """
        return self._valid_dummies

    def real_block_ids(self) -> List[int]:
        """Block ids of all real blocks recorded in the bucket (valid or not)."""
        return [block for block in self.blocks if block is not None]

    def valid_real_block_ids(self) -> List[int]:
        """Block ids of real blocks whose slots are still valid (unread)."""
        return [block for block, valid in zip(self.blocks, self.valid)
                if valid and block is not None]

    def invalidate(self, slot_index: int) -> None:
        """Mark a slot as read; reading it again before a rewrite is a bug."""
        if not self.valid[slot_index]:
            raise ValueError(
                f"slot {slot_index} of bucket {self.bucket_id} read twice between reshuffles"
            )
        self.valid[slot_index] = False
        if self.blocks[slot_index] is None:
            self._valid_dummies.remove(slot_index)

    def forget(self, block_id: int) -> bool:
        """Turn every slot recording ``block_id`` into a dummy; True if any did.

        Every recorded copy is cleared, valid or not: invalidated slots keep
        their block id until the bucket is rewritten (and are checkpointed
        with it), so stopping at the first match could hit a consumed slot
        and leave the live copy behind.  A slot that was still valid becomes
        a valid dummy.
        """
        blocks = self.blocks
        if block_id not in blocks:
            return False
        for index, block in enumerate(blocks):
            if block == block_id:
                blocks[index] = None
                if self.valid[index]:
                    insort(self._valid_dummies, index)
        return True

    def set_valid_map(self, valids: List[bool]) -> None:
        """Overwrite every slot's valid bit (restoring a checkpointed map)."""
        if len(valids) != len(self.blocks):
            raise ValueError(
                f"valid map for bucket {self.bucket_id} has {len(valids)} slots, "
                f"the bucket has {len(self.blocks)}")
        self.valid = [bool(valid) for valid in valids]
        self._index_valid_dummies()

    # ------------------------------------------------------------------ #
    # Serialisation (checkpointing)
    # ------------------------------------------------------------------ #
    def to_row(self) -> Tuple[int, List[Optional[int]], List[bool], int, int]:
        """The checkpoint row.  The lists are the live columns, not copies."""
        return (self.bucket_id, self.blocks, self.valid,
                self.reads_since_write, self.version)

    @classmethod
    def from_row(cls, row) -> "BucketMeta":
        bucket_id, blocks, valid, reads, version = row
        return cls(bucket_id, list(blocks), list(valid), reads, version)


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
        # The shuffled layout *is* the block column: real blocks, then empty
        # real slots and dummy slots (both ``None``), permuted.
        layout: List[Optional[int]] = [bid for bid, _ in contents]
        layout.extend([None] * (self.z_real + self.s_dummies - len(contents)))
        shuffle_in_place(layout, self._rng.getrandbits)
        return BucketMeta(bucket_id, layout)

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
        rows = {str(bid): meta.valid for bid, meta in selected}
        return json.dumps(rows, sort_keys=True).encode("utf-8")

    def apply_valid_map(self, blob: bytes) -> None:
        """Restore checkpointed valid bits.

        A checkpoint's valid rows cover the same buckets as its metadata
        rows, so a row for an unknown bucket (or of another width) is
        corruption.  Skipping it would leave slots the server already saw
        read marked valid — a second read of the same slot — so it raises.
        """
        rows = json.loads(blob.decode("utf-8"))
        for bid_str, valids in rows.items():
            meta = self._buckets.get(int(bid_str))
            if meta is None:
                raise ValueError(f"valid map names bucket {bid_str}, "
                                 f"which has no metadata row")
            meta.set_valid_map(valids)
