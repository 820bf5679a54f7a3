"""Client-side bucket metadata: permutations, valid bits, write versions.

Ring ORAM keeps, for every bucket, a record of which physical slot holds
which real block (or a dummy), which slots have already been read since the
bucket was last written (*invalid* slots), and how many times the bucket has
been written.  The server stores only ciphertexts; all of this metadata lives
at the proxy and must therefore be checkpointed for durability (paper §8):
the permutation map encrypted, the valid/invalid map in the clear (the set of
slots read is public information).

Both are fixed-width little-endian records, one per bucket, so a
checkpoint's size is its bucket count times a width fixed by ``Z + S``:

* a metadata row is the bucket id, its version and reads since the last
  write, then one u32 per slot — the block id, or ``NO_BLOCK`` for a dummy
  (``12 + 4 (Z + S)`` bytes);
* a valid-map record is the bucket id (u32) and the slots' valid bits, slot
  ``i`` in bit ``i`` (``4 + ceil((Z + S) / 8)`` bytes).

Each bucket's valid bits are stored once, in the plain map; a row restores
its bucket with every slot valid until the map is applied.
"""

from __future__ import annotations

import random
import struct
from bisect import insort
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.oram.crypto import IntegrityError

#: The block id of a dummy slot or a padding entry in every checkpoint
#: record (metadata rows, position-map entries, stash entries).
NO_BLOCK = 0xFFFFFFFF
#: ``bytes(valid)`` reversed, as the binary digits of the valid bitmap.
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


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
    rewrite.  ``valid`` holds Python ``bool``s and nothing else (the valid
    map packs ``bytes(valid)``).  Between rewrites a bucket holds at most one
    copy of a block (rewrites place stash entries, and the stash is keyed by
    block id).

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

    def _index_valid_dummies(self) -> None:
        self._valid_dummies = [i for i, (block, valid) in enumerate(zip(self.blocks, self.valid))
                               if valid and block is None]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def valid_dummy_slots(self) -> List[int]:
        """Indices of valid dummy slots, ascending.

        This is the kept list itself, not a copy: read it, do not mutate it.
        """
        return self._valid_dummies

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
        slots = z_real + s_dummies
        self._row = struct.Struct(f"<III{slots}I")
        self._valid_record = struct.Struct(f"<I{(slots + 7) // 8}s")

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

    def _fresh_bucket(self, bucket_id: int, contents: List[Tuple[int, bytes]],
                      version: int = 0) -> BucketMeta:
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
        return BucketMeta(bucket_id, layout, version=version)

    def rewrite_bucket(self, bucket_id: int, contents: List[Tuple[int, bytes]]) -> BucketMeta:
        """Replace a bucket's layout after an eviction / reshuffle write.

        Returns the new metadata; the version counter is advanced and the
        read counter reset, matching a physical rewrite of every slot.

        A first rewrite (a bucket with no metadata yet, as every bucket the
        bulk loader writes) takes the draws of the all-dummy layout
        :meth:`bucket` would have made and replaced, but builds no layout:
        the bucket goes from version 0 to 1 with one :class:`BucketMeta`,
        and the RNG stream is the one a lookup-then-rewrite leaves.
        """
        old = self._buckets.get(bucket_id)
        if old is None:
            if not 0 <= bucket_id < self.num_buckets:
                raise ValueError(f"bucket id {bucket_id} out of range")
            shuffle_in_place([None] * (self.z_real + self.s_dummies), self._rng.getrandbits)
            version = 1
        else:
            version = old.version + 1
        fresh = self._buckets[bucket_id] = self._fresh_bucket(bucket_id, contents, version)
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
        """Every bucket's row, ascending by bucket id."""
        return self._pack_rows(sorted(self._buckets))

    def serialize_delta(self) -> bytes:
        """The dirty buckets' rows, one ``12 + 4 (Z + S)``-byte row each."""
        return self._pack_rows(bid for bid in self.dirty_buckets() if bid in self._buckets)

    def _pack_rows(self, bucket_ids) -> bytes:
        pack, buckets = self._row.pack, self._buckets
        rows = []
        for bid in bucket_ids:
            meta = buckets[bid]
            rows.append(pack(bid, meta.version, meta.reads_since_write,
                             *[NO_BLOCK if block is None else block for block in meta.blocks]))
        return b"".join(rows)

    def apply_delta(self, blob: bytes) -> int:
        """Restore the rows of a delta (or of a full table); returns how many.

        A full checkpoint is restored by applying it to an empty table.  A
        row restores its bucket with every slot valid: the valid map, applied
        next, holds the bits.  A blob that is not a whole number of rows
        raises ``IntegrityError``.
        """
        if len(blob) % self._row.size:
            raise IntegrityError(f"metadata of {len(blob)} bytes is not a whole "
                                 f"number of {self._row.size}-byte rows")
        rows = 0
        for bid, version, reads, *slots in self._row.iter_unpack(blob):
            blocks = [None if block == NO_BLOCK else block for block in slots]
            self._buckets[bid] = BucketMeta(bid, blocks, reads_since_write=reads,
                                            version=version)
            rows += 1
        return rows

    def serialize_valid_map(self, bucket_ids: Optional[List[int]] = None) -> bytes:
        """The valid/invalid map (stored unencrypted, per the paper).

        ``bucket_ids`` restricts the serialisation to a subset (the buckets
        dirtied this epoch) so that delta checkpoints stay proportional to
        the epoch's work rather than to the whole tree.
        """
        if bucket_ids is None:
            bucket_ids = sorted(self._buckets)
        pack, buckets = self._valid_record.pack, self._buckets
        width = self._valid_record.size - 4
        records = []
        for bid in bucket_ids:
            if bid in buckets:
                bits = int(bytes(reversed(buckets[bid].valid)).translate(_BIT_DIGITS), 2)
                records.append(pack(bid, bits.to_bytes(width, "little")))
        return b"".join(records)

    def apply_valid_map(self, blob: bytes) -> None:
        """Restore checkpointed valid bits.

        The map is stored in the clear and not authenticated, so its shape
        is checked and a malformed map raises ``ValueError``: a length that
        is not a whole number of records, a record for a bucket with no
        metadata row, or a bit set past the bucket's slots.  A checkpoint's
        valid records cover the same buckets as its metadata rows; skipping a
        bad record would leave slots the server already saw read marked
        valid — a second read of the same slot.
        """
        record = self._valid_record
        if len(blob) % record.size:
            raise ValueError(f"valid map of {len(blob)} bytes is not a whole "
                             f"number of {record.size}-byte records")
        slots = self.z_real + self.s_dummies
        for bid, bitmap in record.iter_unpack(blob):
            meta = self._buckets.get(bid)
            if meta is None:
                raise ValueError(f"valid map names bucket {bid}, "
                                 f"which has no metadata row")
            bits = int.from_bytes(bitmap, "little")
            if bits >> slots:
                raise ValueError(f"valid map for bucket {bid} sets bits past "
                                 f"its {slots} slots")
            meta.set_valid_map([digit == "1" for digit in reversed(f"{bits:0{slots}b}")])
