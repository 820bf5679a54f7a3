"""Property-based tests: the bucket columns against per-slot references.

Two properties.  The kept valid-dummy list ≡ a scan of the slots:

:class:`repro.oram.metadata.BucketMeta` keeps the ascending list of its
valid dummy slots beside the slot columns instead of re-scanning them on
every path read.  Contents *and order* must equal the scan at all times —
the ORAM's RNG draws index into that list, so a divergence would move every
later draw.  The driver below plays the ORAM's discipline (a block consumed
from the tree goes to the stash, only stash blocks are placed), so the
single-live-copy invariant can be asserted alongside.

And the checkpoint bytes are frozen: ``RecoveryManager`` advances the
simulated clock by checkpoint size, so the encoding is part of the model.
A per-slot model kept by the test, encoded field by field with
``struct.pack`` in the fixed-width layout, must give the same bytes as the
columns after any sequence of slot operations.
"""

import random
import struct
from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from repro.oram.metadata import MetadataTable

Z, S, BUCKETS, BLOCKS = 3, 4, 7, 12

STEPS = st.lists(
    st.tuples(st.sampled_from(["invalidate", "forget", "rewrite", "valid_map",
                               "round_trip"]),
              st.integers(0, BUCKETS - 1), st.integers(0, 1 << 16)),
    max_size=80)


def valid_record(bucket_id, valids):
    """One valid-map record, packed slot by slot: bucket id, then bit i = slot i."""
    bits = 0
    for index, valid in enumerate(valids):
        bits |= int(valid) << index
    return struct.pack("<I", bucket_id) + bits.to_bytes((Z + S + 7) // 8, "little")


def restored(table, rng=None):
    """A table rebuilt from ``table``'s full checkpoint: rows, then valid map."""
    replica = MetadataTable(BUCKETS, Z, S, rng=rng)
    replica.apply_delta(table.serialize_full())
    replica.apply_valid_map(table.serialize_valid_map())
    return replica


def scanned_valid_dummies(meta):
    """The reference: what ``valid_dummy_slots`` computed before the list was kept."""
    return [i for i in range(len(meta.blocks)) if meta.blocks[i] is None and meta.valid[i]]


def check(table, stash):
    live = Counter()
    for bucket_id in table.buckets_present():
        meta = table.bucket(bucket_id)
        assert meta.valid_dummy_slots() == scanned_valid_dummies(meta), bucket_id
        live.update(meta.valid_real_block_ids())
    # Single live copy: a block is in the stash or in exactly one valid slot.
    assert all(copies == 1 for copies in live.values()), live
    assert not stash & set(live)
    assert stash | set(live) == set(range(BLOCKS))


@given(STEPS, st.integers(0, 2 ** 32))
def test_kept_dummy_list_equals_scan_and_blocks_stay_single(steps, seed):
    table = MetadataTable(BUCKETS, Z, S, rng=random.Random(seed))
    stash = set(range(BLOCKS))                  # blocks not live in the tree
    for op, bucket_id, pick in steps:
        meta = table.bucket(bucket_id)
        if op == "invalidate":
            valid = [i for i, still_valid in enumerate(meta.valid) if still_valid]
            if not valid:
                continue
            index = valid[pick % len(valid)]
            if meta.blocks[index] is not None:
                stash.add(meta.blocks[index])               # read into the stash
            meta.invalidate(index)
        elif op == "forget":                    # a dummiless write of the block
            block_id = pick % BLOCKS
            for present in table.buckets_present():
                table.bucket(present).forget(block_id)
            stash.add(block_id)
        elif op == "rewrite":                   # drain, then place from the stash
            stash.update(meta.valid_real_block_ids())
            placed = sorted(stash)[:pick % (Z + 1)]
            stash.difference_update(placed)
            table.rewrite_bucket(bucket_id, [(block_id, b"") for block_id in placed])
        elif op == "valid_map":
            # A checkpointed valid map is at least as recent as the layout it
            # is applied to, so it can only have consumed more slots.
            valids = [was and not (pick >> i) & 1 for i, was in enumerate(meta.valid)]
            stash.update(block for block, was, valid in zip(meta.blocks, meta.valid, valids)
                         if was and not valid and block is not None)
            table.apply_valid_map(valid_record(bucket_id, valids))
        else:                                   # full checkpoint -> fresh table
            table = restored(table, rng=random.Random(seed))
        check(table, stash)


# --------------------------------------------------------------------------- #
# Checkpoint bytes: columns ≡ a per-slot reference encoder
# --------------------------------------------------------------------------- #
class SlotModel:
    """The test's own record of every bucket: one ``[block_id, valid]`` per slot."""

    def __init__(self, table):
        self.buckets = {}
        self.dirty = set()
        for bucket_id in table.buckets_present():
            self.rewritten(table.bucket(bucket_id))

    def rewritten(self, meta):
        self.buckets[meta.bucket_id] = {
            "slots": [[block, True] for block in meta.blocks],
            "reads": 0, "version": meta.version}
        self.dirty.add(meta.bucket_id)

    # The reference encoders: every field and slot packed on its own.
    def row(self, bucket_id):
        record = self.buckets[bucket_id]
        row = struct.pack("<I", bucket_id) + struct.pack("<I", record["version"]) \
            + struct.pack("<I", record["reads"])
        for block, _ in record["slots"]:
            row += struct.pack("<I", 0xFFFFFFFF if block is None else block)
        return row

    def full(self):
        return b"".join(self.row(b) for b in sorted(self.buckets))

    def delta(self):
        return b"".join(self.row(b) for b in sorted(self.dirty))

    def valid_map(self, bucket_ids):
        return b"".join(valid_record(b, [slot[1] for slot in self.buckets[b]["slots"]])
                        for b in bucket_ids)


BYTES_STEPS = st.lists(
    st.tuples(st.sampled_from(["invalidate", "forget", "rewrite", "valid_map",
                               "checkpoint"]),
              st.integers(0, BUCKETS - 1), st.integers(0, 1 << 16)),
    max_size=60)


@given(BYTES_STEPS, st.integers(0, 2 ** 32))
def test_checkpoint_bytes_equal_the_per_slot_encoding(steps, seed):
    table = MetadataTable(BUCKETS, Z, S, rng=random.Random(seed))
    for bucket_id in range(0, BUCKETS, 2):          # the rest appear on first use
        table.rewrite_bucket(bucket_id, [(bucket_id, b"")])
    model = SlotModel(table)
    replica = restored(table)
    table.clear_dirty()
    model.dirty.clear()

    for op, bucket_id, pick in steps:
        known = bucket_id in model.buckets
        meta = table.bucket(bucket_id)
        if not known:
            model.rewritten(meta)
        record = model.buckets[bucket_id]
        if op == "invalidate":
            index = pick % (Z + S)
            if not meta.valid[index]:
                continue
            meta.invalidate(index)
            meta.reads_since_write += 1
            record["slots"][index][1] = False
            record["reads"] += 1
        elif op == "forget":                    # nulls consumed copies as well
            recorded = [slot[0] for slot in record["slots"] if slot[0] is not None]
            block_id = recorded[pick % len(recorded)] if recorded else 0
            assert meta.forget(block_id) == bool(recorded)
            for slot in record["slots"]:
                if slot[0] == block_id:
                    slot[0] = None
        elif op == "rewrite":
            contents = [(BUCKETS + (pick + i) % BLOCKS, b"") for i in range(pick % (Z + 1))]
            model.rewritten(table.rewrite_bucket(bucket_id, contents))
        elif op == "valid_map":
            valids = [was and not (pick >> i) & 1 for i, was in enumerate(meta.valid)]
            meta.set_valid_map([int(valid) for valid in valids])    # ints in, bools kept
            for slot, valid in zip(record["slots"], valids):
                slot[1] = valid
        else:                                   # an epoch boundary: delta + valid map
            delta = table.serialize_delta()
            valid_blob = table.serialize_valid_map(table.dirty_buckets())
            assert delta == model.delta()
            assert valid_blob == model.valid_map(sorted(model.dirty))
            assert replica.apply_delta(delta) == len(model.dirty)
            replica.apply_valid_map(valid_blob)
            assert replica.serialize_full() == table.serialize_full()
            assert replica.serialize_valid_map() == table.serialize_valid_map()
            table.clear_dirty()
            model.dirty.clear()
            continue
        table.mark_dirty(bucket_id)
        model.dirty.add(bucket_id)

        assert table.serialize_full() == model.full()
        assert table.serialize_delta() == model.delta()
        assert table.serialize_valid_map() == model.valid_map(sorted(model.buckets))
        replica_now = restored(table)
        assert replica_now.serialize_full() == model.full()
        assert replica_now.serialize_valid_map() == model.valid_map(sorted(model.buckets))
        assert [replica_now.bucket(b).valid_dummy_slots() for b in sorted(model.buckets)] \
            == [table.bucket(b).valid_dummy_slots() for b in sorted(model.buckets)]
