"""Property-based tests: the kept valid-dummy list ≡ a scan of the slots.

:class:`repro.oram.metadata.BucketMeta` keeps the ascending list of its
valid dummy slots beside the slot records instead of re-scanning them on
every path read.  Contents *and order* must equal the scan at all times —
the ORAM's RNG draws index into that list, so a divergence would move every
later draw.  The driver below plays the ORAM's discipline (a block consumed
from the tree goes to the stash, only stash blocks are placed), so the
single-live-copy invariant can be asserted alongside.
"""

import json
import random
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


def scanned_valid_dummies(meta):
    """The reference: what ``valid_dummy_slots`` computed before the list was kept."""
    return [i for i, s in enumerate(meta.slots) if s.block_id is None and s.valid]


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
            valid = [i for i, s in enumerate(meta.slots) if s.valid]
            if not valid:
                continue
            index = valid[pick % len(valid)]
            if meta.slots[index].block_id is not None:
                stash.add(meta.slots[index].block_id)       # read into the stash
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
            valids = [s.valid and not (pick >> i) & 1 for i, s in enumerate(meta.slots)]
            stash.update(s.block_id for s, valid in zip(meta.slots, valids)
                         if s.valid and not valid and s.block_id is not None)
            table.apply_valid_map(json.dumps({str(bucket_id): valids}).encode())
        else:                                   # to_row -> json -> from_row
            table = MetadataTable.deserialize_full(table.serialize_full(),
                                                   rng=random.Random(seed))
        check(table, stash)
