"""Tests for the Ring ORAM planner, run by the epoch executor one logical
operation per epoch (``tests.conftest.OneOpPerEpoch``)."""

import random
import struct

import pytest

from repro.oram import path_math
from repro.oram.crypto import CipherSuite, IntegrityError, freshness_context
from repro.oram.dependency import simulate_parallel_read_batch, simulate_parallel_write_batch
from repro.oram.metadata import NO_BLOCK
from repro.oram.ring_oram import BucketRewrite, RingOram
from repro.sim.latency import CpuCostModel, LatencyModel, get_latency_model

from tests.conftest import (OneOpPerEpoch, slot_storage_key, stored_versions, tree_slot_key,
                            valid_blocks)


def plant(oram, bucket_id, slot_index, block_id, valid):
    """Overwrite one slot's record, the way restoring a checkpoint delta does:
    the bucket's metadata row, then its valid-map record."""
    meta = oram.metadata.bucket(bucket_id)
    blocks = [NO_BLOCK if block is None else block for block in meta.blocks]
    valids = list(meta.valid)
    blocks[slot_index], valids[slot_index] = block_id, valid
    oram.metadata.apply_delta(struct.pack(f"<III{len(blocks)}I", bucket_id, meta.version,
                                          meta.reads_since_write, *blocks))
    bits = sum(1 << index for index, still_valid in enumerate(valids) if still_valid)
    oram.metadata.apply_valid_map(struct.pack("<I", bucket_id)
                                  + bits.to_bytes((len(valids) + 7) // 8, "little"))


class TestBasicCorrectness:
    def test_read_of_unknown_block_returns_none(self):
        db = OneOpPerEpoch()
        assert db.read(3) is None

    def test_write_then_read(self):
        db = OneOpPerEpoch()
        db.write(1, b"hello")
        assert db.read(1) == b"hello"

    def test_overwrite(self):
        db = OneOpPerEpoch()
        db.write(1, b"v1")
        db.write(1, b"v2")
        assert db.read(1) == b"v2"

    def test_many_blocks_roundtrip(self):
        db = OneOpPerEpoch()
        expected = {}
        for block in range(20):
            value = f"value-{block}".encode()
            db.write(block, value)
            expected[block] = value
        for block, value in expected.items():
            assert db.read(block) == value, f"block {block}"

    def test_interleaved_reads_and_writes(self):
        db = OneOpPerEpoch(seed=3)
        rng = random.Random(5)
        reference = {}
        for step in range(150):
            block = rng.randrange(16)
            if rng.random() < 0.5 or block not in reference:
                value = f"{step}".encode()
                db.write(block, value)
                reference[block] = value
            else:
                assert db.read(block) == reference[block]

    def test_write_heavy_mix_preserves_correctness(self):
        # Writes are dummiless: most land in the stash and reach the tree
        # only through evictions.
        db = OneOpPerEpoch(seed=1)
        rng = random.Random(9)
        reference = {}
        for step in range(150):
            block = rng.randrange(16)
            if rng.random() < 0.6 or block not in reference:
                value = f"d{step}".encode()
                db.write(block, value)
                reference[block] = value
            else:
                assert db.read(block) == reference[block]

    def test_bulk_load_roundtrip(self):
        db = OneOpPerEpoch(seed=2)
        data = {block: f"bulk-{block}".encode() for block in range(30)}
        db.oram.bulk_load(data)
        for block, value in data.items():
            assert db.read(block) == value


class TestInvariants:
    def test_path_invariant_holds_after_accesses(self):
        db = OneOpPerEpoch(seed=4)
        oram = db.oram
        for block in range(16):
            db.write(block, bytes([block]))
        for _ in range(100):
            db.read(random.Random(7).randrange(16))
        # Every mapped block is either in the stash or recorded in a bucket on
        # its assigned path.
        for block in range(16):
            leaf = oram.position_map.lookup(block)
            if leaf is None or block in oram.stash:
                continue
            on_path = []
            for bid in path_math.path_buckets(leaf, oram.params.depth):
                if block in valid_blocks(oram.metadata.bucket(bid)):
                    on_path.append(bid)
            assert on_path, f"block {block} not found on its path"

    def test_remap_after_every_access(self):
        db = OneOpPerEpoch(seed=6)
        db.write(1, b"v")
        seen = set()
        for _ in range(20):
            db.read(1)
            seen.add(db.oram.position_map.lookup(1))
        assert len(seen) > 1

    def test_eviction_counter_advances_every_a_accesses(self):
        db = OneOpPerEpoch(seed=1, a=3)
        for block in range(9):
            db.write(block, b"v")
        assert db.oram.eviction_count == 3

    def test_stash_stays_bounded(self):
        db = OneOpPerEpoch(seed=8)
        rng = random.Random(3)
        for step in range(300):
            db.write(rng.randrange(32), bytes([step % 250]))
        assert len(db.oram.stash) <= 4 * db.oram.params.z_real + db.oram.params.z_real

    def test_bucket_slots_never_read_twice_between_rewrites(self):
        db = OneOpPerEpoch(seed=5)
        for block in range(16):
            db.write(block, bytes([block]))
        rng = random.Random(11)
        for _ in range(120):
            db.read(rng.randrange(16))
        from repro.analysis import check_bucket_invariant
        assert check_bucket_invariant(db.storage.trace) == []

    def test_forget_tree_copy_removes_stale_entry(self):
        db = OneOpPerEpoch(seed=9)
        oram = db.oram
        db.write(1, b"v")
        # Force the block out of the stash into the tree.
        for block in range(2, 14):
            db.write(block, bytes([block]))
        leaf = oram.position_map.lookup(1)
        holders_before = [bid for bid in path_math.path_buckets(leaf, oram.params.depth)
                          if 1 in oram.metadata.bucket(bid).blocks]
        if holders_before:
            oram.forget_tree_copy(1)
            holders_after = [bid for bid in path_math.path_buckets(leaf, oram.params.depth)
                             if 1 in valid_blocks(oram.metadata.bucket(bid))]
            assert holders_after == []

    def test_forget_tree_copy_clears_copy_shadowed_by_consumed_slot(self):
        """Regression: a consumed (invalid) slot must not shadow the live copy.

        Invalidated slots keep their block id until their bucket is
        rewritten.  ``forget_tree_copy`` used to stop at the first slot whose
        id matched — so a consumed slot near the root (the root is on every
        path) hid the block's *valid* copy deeper on the path.  The missed
        copy would later be drained by an eviction and resurrect its stale
        value over the freshly written one: a lost update.
        """
        oram = OneOpPerEpoch(seed=9, depth=3).oram
        leaf = 5
        path = path_math.path_buckets(leaf, oram.params.depth)
        oram.position_map._positions[1] = leaf
        # Consumed slot in the root still records block 1 ...
        plant(oram, path[0], 0, block_id=1, valid=False)
        # ... while the live copy sits in the leaf-level bucket.
        plant(oram, path[-1], 0, block_id=1, valid=True)

        oram.forget_tree_copy(1)

        for bid in path:
            meta = oram.metadata.bucket(bid)
            assert 1 not in meta.blocks, bid
        # The consumed root slot stays consumed; the live copy's slot is now
        # a dummy that reads may pick.
        assert 0 not in oram.metadata.bucket(path[0]).valid_dummy_slots()
        assert 0 in oram.metadata.bucket(path[-1]).valid_dummy_slots()

    def test_rewrite_after_forget_does_not_resurrect_stale_value(self):
        """End-to-end shape of the lost update the shadow bug caused.

        Drive the ORAM until block 1 has a valid tree copy, plant a consumed
        decoy slot for it in the root, overwrite the block, then force enough
        traffic that evictions drain the old copy's bucket.  The read must
        return the new value, never the resurrected old one.
        """
        db = OneOpPerEpoch(seed=21, depth=3)
        oram = db.oram
        db.write(1, b"old")
        for block in range(2, 12):
            db.write(block, bytes([block]))
        leaf = oram.position_map.lookup(1)
        path = path_math.path_buckets(leaf, oram.params.depth)
        holders = [bid for bid in path
                   if 1 in valid_blocks(oram.metadata.bucket(bid))]
        if not holders or 1 in oram.stash:
            pytest.skip("seed did not evict block 1 into the tree")
        # Plant the decoy strictly above the live copy on the path.
        decoy_levels = [bid for bid in path
                        if path_math.bucket_level(bid)
                        < path_math.bucket_level(holders[0])]
        decoy = oram.metadata.bucket(decoy_levels[-1])
        dummies = [i for i, block in enumerate(decoy.blocks) if block is None]
        free = [i for i in dummies if not decoy.valid[i]] or dummies
        plant(oram, decoy.bucket_id, free[0], block_id=1, valid=False)

        db.write(1, b"new")
        # The dummiless write moved block 1 to the stash (or an immediate
        # eviction already re-placed it).  Either way the old tree copy must
        # be gone: block 1 lives in exactly one place, or a later drain
        # would resurrect b"old".
        copies = [bid for bid in range(oram.params.num_buckets)
                  if 1 in valid_blocks(oram.metadata.bucket(bid))]
        if 1 in oram.stash:
            assert copies == []
        else:
            assert len(copies) == 1
        rng = random.Random(13)
        for step in range(120):
            db.write(rng.randrange(2, 12), bytes([step % 250]))
        assert db.read(1) == b"new"


class TestCheckInvariants:
    """``RingOram.check_invariants`` passes a working tree and names each
    violation planted into one."""

    @pytest.fixture
    def db(self):
        db = OneOpPerEpoch(seed=4)
        db.oram.bulk_load({block: bytes([block]) for block in range(40)})
        rng = random.Random(2)
        for step in range(60):
            block = rng.randrange(48)
            if step % 2:
                db.write(block, bytes([step]))
            else:
                db.read(block)
        assert db.oram.check_invariants() == []
        return db

    @staticmethod
    def live_block(oram):
        """A block in a valid slot below the root: ``(block, bucket, slot)``."""
        for bid in oram.metadata.buckets_present()[::-1]:
            meta = oram.metadata.bucket(bid)
            for slot, (block, valid) in enumerate(zip(meta.blocks, meta.valid)):
                if block is not None and valid:
                    return block, bid, slot
        raise AssertionError("no live block")

    def test_a_second_live_copy_is_named(self, db):
        block, bucket, _ = self.live_block(db.oram)
        root = db.oram.metadata.bucket(0)
        plant(db.oram, 0, root.valid_dummy_slots()[0], block, True)
        assert f"block {block} is live in buckets 0 and {bucket}" in db.oram.check_invariants()

    def test_a_live_copy_beside_the_stash_is_named(self, db):
        block, bucket, _ = self.live_block(db.oram)
        db.oram.stash.put(block, db.oram.position_map.lookup(block), b"x")
        assert (f"block {block} is in the stash and live in bucket {bucket}"
                in db.oram.check_invariants())

    def test_a_bucket_over_z_is_named(self, db):
        oram = db.oram
        bucket = oram.metadata.buckets_present()[-1]
        for slot in range(oram.params.slots_per_bucket):
            if oram.metadata.bucket(bucket).blocks[slot] is None:
                plant(oram, bucket, slot, 1000 + slot, False)
        recorded = oram.params.slots_per_bucket
        assert (f"bucket {bucket} records {recorded} real blocks, Z={oram.params.z_real}"
                in oram.check_invariants())

    def test_a_block_off_its_path_is_named(self, db):
        oram = db.oram
        block, bucket, _ = self.live_block(oram)
        leaf = oram.position_map.lookup(block) ^ (oram.params.num_leaves - 1)
        oram.position_map._positions[block] = leaf
        assert (f"block {block} in bucket {bucket} is off the path of its leaf {leaf}"
                in oram.check_invariants())

    def test_a_stash_entry_on_another_leaf_is_named(self, db):
        oram = db.oram
        leaf = oram.position_map.lookup_or_assign(2000)
        oram.stash.put(2000, leaf ^ 1, b"x")
        assert (f"stash block 2000 is mapped to leaf {leaf ^ 1}, the position map says {leaf}"
                in oram.check_invariants())

    def test_a_stash_past_its_bound_is_named(self, db):
        oram = db.oram
        bound = oram.params.stash_bound
        for block in range(3000, 3000 + bound + 1 - len(oram.stash)):
            oram.stash.put(block, oram.position_map.lookup_or_assign(block), b"x")
        assert oram.check_invariants() == [
            f"the stash holds {bound + 1} blocks, its bound is {bound}"]


class TestPhysicalBehaviour:
    def test_a_versions_keys_are_built_once_with_the_namespace(self):
        # ``seal_rewrites`` formats a version's keys, namespace first, and
        # keeps them: reads, deletes and replay pass these very objects on.
        db = OneOpPerEpoch()
        oram = RingOram(db.oram.params, db.storage, cipher=CipherSuite(block_size=72),
                        clock=db.storage.clock, seed=0, key_prefix="g1/p2/")
        items = oram.seal_rewrites([BucketRewrite(bucket_id=5, version=2,
                                                  slot_blocks=[None] * 10, plain_contents={})])
        kept = oram.slot_keys(5, 2)
        assert list(items) == kept == [f"g1/p2/oram/5/v2/s/{slot}" for slot in range(10)]
        assert all(key is mine for key, mine in zip(items, kept))
        assert oram.slot_keys(5, 7) is kept        # the version on the server, kept
        # A bucket never written (or a restored tree) builds its list on the
        # first miss, and keeps it.
        missed = oram.slot_keys(6, 0)
        assert missed == [f"g1/p2/oram/6/v0/s/{slot}" for slot in range(10)]
        assert oram.slot_keys(6, 0) is missed

    def test_path_read_touches_one_slot_per_level(self):
        # A is large enough that the read triggers no eviction.
        db = OneOpPerEpoch(a=100)
        db.read(1)
        assert db.executor.stats.physical_reads == db.oram.params.depth + 1
        assert db.executor.stats.evictions == db.executor.stats.early_reshuffles == 0

    def test_shadow_paging_creates_new_versions(self):
        db = OneOpPerEpoch()
        for block in range(12):
            db.write(block, b"v")
        root = db.oram.metadata.bucket(0).version
        assert root >= 2   # the root has been rewritten at least twice
        # ... and the server keeps only its latest version.
        assert stored_versions(db.storage)[0] == {root: db.oram.params.slots_per_bucket}

    @pytest.mark.parametrize("enabled", [True, False])
    def test_bulk_load_charges_the_sequential_block_cost_per_slot_written(self, enabled):
        # Every engine's simulated clock starts from this charge.
        db = OneOpPerEpoch(cipher=CipherSuite(block_size=72, enabled=enabled))
        db.oram.bulk_load({block: b"v" for block in range(30)})
        per_slot = db.oram.cost_model.sequential_block_cost_ms(enabled)
        assert db.storage.stats_writes > 0
        assert db.oram.clock.now_ms == per_slot * db.storage.stats_writes

    def test_clock_advances_with_accesses(self):
        db = OneOpPerEpoch(backend="server")
        db.write(1, b"v")
        db.read(2)      # block 1 would be served from the stash
        assert db.oram.clock.now_ms > 0.0

    def test_a_store_call_is_timed_after_it_returns(self):
        """Trace rows carry the time the call was issued; the round trips
        are charged once it returns."""
        db = OneOpPerEpoch(backend="server_wan")
        db.read(1)
        times = [event.time_ms for event in db.storage.trace.events]
        assert len(times) == db.oram.params.depth + 1
        assert set(times) == {0.0}
        assert db.oram.clock.now_ms > 10.0 * len(times)

    def test_deterministic_given_seed(self):
        first, second = OneOpPerEpoch(seed=123), OneOpPerEpoch(seed=123)
        for block in range(10):
            first.write(block, bytes([block]))
            second.write(block, bytes([block]))
        assert first.oram.position_map.serialize_full() == \
            second.oram.position_map.serialize_full()
        assert first.oram.eviction_count == second.oram.eviction_count

    def test_real_slot_the_store_lost_is_rejected_not_read_as_never_written(self):
        db = OneOpPerEpoch()
        db.oram.bulk_load({block: b"v%d" % block for block in range(8)})
        block = next(b for b in range(8) if b not in db.oram.stash)
        lost = tree_slot_key(db.oram, block)
        db.storage.delete_batch([lost])
        with pytest.raises(IntegrityError, match=lost):
            db.read(block)


#: A backend with no network at all: all it is charged is the proxy's CPU.
NO_NETWORK = LatencyModel(name="none", read_rtt_ms=0.0, write_rtt_ms=0.0)
#: A proxy whose CPU is free: all it is charged is the store's round trips.
NO_CPU = CpuCostModel(crypto_per_block_ms=0.0, metadata_per_block_ms=0.0,
                      coordination_per_block_ms=0.0)


class TestSequentialTiming:
    """Figure 10a's sequential baseline is the executor with one request in
    flight: a batch costs the serial sum of its requests, a round trip per
    slot read and one per bucket written, plus the proxy's CPU per slot.
    With more in flight, round trips come in waves of the usable
    parallelism."""

    def _elapsed(self, backend):
        db = OneOpPerEpoch(backend=backend, buffer_writes=False)
        for block in range(6):
            db.write(block, b"v")
        db.read(3)
        return db.oram.clock.now_ms

    def test_dummy_backend_charges_no_round_trips(self):
        assert self._elapsed("dummy") == self._elapsed(NO_NETWORK) > 0.0

    def test_wan_slower_than_lan(self):
        assert self._elapsed("dummy") < self._elapsed("server") < self._elapsed("server_wan")

    def test_path_read_pays_one_round_trip_per_slot(self):
        timed, untimed = OneOpPerEpoch(backend="server"), OneOpPerEpoch(backend="dummy")
        timed.read(1)
        untimed.read(1)
        slots = timed.executor.stats.physical_reads
        cost = timed.oram.cost_model
        assert slots == timed.oram.params.depth + 1
        assert untimed.oram.clock.now_ms == pytest.approx(slots * (
            cost.metadata_per_block_ms + cost.coordination_per_block_ms
            + cost.crypto_per_block_ms))
        assert timed.oram.clock.now_ms - untimed.oram.clock.now_ms == pytest.approx(
            slots * 0.3 + slots * 0.002)

    def test_bucket_write_pays_one_round_trip(self):
        db = OneOpPerEpoch(backend="server_wan", buffer_writes=False, a=1)
        db.write(1, b"v")                   # evicts one path, bucket by bucket
        cost, params = db.oram.cost_model, db.oram.params
        per_bucket = 10.0 + params.slots_per_bucket * (
            0.002 + cost.crypto_per_block_ms + cost.metadata_per_block_ms)
        assert db.executor.stats.evictions == 1
        assert db.executor.stats.write_time_ms == pytest.approx(
            (params.depth + 1) * per_bucket)

    @staticmethod
    def _round_trips(requests, parallelism, is_write, backend="dynamo"):
        """Time ``requests`` one-slot requests to distinct buckets, CPU free."""
        latency = get_latency_model(backend)
        if is_write:
            return simulate_parallel_write_batch(dict.fromkeys(range(requests), 1),
                                                 latency, parallelism, NO_CPU)
        return simulate_parallel_read_batch(list(range(requests)), latency,
                                            parallelism, NO_CPU)

    # Each wave is one round trip plus one request's service time.
    @pytest.mark.parametrize("requests,parallelism,is_write,expected", [
        (3, 1, False, 3 * 1.0 + 0.0125 * 3),
        (100, 32, False, 4 * 1.0 + 0.0125 * 4),
        (100, 1024, False, 2 * 1.0 + 0.0125 * 2),   # dynamo serves 64 at once
        (2, 1, True, 2 * 3.0 + 0.0125 * 2),
        (0, 1, True, 0.0),
    ])
    def test_round_trips_come_in_waves_of_the_usable_parallelism(
            self, requests, parallelism, is_write, expected):
        assert self._round_trips(requests, parallelism, is_write) == pytest.approx(expected)

    def test_no_latency_charges_nothing(self):
        assert self._round_trips(100, 1, False, NO_NETWORK) == 0.0


class TestSealRewrites:
    REWRITES = [
        BucketRewrite(bucket_id=3, version=2, slot_blocks=[None, 5, None, 9, None],
                      plain_contents={5: b"five", 9: b"nine"}),
        BucketRewrite(bucket_id=4, version=1, slot_blocks=[None, None, 7],
                      plain_contents={7: b"seven"}),
    ]

    @staticmethod
    def sealed_with_a_context_per_slot(cipher, rewrites):
        """Reference: every slot sealed under its own freshness context."""
        items = {}
        for rewrite in rewrites:
            sealed = cipher.seal_blocks([
                (block, rewrite.plain_contents.get(block, b""),
                 freshness_context(rewrite.bucket_id, rewrite.version, slot))
                for slot, block in enumerate(rewrite.slot_blocks)])
            for slot, blob in enumerate(sealed):
                items[slot_storage_key(rewrite.bucket_id, rewrite.version, slot)] = blob
        return items

    @pytest.mark.parametrize("suite", [dict(enabled=False), dict(authenticated=False)])
    def test_cipher_that_binds_no_context_seals_the_same_items_without_one(
            self, suite, monkeypatch):
        monkeypatch.setattr("repro.oram.crypto.ssl.RAND_bytes", lambda n: b"\x07" * n)
        oram = OneOpPerEpoch().oram
        oram.cipher = CipherSuite(key=b"k" * 32, block_size=72, **suite)
        assert not oram.cipher.binds_context
        items = oram.seal_rewrites(self.REWRITES)
        assert items == self.sealed_with_a_context_per_slot(oram.cipher, self.REWRITES)
        assert list(items) == [slot_storage_key(3, 2, slot) for slot in range(5)] + [
            slot_storage_key(4, 1, slot) for slot in range(3)]

    def test_default_suite_binds_every_slot_to_its_own_position_and_version(self):
        oram = OneOpPerEpoch().oram
        assert oram.cipher.binds_context
        items = oram.seal_rewrites(self.REWRITES)
        for rewrite in self.REWRITES:
            bucket, version = rewrite.bucket_id, rewrite.version
            for slot, block in enumerate(rewrite.slot_blocks):
                blob = items[slot_storage_key(bucket, version, slot)]
                assert len(blob) == oram.cipher.ciphertext_size
                wrong = [(bucket + 1, version, slot), (bucket, version + 1, slot),
                         (bucket, version, slot + 1)]
                if block is None:
                    wrong.append((bucket, version, slot))       # a dummy opens nowhere
                else:
                    assert oram.cipher.open_block(
                        blob, freshness_context(bucket, version, slot)) == (
                            block, rewrite.plain_contents[block])
                for position in wrong:
                    with pytest.raises(IntegrityError):
                        oram.cipher.open_block(blob, freshness_context(*position))

    def test_dummy_slots_are_fresh_random_bytes_nobody_opens(self):
        oram = OneOpPerEpoch().oram
        rewrite = self.REWRITES[0]
        next_version = BucketRewrite(bucket_id=rewrite.bucket_id, version=rewrite.version + 1,
                                     slot_blocks=list(rewrite.slot_blocks),
                                     plain_contents=dict(rewrite.plain_contents))
        dummies = []
        for version in (rewrite, next_version):
            items = oram.seal_rewrites([version])
            for slot, block in enumerate(version.slot_blocks):
                if block is None:
                    blob = items[slot_storage_key(version.bucket_id, version.version, slot)]
                    assert len(blob) == oram.cipher.ciphertext_size
                    with pytest.raises(IntegrityError):
                        oram.cipher.open_block(
                            blob, freshness_context(version.bucket_id, version.version, slot))
                    dummies.append(blob)
        # Two versions of one bucket share no dummy bytes, nor do two slots.
        assert len(dummies) == 6 and len(set(dummies)) == 6
