"""Tests for the epoch-based parallel ORAM executor."""

import random

import pytest

from repro.oram import path_math
from repro.oram.crypto import CipherSuite, IntegrityError
from repro.oram.ring_oram import slot_storage_key
from repro.oram.stash import StashReason
from repro.storage.backend import StorageOp

from tests.conftest import OneOpPerEpoch, live_versions, stored_versions, tree_slot_key


class CountingCipher(CipherSuite):
    """Counts bucket seals and the slots that go through the keystream.

    Every bucket written is one ``seal_blocks`` call; of its slots only the
    real ones reach ``encrypt_many``, the dummies are random bytes.
    """

    def __post_init__(self):
        super().__post_init__()
        self.seal_calls = 0         # buckets sealed
        self.sealed_slots = 0       # their slots, real and dummy
        self.real_slots = 0         # their slots that hold a real block
        self.keystream_slots = 0    # slots encrypted

    def seal_blocks(self, entries):
        self.seal_calls += 1
        self.sealed_slots += len(entries)
        self.real_slots += sum(block_id is not None for block_id, _, _ in entries)
        return super().seal_blocks(entries)

    def encrypt_many(self, plaintexts, contexts=None):
        self.keystream_slots += len(plaintexts)
        return super().encrypt_many(plaintexts, contexts)


def make_executor(seed=0, backend="server", parallelism=64, **tree):
    """``(executor, oram, storage)`` of a tiny tree; ``tree`` as ``OneOpPerEpoch``."""
    db = OneOpPerEpoch(seed=seed, backend=backend, parallelism=parallelism, **tree)
    return db.executor, db.oram, db.storage


class TestCorrectness:
    def test_write_then_read_across_epochs(self):
        executor, _, _ = make_executor()
        executor.begin_epoch()
        executor.execute_write_batch({1: b"alpha", 2: b"beta"})
        executor.flush_epoch()
        executor.begin_epoch()
        values = executor.execute_read_batch([1, 2], batch_size=4)
        executor.flush_epoch()
        assert values[1] == b"alpha"
        assert values[2] == b"beta"

    def test_read_of_unknown_block_is_none(self):
        executor, _, _ = make_executor()
        executor.begin_epoch()
        values = executor.execute_read_batch([9], batch_size=2)
        executor.flush_epoch()
        assert values[9] is None

    def test_padding_entries_do_not_produce_results(self):
        executor, _, _ = make_executor()
        executor.begin_epoch()
        values = executor.execute_read_batch([1], batch_size=8)
        executor.flush_epoch()
        assert set(values) == {1}

    def test_multi_epoch_random_workload_matches_reference(self):
        executor, _, _ = make_executor(seed=3)
        rng = random.Random(17)
        reference = {}
        for _epoch in range(6):
            executor.begin_epoch()
            reads = [rng.randrange(20) for _ in range(6)]
            values = executor.execute_read_batch(reads, batch_size=8)
            for block in reads:
                assert values[block] == reference.get(block), f"block {block}"
            writes = {rng.randrange(20): f"e{_epoch}-{i}".encode() for i in range(4)}
            executor.execute_write_batch(writes)
            reference.update(writes)
            executor.flush_epoch()
            executor.collect()

    def test_abort_epoch_discards_buffered_bucket_writes(self):
        # Epoch abort drops the buffered bucket rewrites so nothing from the
        # aborted epoch reaches the untrusted store; rolling the *proxy* state
        # back is the recovery manager's job (the proxy is rebuilt from its
        # checkpoint after a crash).
        executor, _, storage = make_executor()
        executor.begin_epoch()
        executor.execute_write_batch({i: b"will-vanish" for i in range(6)})
        assert executor.pending_bucket_writes() > 0
        executor.abort_epoch()
        assert executor.pending_bucket_writes() == 0
        assert storage.stats_writes == 0

    def test_begin_epoch_requires_flush(self):
        executor, _, _ = make_executor()
        executor.begin_epoch()
        # Enough writes to trigger an eviction and buffer bucket rewrites.
        executor.execute_write_batch({i: b"x" for i in range(6)})
        assert executor.pending_bucket_writes() > 0
        with pytest.raises(RuntimeError):
            executor.begin_epoch()

    def test_stash_hits_served_without_physical_reads(self):
        executor, oram, _ = make_executor()
        executor.begin_epoch()
        executor.execute_write_batch({1: b"cached"})
        executor.flush_epoch()
        # If the block is still in the stash after the flush (mapped there by
        # the dummiless write), a read must not issue new path requests.
        if 1 in oram.stash:
            executor.begin_epoch()
            before = executor.lifetime_stats.physical_reads
            values = executor.execute_read_batch([1], batch_size=1)
            assert values[1] == b"cached"
            assert executor.lifetime_stats.physical_reads == before
            executor.flush_epoch()

    def test_residue_stash_hit_counts_in_lifetime_stats_too(self):
        """Regression: a read served from an *eviction-residue* stash entry —
        the branch after the padded path read — was counted in the epoch's
        ``stash_hits`` but not in ``lifetime_stats``."""
        executor, oram, _ = make_executor()
        per_epoch = []
        for block, reason in ((1, StashReason.LOGICAL_ACCESS),
                              (2, StashReason.EVICTION_RESIDUE)):
            leaf = oram.position_map.lookup_or_assign(block)
            oram.stash.put(block, leaf, b"held", reason)
            executor.begin_epoch()
            before = executor.stats.physical_reads
            assert executor.execute_read_batch([block], batch_size=1) == {block: b"held"}
            # Only the residue entry still costs its dummy path read.
            assert (executor.stats.physical_reads > before) == (
                reason is StashReason.EVICTION_RESIDUE)
            executor.flush_epoch()
            per_epoch.append(executor.stats.stash_hits)
        assert per_epoch == [1, 1]
        assert executor.lifetime_stats.stash_hits == sum(per_epoch)


class TestDeferredWrites:
    def test_no_storage_writes_before_flush(self):
        executor, _, storage = make_executor()
        executor.begin_epoch()
        executor.execute_read_batch([1, 2, 3], batch_size=8)
        executor.execute_write_batch({5: b"x"})
        writes_before_flush = storage.stats_writes
        executor.flush_epoch()
        assert storage.stats_writes > writes_before_flush
        assert writes_before_flush == 0

    def test_write_deduplication_within_epoch(self):
        executor, oram, _ = make_executor(a=2)
        executor.begin_epoch()
        # Enough traffic that the root is rewritten by several evictions.
        executor.execute_read_batch(list(range(12)), batch_size=12)
        executor.execute_write_batch({i: bytes([i]) for i in range(8)})
        saved = executor.stats.buffered_bucket_writes_saved
        pending = executor.pending_bucket_writes()
        executor.flush_epoch()
        assert saved > 0
        assert pending < executor.stats.evictions * (oram.params.depth + 1)

    def test_immediate_mode_writes_during_epoch(self):
        executor, _, storage = make_executor(buffer_writes=False)
        executor.begin_epoch()
        executor.execute_read_batch(list(range(8)), batch_size=8)
        assert storage.stats_writes > 0
        executor.flush_epoch()

    def test_buffered_mode_faster_than_immediate(self):
        buffered, oram_b, _ = make_executor(backend="server_wan", buffer_writes=True)
        immediate, oram_i, _ = make_executor(backend="server_wan", buffer_writes=False)
        for executor, oram in ((buffered, oram_b), (immediate, oram_i)):
            executor.begin_epoch()
            for _ in range(4):
                executor.execute_read_batch(list(range(10)), batch_size=10)
            executor.flush_epoch()
        assert oram_b.clock.now_ms < oram_i.clock.now_ms

    def test_flush_returns_elapsed_and_clears_state(self):
        executor, _, _ = make_executor()
        executor.begin_epoch()
        executor.execute_write_batch({1: b"x", 2: b"y"})
        elapsed = executor.flush_epoch()
        assert elapsed >= 0.0
        assert executor.pending_bucket_writes() == 0


class TestLazySealing:
    """Buckets are sealed where their bytes leave the proxy, and only there."""

    def test_bucket_rewritten_many_times_is_sealed_once_at_flush(self):
        cipher = CountingCipher(block_size=72)
        executor, oram, storage = make_executor(a=2, cipher=cipher)
        executor.begin_epoch()
        executor.execute_read_batch(list(range(12)), batch_size=12)
        executor.execute_write_batch({i: bytes([i]) for i in range(8)})
        assert executor.stats.buffered_bucket_writes_saved > 0
        assert cipher.seal_calls == 0           # nothing sealed inside the epoch
        pending = executor.pending_bucket_writes()
        real = sum(len(rewrite.plain_contents)
                   for rewrite in executor._buffered_rewrites.values())
        executor.flush_epoch()
        assert cipher.seal_calls == pending     # one seal_blocks per surviving bucket
        assert cipher.sealed_slots == storage.stats_writes \
            == pending * (oram.params.z_real + oram.params.s_dummies)
        assert 0 < cipher.keystream_slots == cipher.real_slots == real < cipher.sealed_slots

    def test_aborted_epoch_seals_nothing(self):
        cipher = CountingCipher(block_size=72)
        executor, _, storage = make_executor(cipher=cipher)
        executor.begin_epoch()
        executor.execute_write_batch({i: b"will-vanish" for i in range(6)})
        assert executor.pending_bucket_writes() > 0
        executor.abort_epoch()
        executor.begin_epoch()
        assert executor.flush_epoch() == 0.0
        assert cipher.seal_calls == 0
        assert storage.stats_writes == 0

    def test_read_of_intermediate_buffered_version_returns_its_plaintext(self):
        cipher = CountingCipher(block_size=72)
        executor, oram, storage = make_executor(a=2, cipher=cipher)
        written = {i: b"v%d" % i for i in range(12)}
        executor.begin_epoch()
        executor.execute_write_batch(written)
        # Blocks already evicted into buffered — unsealed, unwritten — buckets.
        placed = {block: (rewrite.bucket_id, rewrite.version)
                  for rewrite in executor._buffered_rewrites.values()
                  for block in rewrite.plain_contents}
        targets = sorted(block for block in placed if block not in oram.stash)
        assert targets
        values = executor.execute_read_batch(targets, batch_size=len(targets))
        assert values == {block: written[block] for block in targets}
        assert executor.stats.local_buffer_hits > 0
        # Some of those versions were superseded later in the epoch.
        assert any(executor._buffered_rewrites[bucket].version > version
                   for bucket, version in placed.values())
        assert cipher.seal_calls == 0 and storage.stats_writes == 0
        executor.flush_epoch()
        executor.collect()
        executor.begin_epoch()
        assert executor.execute_read_batch(list(written), batch_size=12) == written
        executor.flush_epoch()

    def test_immediate_mode_seals_and_writes_every_version(self):
        cipher = CountingCipher(block_size=72)
        executor, oram, storage = make_executor(a=2, buffer_writes=False, cipher=cipher)
        executor.begin_epoch()
        executor.execute_read_batch(list(range(12)), batch_size=12)
        executor.execute_write_batch({i: bytes([i]) for i in range(8)})
        rewritten = (executor.stats.evictions * (oram.params.depth + 1)
                     + executor.stats.early_reshuffles)
        assert cipher.seal_calls == rewritten
        assert cipher.sealed_slots == storage.stats_writes \
            == rewritten * (oram.params.z_real + oram.params.s_dummies)
        assert 0 < cipher.keystream_slots == cipher.real_slots < cipher.sealed_slots
        assert executor.pending_bucket_writes() == 0
        assert executor.flush_epoch() == 0.0
        assert cipher.seal_calls == rewritten

    def test_sequential_write_and_bulk_load_seal_what_they_write(self):
        cipher = CountingCipher(block_size=72)
        db = OneOpPerEpoch(cipher=cipher)
        oram, storage = db.oram, db.storage
        loaded = {i: b"bulk-%d" % i for i in range(20)}
        oram.bulk_load(loaded)
        assert cipher.sealed_slots == storage.stats_writes > 0
        # Every loaded block lands in a bucket or in the stash.
        assert cipher.keystream_slots == cipher.real_slots == len(loaded) - len(oram.stash)
        for i in range(20, 26):
            db.write(i, b"seq-%d" % i)
            loaded[i] = b"seq-%d" % i
        assert cipher.sealed_slots == storage.stats_writes
        assert cipher.keystream_slots == cipher.real_slots < cipher.sealed_slots
        assert {i: db.read(i) for i in loaded} == loaded


class TestStorageFaults:
    """A server that replays or relocates authentic slots is caught on read."""

    @staticmethod
    def _block_with_older_version_kept(oram, kept, blocks):
        """(block, bucket, version, slot) of a tree-resident block whose
        bucket's previous version the server kept."""
        for block in blocks:
            if block in oram.stash:
                continue
            for bucket in path_math.path_buckets(oram.position_map.lookup(block),
                                                 oram.params.depth):
                meta = oram.metadata.bucket(bucket)
                slot = meta.slot_of_block(block)
                if slot is not None and \
                        slot_storage_key(bucket, meta.version - 1, slot) in kept:
                    return block, bucket, meta.version, slot
        raise AssertionError("no tree-resident block with an older version kept")

    @staticmethod
    def _run_epochs(executor, storage, epochs=3):
        """Run ``epochs`` write epochs; returns every slot the server ever
        held — a malicious server keeps what it is told to delete."""
        kept = {}
        for epoch in range(epochs):
            executor.begin_epoch()
            executor.execute_write_batch({i: b"e%d-%d" % (epoch, i) for i in range(12)})
            executor.flush_epoch()
            kept.update(storage.snapshot())
            executor.collect()
        return kept

    def test_stale_slot_replayed_under_next_versions_key_is_rejected(self):
        executor, oram, storage = make_executor()
        kept = self._run_epochs(executor, storage)
        block, bucket, version, slot = self._block_with_older_version_kept(
            oram, kept, range(12))
        stale = kept[slot_storage_key(bucket, version - 1, slot)]
        storage.write_batch({slot_storage_key(bucket, version, slot): stale})
        executor.begin_epoch()
        with pytest.raises(IntegrityError):
            executor.execute_read_batch([block], batch_size=1)

    def test_two_slots_of_one_bucket_swapped_is_rejected(self):
        executor, oram, storage = make_executor()
        kept = self._run_epochs(executor, storage)
        block, bucket, version, slot = self._block_with_older_version_kept(
            oram, kept, range(12))
        here = slot_storage_key(bucket, version, slot)
        there = slot_storage_key(bucket, version, (slot + 1) % len(
            oram.metadata.bucket(bucket).blocks))
        data = storage.snapshot()
        storage.write_batch({here: data[there], there: data[here]})
        executor.begin_epoch()
        with pytest.raises(IntegrityError):
            executor.execute_read_batch([block], batch_size=1)

    def test_real_slot_the_store_lost_is_rejected_not_read_as_never_written(self):
        executor, oram, storage = make_executor()
        self._run_epochs(executor, storage)
        block = next(block for block in range(12) if block not in oram.stash)
        lost = tree_slot_key(oram, block)
        storage.delete_batch([lost])
        executor.begin_epoch()
        with pytest.raises(IntegrityError, match=lost):
            executor.execute_read_batch([block], batch_size=1)

    def test_outage_mid_batch_surfaces_and_a_fresh_epoch_works_after_abort(self):
        executor, oram, storage = make_executor()
        self._run_epochs(executor, storage)
        plan_path_read, plans = oram.plan_path_read, []

        def failing_from_the_third_plan(block_id, force_dummy_path=None):
            plans.append(block_id)
            if len(plans) == 3:
                storage.fail()
            return plan_path_read(block_id, force_dummy_path)

        oram.plan_path_read = failing_from_the_third_plan
        executor.begin_epoch()
        with pytest.raises(ConnectionError):
            executor.execute_read_batch([], batch_size=8)
        del oram.plan_path_read

        executor.abort_epoch()
        storage.recover()
        executor.begin_epoch()
        assert executor.execute_read_batch([3, 7], batch_size=4) == {
            3: b"e2-3", 7: b"e2-7"}
        executor.flush_epoch()


class TestHeldBackReads:
    """Reads nobody opens wait for one that is opened, never past their batch."""

    @pytest.mark.parametrize("buffer_writes", [True, False])
    def test_nothing_outlives_its_batch(self, buffer_writes):
        executor, _, storage = make_executor(seed=5, buffer_writes=buffer_writes)

        def reads_sent_by(batch_call, *args, **kwargs):
            """Run one logical batch; every read it counted is in the trace."""
            counted, rows = executor.stats.physical_reads, len(storage.trace)
            written = storage.stats_writes          # immediate mode writes too
            batch_call(*args, **kwargs)
            assert executor._held_back == []
            counted = executor.stats.physical_reads - counted
            assert len(storage.trace) - rows == counted + storage.stats_writes - written
            return counted

        for epoch in range(4):
            executor.begin_epoch()
            for batch in ([1, 2, 30], [], [4]):
                assert reads_sent_by(executor.execute_read_batch, batch, batch_size=8) > 0
            writes = {i: b"w%d" % epoch for i in range(epoch, epoch + 5)}
            assert reads_sent_by(executor.execute_write_batch, writes, batch_size=8) > 0
            executor.flush_epoch()
            executor.collect()

    def test_all_padding_batch_calls_the_store_once_per_maintenance_plus_one(self):
        executor, _, storage = make_executor(seed=5)
        TestStorageFaults._run_epochs(executor, storage)
        read_batch, calls = storage.read_batch, []

        def counting(keys, record_batch=True):
            calls.append(len(keys))
            return read_batch(keys, record_batch=record_batch)

        storage.read_batch = counting
        executor.begin_epoch()
        assert executor.execute_read_batch([None] * 16) == {}
        maintenance = executor.stats.evictions + executor.stats.early_reshuffles
        assert maintenance > 0
        assert len(calls) <= maintenance + 1 < 16
        assert sum(calls) == executor.stats.physical_reads
        executor.flush_epoch()

    def test_abort_epoch_drops_held_back_reads(self):
        executor, _, storage = make_executor()
        executor.begin_epoch()
        storage.fail()
        with pytest.raises(ConnectionError):
            executor.execute_read_batch([None, None])
        assert executor._held_back
        executor.abort_epoch()
        assert executor._held_back == []

    @pytest.mark.parametrize("lifecycle_call", ["begin_epoch", "flush_epoch"])
    def test_leftover_held_back_read_is_an_error(self, lifecycle_call):
        executor, _, _ = make_executor()
        executor.begin_epoch()
        executor._held_back.append(slot_storage_key(0, 0, 0))
        with pytest.raises(RuntimeError, match="held-back"):
            getattr(executor, lifecycle_call)()


class TestAdversaryView:
    def test_trace_shows_fixed_read_batch_size(self):
        executor, _, storage = make_executor()
        executor.begin_epoch()
        executor.execute_read_batch([1], batch_size=16)
        executor.flush_epoch()
        read_batches = [(kind, size) for kind, size in storage.trace.batch_shape()
                        if kind == "read"]
        assert read_batches[0] == ("read", 16)

    def test_reads_precede_writes_within_epoch(self):
        executor, _, storage = make_executor()
        executor.begin_epoch()
        executor.execute_read_batch(list(range(6)), batch_size=8)
        executor.execute_write_batch({1: b"x"})
        executor.flush_epoch()
        events = [e for e in storage.trace.events if e.key.startswith("oram/")]
        first_write_index = next(i for i, e in enumerate(events) if e.op == StorageOp.WRITE)
        assert all(e.op == StorageOp.READ for e in events[:first_write_index])
        assert all(e.op == StorageOp.WRITE for e in events[first_write_index:])

    def test_no_physical_key_read_twice_per_epoch(self):
        executor, _, storage = make_executor(seed=2)
        executor.begin_epoch()
        executor.execute_read_batch(list(range(10)), batch_size=10)
        executor.execute_read_batch(list(range(10)), batch_size=10)
        executor.flush_epoch()
        reads = [e.key for e in storage.trace.events
                 if e.op == StorageOp.READ and e.key.startswith("oram/")]
        assert len(reads) == len(set(reads))

    @staticmethod
    def _stored_byte_histograms(enabled):
        """Byte counts of the slots three flushes stored: ``[real, dummy]``."""
        executor, _, storage = make_executor(
            seed=7, cipher=CipherSuite(block_size=72, enabled=enabled))
        histograms = [{}, {}]
        for epoch in range(3):
            executor.begin_epoch()
            executor.execute_write_batch({i: b"e%d-%d" % (epoch, i) for i in range(12)})
            written = list(executor._buffered_rewrites.values())
            executor.flush_epoch()
            stored = storage.snapshot()
            executor.collect()
            for rewrite in written:
                for slot, block in enumerate(rewrite.slot_blocks):
                    counts = histograms[block is None]
                    blob = stored[slot_storage_key(rewrite.bucket_id, rewrite.version, slot)]
                    for byte in blob:
                        counts[byte] = counts.get(byte, 0) + 1
        return histograms

    def test_byte_histogram_cannot_tell_stored_real_slots_from_dummies(self, monkeypatch):
        # Seeded "randomness" keeps the test deterministic.  The bar is the
        # chi-square test against uniform bytes at p = 0.001: 330.5 is the
        # 0.999 quantile of chi-square with 255 degrees of freedom.
        def statistic(counts):
            expected = sum(counts.values()) / 256
            return sum((counts.get(byte, 0) - expected) ** 2 for byte in range(256)) / expected

        monkeypatch.setattr("repro.oram.crypto.ssl.RAND_bytes", random.Random(7).randbytes)
        real, dummy = self._stored_byte_histograms(enabled=True)
        assert sum(real.values()) > 2000 and sum(dummy.values()) > 2000
        for counts in (real, dummy):
            assert statistic(counts) < 330.5
        # The statistic does see structure: padded plaintexts fail it.
        for counts in self._stored_byte_histograms(enabled=False):
            assert statistic(counts) > 1000

    def test_clock_advances_more_on_wan(self):
        lan, oram_lan, _ = make_executor(backend="server")
        wan, oram_wan, _ = make_executor(backend="server_wan")
        for executor in (lan, wan):
            executor.begin_epoch()
            executor.execute_read_batch(list(range(8)), batch_size=8)
            executor.flush_epoch()
        assert oram_wan.clock.now_ms > oram_lan.clock.now_ms


def parse_slot_key(key):
    """``(bucket, version, slot)`` of an ``oram/<b>/v<v>/s/<i>`` key."""
    _, bucket, version, _, slot = key.split("/")
    return int(bucket), int(version[1:]), int(slot)


class TestVersionCollection:
    """A flush stages the versions it supersedes; ``collect`` deletes them."""

    @pytest.mark.parametrize("buffer_writes", [True, False])
    def test_after_collect_each_written_bucket_has_one_version(self, buffer_writes):
        executor, oram, storage = make_executor(seed=4, buffer_writes=buffer_writes)
        oram.bulk_load({i: b"bulk" for i in range(20)})
        assert stored_versions(storage) == live_versions(oram)
        for epoch in range(4):
            executor.begin_epoch()
            executor.execute_read_batch(list(range(epoch, epoch + 6)), batch_size=8)
            executor.execute_write_batch({i: b"e%d" % epoch for i in range(epoch, epoch + 4)})
            executor.flush_epoch()
            assert stored_versions(storage) != live_versions(oram)
            executor.collect()
            assert stored_versions(storage) == live_versions(oram)

    def test_delete_batch_mirrors_the_flush(self):
        """Same buckets, same slots, as many keys: each bucket's version
        from before the epoch — version 0, never stored, included."""
        executor, oram, storage = make_executor(seed=4)
        deleted_versions = []
        for epoch in range(3):
            executor.begin_epoch()
            before = {bucket: oram.metadata.bucket(bucket).version
                      for bucket in oram.metadata.buckets_present()}
            executor.execute_write_batch({i: b"e%d" % epoch for i in range(8)})
            executor.flush_epoch()
            executor.collect()
            (write, written), (delete, deleted) = storage.trace.batch_shape()[-2:]
            assert (write, delete) == ("write", "delete") and written == deleted > 0
            rows = [parse_slot_key(e.key) for e in storage.trace.events[-2 * written:]]
            writes, deletes = rows[:written], rows[written:]
            assert [(b, s) for b, _, s in writes] == [(b, s) for b, _, s in deletes]
            assert all(version == before.get(bucket, 0) for bucket, version, _ in deletes)
            deleted_versions += [version for _, version, _ in deletes]
        assert 0 in deleted_versions and max(deleted_versions) > 0

    def test_collect_moves_neither_the_clock_nor_the_physical_counters(self):
        executor, oram, _ = make_executor()
        executor.begin_epoch()
        executor.execute_write_batch({i: b"x" for i in range(6)})
        executor.flush_epoch()
        now, stats = oram.clock.now_ms, (executor.lifetime_stats.physical_reads,
                                         executor.lifetime_stats.physical_writes)
        assert executor.collect() > 0
        assert oram.clock.now_ms == now
        assert (executor.lifetime_stats.physical_reads,
                executor.lifetime_stats.physical_writes) == stats

    def test_uncollected_flush_is_an_error_and_abort_drops_it(self):
        executor, _, _ = make_executor()
        executor.begin_epoch()
        executor.execute_write_batch({i: b"x" for i in range(6)})
        executor.flush_epoch()
        with pytest.raises(RuntimeError, match="never collected"):
            executor.begin_epoch()
        executor.abort_epoch()
        executor.begin_epoch()
        assert executor.collect() == 0

    def test_a_flush_after_the_epochs_collect_waits_for_the_next_one(self):
        """A migration copy step flushes at the barrier, after the epoch's
        collect: the versions it supersedes are still named by the last
        checkpoint, so they go with the next epoch's collect."""
        executor, oram, storage = make_executor(seed=2)
        executor.begin_epoch()
        executor.execute_write_batch({i: b"a" for i in range(6)})
        executor.flush_epoch()
        executor.collect()
        executor.execute_read_batch([None] * 8)        # the barrier's copy read
        executor.flush_epoch()
        kept = stored_versions(storage)
        assert kept != live_versions(oram)
        executor.begin_epoch()
        assert stored_versions(storage) == kept
        executor.flush_epoch()
        executor.collect()
        assert stored_versions(storage) == live_versions(oram)
