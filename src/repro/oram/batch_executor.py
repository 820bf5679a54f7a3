"""Obladi's epoch-based parallel ORAM executor.

The executor wraps a :class:`~repro.oram.ring_oram.RingOram` planner and
executes logical requests the way Section 7 of the paper describes:

* logical reads arrive in fixed-size *read batches*; the physical slot reads
  they require are deduplicated within the epoch and executed as one parallel
  batch whose simulated duration is computed from the bucket-metadata
  dependency DAG;
* logical writes are *dummiless*: they go straight to the stash and only
  advance the eviction schedule;
* evict-path and early-reshuffle operations triggered inside the epoch run
  their read phase immediately (it is workload-independent) but their bucket
  rewrites are buffered;
* at the end of the epoch the buffered rewrites are deduplicated (only the
  last version of each bucket is written), sealed — buffered rewrites are
  plaintext, so a superseded version is never encrypted — and flushed as
  one parallel write batch; reads that targeted an intermediate buffered
  version were served locally from the buffer.

Setting ``buffer_writes=False`` disables the delayed-visibility optimisation
(every eviction's write phase executes immediately); Figure 10d measures the
difference.

Most path reads of a padded batch fetch slots the proxy never opens.  Their
storage keys are *held back* and ride with the next read that does open
something (:meth:`EpochBatchExecutor._fetch_slots`), so the store is called
once per opened plan, not once per path read.

Every bucket version a flush writes supersedes the one the server held
before the epoch (version 0, which no bucket ever stored, included — so the
delete set is exactly as large as the flush).  The flush *stages* those slot
keys and :meth:`EpochBatchExecutor.collect` deletes them as one storage
batch; the proxy calls it once the epoch has committed, so a crash before
then leaves only garbage, never a hole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.oram.crypto import freshness_context
from repro.oram.dependency import (simulate_parallel_read_batch,
                                   simulate_parallel_write_batch)
from repro.oram.ring_oram import (BucketRewrite, PathReadPlan, RingOram, SlotRead,
                                  lost_real_slot, slot_key_prefix, slot_storage_key)
from repro.oram.stash import StashReason
from repro.sim.latency import CpuCostModel, LatencyModel, get_latency_model


@dataclass
class EpochStats:
    """Counters describing one epoch's physical work."""

    logical_reads: int = 0
    logical_writes: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    buffered_bucket_writes_saved: int = 0
    local_buffer_hits: int = 0
    stash_hits: int = 0
    evictions: int = 0
    early_reshuffles: int = 0
    read_time_ms: float = 0.0
    write_time_ms: float = 0.0


class EpochBatchExecutor:
    """Executes read/write batches for one Obladi proxy over one ORAM tree.

    The slot reads of one logical batch reach the store in several
    ``read_batch`` calls (:meth:`_fetch_slots` decides how many), and the
    modelled adversary cannot see where one call ends and the next begins.
    The rows of an announced batch share their op, their ``batch_id``
    (``-1``: the executor announced the batch itself) and their ``time_ms``:
    a store never advances the clock, so it moves only when the executor
    charges a whole batch against ``latency``.  ``AccessTrace.record_batch``
    is ``n x record``.  A storage outage can cut a batch short at any key
    (``InMemoryStorageServer.fail``); the epoch dies with the proxy.
    """

    def __init__(self, oram: RingOram, latency="server", parallelism: int = 64,
                 cost_model: Optional[CpuCostModel] = None,
                 buffer_writes: bool = True,
                 advance_clock: bool = True) -> None:
        self.oram = oram
        self.latency: LatencyModel = get_latency_model(latency)
        self.parallelism = max(1, parallelism)
        self.cost_model = cost_model if cost_model is not None else oram.cost_model
        self.buffer_writes = buffer_writes
        # With ``advance_clock=False`` simulated batch durations accumulate in
        # ``deferred_ms`` instead of advancing the shared clock.  A partitioned
        # data layer runs one executor per partition this way and advances the
        # clock once by the *maximum* across partitions — partition batches are
        # parallel work, not serial work.
        self.advance_clock = advance_clock
        self.deferred_ms = 0.0

        # Epoch-scoped state
        self._read_cache: Dict[str, Optional[bytes]] = {}
        self._held_back: List[str] = []      # keys registered as read, not yet sent
        self._buffered_rewrites: Dict[int, BucketRewrite] = {}   # latest per bucket
        self._stored_versions: Dict[int, int] = {}   # buffered bucket -> version on the server
        # Slot keys of the versions this epoch's writes superseded, deleted
        # by ``collect``; a flush after the epoch's collect (a migration copy
        # step at the barrier) waits for the next epoch's.
        self._superseded: List[str] = []
        self._collected = True
        self.stats = EpochStats()
        self.lifetime_stats = EpochStats()

    def _charge_time(self, elapsed_ms: float) -> None:
        """Advance the clock, or accumulate when the clock is deferred."""
        if self.advance_clock:
            self.oram.clock.advance(elapsed_ms)
        else:
            self.deferred_ms += elapsed_ms

    def _charge_read_time(self, physical: Sequence[int]) -> None:
        """Charge the parallel read of the slots whose bucket ids are ``physical``."""
        elapsed = simulate_parallel_read_batch(physical, self.latency, self.parallelism,
                                               self.cost_model,
                                               encrypted=self.oram.crypto_charged())
        self._charge_time(elapsed)
        self.stats.read_time_ms += elapsed

    def take_deferred_ms(self) -> float:
        """Return and reset the accumulated deferred duration."""
        elapsed, self.deferred_ms = self.deferred_ms, 0.0
        return elapsed

    # ------------------------------------------------------------------ #
    # Epoch lifecycle
    # ------------------------------------------------------------------ #
    def begin_epoch(self) -> None:
        """Reset per-epoch state.

        Buffered writes must have been flushed, and what the flush
        superseded collected.
        """
        if self._buffered_rewrites:
            raise RuntimeError("previous epoch's buffered writes were never flushed")
        self._check_nothing_held_back()
        if self._superseded and not self._collected:
            raise RuntimeError(
                f"{len(self._superseded)} superseded slot keys were never collected")
        self._read_cache.clear()
        self._collected = False
        self.stats = EpochStats()

    def abort_epoch(self) -> None:
        """Drop all buffered writes, none of them sealed yet (crash / abort).

        The staged superseded keys go too: recovery's sweep deletes every
        version the restored metadata does not name.
        """
        self._buffered_rewrites.clear()
        self._stored_versions.clear()
        self._read_cache.clear()
        self._held_back.clear()
        self._superseded = []

    def _check_nothing_held_back(self) -> None:
        """Held-back reads never outlive the batch that registered them."""
        if self._held_back:
            raise RuntimeError(
                f"{len(self._held_back)} held-back slot reads were never sent")

    # ------------------------------------------------------------------ #
    # Physical fetch helpers
    # ------------------------------------------------------------------ #
    def _fetch_slots(self, slot_reads: Sequence[SlotRead],
                     physical: List[int]) -> Dict[int, bytes]:
        """Fetch a plan's slots; call the store only if the plan opens one.

        Each slot comes from the epoch write buffer (in plaintext), the
        epoch read cache, or the server.  One pass over the plan formats each
        storage key once, registers every server read in the read cache,
        appends its key to the held-back list and its bucket id to
        ``physical`` — all the batch timing needs.  A plan that opens no
        server slot (every padded request, most dummy levels of a real one)
        stops there: nobody looks at the bytes, so its keys wait.  A plan
        that does open one sends the list — the waiting keys and its own, in
        the order they were registered — as a *single* ``read_batch`` and
        opens its real blocks with a *single*
        :meth:`~repro.oram.crypto.CipherSuite.open_blocks` call.
        A plan is fetched right after it is planned, so a slot of a bucket
        rewritten this epoch always names the bucket's *latest* buffered
        version: the buffer lookup is by bucket id plus a version compare.
        Returns ``{block_id: value}`` for the real blocks recovered; a real
        slot the server has nothing for is an
        :class:`~repro.oram.crypto.IntegrityError`.
        """
        cache = self._read_cache
        buffered_rewrites = self._buffered_rewrites
        held_back = self._held_back
        fetched: Dict[int, bytes] = {}
        to_open: List[Tuple[str, int, int, int]] = []   # real slots: key, bucket, version, slot
        buffer_hits = 0
        for bucket_id, slot_index, version, expected_block in slot_reads:
            buffered = buffered_rewrites.get(bucket_id)
            if buffered is not None and buffered.version == version:
                buffer_hits += 1
                if expected_block is not None:
                    value = buffered.plain_contents.get(expected_block)
                    if value is not None:
                        fetched[expected_block] = value
                continue
            key = slot_storage_key(bucket_id, version, slot_index)
            if key not in cache:
                cache[key] = None           # placeholder; filled when sent
                held_back.append(key)
                physical.append(bucket_id)
            if expected_block is not None:
                to_open.append((key, bucket_id, version, slot_index))
        self.stats.local_buffer_hits += buffer_hits
        if not to_open:
            return fetched

        self._send_held_back()
        blobs: List[bytes] = []
        contexts: List[bytes] = []
        for key, bucket_id, version, slot_index in to_open:
            blob = cache[key]
            if blob is None:
                raise lost_real_slot(key)
            blobs.append(blob)
            contexts.append(freshness_context(bucket_id, version, slot_index))
        for block_id, value in self.oram.cipher.open_blocks(blobs, contexts):
            if block_id is not None:
                fetched[block_id] = value
        return fetched

    def _send_held_back(self) -> None:
        """Issue every held-back slot read as one storage batch.

        Called where the bytes, or their place in the adversary's trace, are
        needed: by a plan that opens a slot, before a mid-batch write, and
        before a logical batch charges its read time and returns.
        """
        held_back = self._held_back
        if not held_back:
            return
        self._read_cache.update(self.oram.storage.read_batch(held_back, record_batch=False))
        self.stats.physical_reads += len(held_back)
        self.lifetime_stats.physical_reads += len(held_back)
        held_back.clear()

    def _buffer_rewrites(self, rewrites: Sequence[BucketRewrite]) -> None:
        """Buffer (or, if buffering is off, immediately apply) bucket rewrites."""
        if self.buffer_writes:
            for rewrite in rewrites:
                if rewrite.bucket_id in self._buffered_rewrites:
                    self.stats.buffered_bucket_writes_saved += 1
                else:
                    self._stored_versions[rewrite.bucket_id] = rewrite.version - 1
                self._buffered_rewrites[rewrite.bucket_id] = rewrite
            return
        # Immediate write-back (delayed visibility disabled): the reads
        # registered so far reach the store before the write does.
        if rewrites:
            self._send_held_back()
            self._write_rewrites(rewrites)

    def _write_rewrites(self, rewrites: Sequence[BucketRewrite]) -> float:
        """Seal and write ``rewrites`` as one parallel batch; returns its duration.

        Stages the slot keys of the version each rewrite supersedes on the
        server: the one before the epoch's first rewrite of the bucket when
        writes are buffered, the one just before it when they are not.
        """
        items = self.oram.seal_rewrites(rewrites)
        self.oram.storage.write_batch(items, record_batch=False)
        stored_versions, superseded = self._stored_versions, self._superseded
        suffixes = self.oram.slot_suffixes
        for rewrite in rewrites:
            prefix = slot_key_prefix(rewrite.bucket_id, stored_versions.pop(
                rewrite.bucket_id, rewrite.version - 1))
            superseded += [prefix + suffix for suffix in suffixes]
        self.stats.physical_writes += len(items)
        self.lifetime_stats.physical_writes += len(items)
        slot_counts = {rewrite.bucket_id: len(rewrite.slot_blocks) for rewrite in rewrites}
        elapsed = simulate_parallel_write_batch(slot_counts, self.latency, self.parallelism,
                                                self.cost_model,
                                                encrypted=self.oram.crypto_charged())
        self._charge_time(elapsed)
        self.stats.write_time_ms += elapsed
        return elapsed

    def _run_maintenance(self, over_read: Sequence[int],
                         physical: List[int]) -> None:
        """Early reshuffles for the ``over_read`` buckets plus any due evict-path."""
        for bid in over_read:
            plan = self.oram.plan_early_reshuffle(bid)
            fetched = self._fetch_slots(plan.slot_reads, physical)
            rewrites = self.oram.complete_eviction(plan, fetched)
            self._buffer_rewrites(rewrites)
            self.stats.early_reshuffles += 1
            self.lifetime_stats.early_reshuffles += 1

        while self.oram.access_count % self.oram.params.evict_rate == 0 and \
                self.oram.access_count > self.oram.eviction_count * self.oram.params.evict_rate:
            plan = self.oram.plan_eviction()
            fetched = self._fetch_slots(plan.slot_reads, physical)
            rewrites = self.oram.complete_eviction(plan, fetched)
            self._buffer_rewrites(rewrites)
            self.stats.evictions += 1
            self.lifetime_stats.evictions += 1

    # ------------------------------------------------------------------ #
    # Logical batch execution
    # ------------------------------------------------------------------ #
    def execute_read_batch(self, block_ids: Sequence[Optional[int]],
                           batch_size: Optional[int] = None) -> Dict[int, Optional[bytes]]:
        """Execute one fixed-size read batch.

        ``block_ids`` holds the logical block ids to read; ``None`` entries
        are padding (dummy path reads).  The list is padded (or validated)
        to ``batch_size``.  Returns the values for all real block ids.
        """
        requests: List[Optional[int]] = list(block_ids)
        if batch_size is not None:
            if len(requests) > batch_size:
                raise ValueError(
                    f"read batch of {len(requests)} exceeds configured size {batch_size}")
            requests.extend([None] * (batch_size - len(requests)))

        physical: List[int] = []
        results: Dict[int, Optional[bytes]] = {}
        trace = getattr(self.oram.storage, "trace", None)
        if trace is not None:
            trace.begin_batch("read", self.oram.clock.now_ms, len(requests))

        for block_id in requests:
            self.oram.access_count += 1
            self.stats.logical_reads += 1
            self.lifetime_stats.logical_reads += 1

            stash_entry = self.oram.stash.get(block_id) if block_id is not None else None
            if (stash_entry is not None
                    and stash_entry.reason is StashReason.LOGICAL_ACCESS):
                # Obladi §6.3: blocks in the stash due to a logical access are
                # mapped to independent uniform paths; serving them locally
                # does not skew the adversary-visible path distribution.
                results[block_id] = stash_entry.value
                self.stats.stash_hits += 1
                self.lifetime_stats.stash_hits += 1
                self._run_maintenance([], physical)
                continue

            plan: PathReadPlan = self.oram.plan_path_read(block_id)
            fetched = self._fetch_slots(plan.slot_reads, physical)

            if block_id is not None:
                if block_id in fetched:
                    value: Optional[bytes] = fetched.pop(block_id)
                elif stash_entry is not None:
                    value = stash_entry.value
                    self.stats.stash_hits += 1
                    self.lifetime_stats.stash_hits += 1
                else:
                    value = None
                results[block_id] = value
                if value is not None and plan.new_leaf is not None:
                    self.oram.stash.put(block_id, plan.new_leaf, value,
                                        StashReason.LOGICAL_ACCESS)

            # Stray real blocks recovered from shared slots rejoin the stash.
            for bid, val in fetched.items():
                if bid not in self.oram.stash:
                    leaf = self.oram.position_map.lookup_or_assign(bid)
                    self.oram.stash.put(bid, leaf, val, StashReason.EVICTION_RESIDUE)

            self._run_maintenance(plan.over_read, physical)

        self._send_held_back()
        self._charge_read_time(physical)
        return results

    def execute_write_batch(self, items: Dict[int, bytes],
                            batch_size: Optional[int] = None) -> None:
        """Register the epoch's logical writes (dummiless) and run maintenance.

        The values land in the stash mapped to fresh random leaves; only the
        evictions they trigger produce physical traffic, and that traffic is
        buffered until :meth:`flush_epoch`.
        """
        physical: List[int] = []
        count = 0
        for block_id in sorted(items):
            value = items[block_id]
            self.oram.access_count += 1
            count += 1
            self.stats.logical_writes += 1
            self.lifetime_stats.logical_writes += 1
            self.oram.forget_tree_copy(block_id)
            new_leaf = self.oram.position_map.remap(block_id)
            self.oram.stash.put(block_id, new_leaf, value, StashReason.LOGICAL_ACCESS)
            self._run_maintenance([], physical)

        # Padding writes only advance the eviction schedule.
        if batch_size is not None and count < batch_size:
            for _ in range(batch_size - count):
                self.oram.access_count += 1
                self._run_maintenance([], physical)

        self._send_held_back()
        if physical:
            self._charge_read_time(physical)

    # ------------------------------------------------------------------ #
    # Epoch flush
    # ------------------------------------------------------------------ #
    def flush_epoch(self) -> float:
        """Write all buffered bucket rewrites as one parallel batch.

        Returns the simulated duration of the write-back.  Only the latest
        buffered version of each bucket is sealed and written (write
        deduplication); intermediate versions never left the proxy.  The
        versions the written buckets held on the server are staged for
        :meth:`collect`.
        """
        self._check_nothing_held_back()
        if not self._buffered_rewrites:
            self._read_cache.clear()
            return 0.0

        rewrites = [rewrite for _, rewrite in sorted(self._buffered_rewrites.items())]
        trace = getattr(self.oram.storage, "trace", None)
        if trace is not None:
            trace.begin_batch("write", self.oram.clock.now_ms,
                              sum(len(rewrite.slot_blocks) for rewrite in rewrites))
        elapsed = self._write_rewrites(rewrites)

        self._buffered_rewrites.clear()
        self._read_cache.clear()
        return elapsed

    def collect(self) -> int:
        """Delete the staged superseded slot keys as one storage batch.

        Safe once the flushes that staged them are durable: after the
        epoch's checkpoint commits, or right after the flush when nothing is
        checkpointed.  The delete set is a function of the flush, which the
        server has already seen; the simulated clock does not charge it.
        Returns how many keys were deleted.
        """
        self._collected = True
        superseded = self._superseded
        if not superseded:
            return 0
        self.oram.storage.delete_batch(superseded)
        self._superseded = []
        return len(superseded)

    def retire(self) -> int:
        """Delete every slot key the tree stores, with the staged ones, as one batch.

        For a tree nothing durable names any more (a reshard's retiring
        generation).  Returns how many keys were deleted.
        """
        metadata = self.oram.metadata
        for bucket_id in metadata.buckets_present():
            version = metadata.bucket(bucket_id).version
            if version:
                prefix = slot_key_prefix(bucket_id, version)
                self._superseded += [prefix + suffix for suffix in self.oram.slot_suffixes]
        return self.collect()
