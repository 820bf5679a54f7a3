"""The Ring ORAM planner.

This module implements the Ring ORAM construction (Ren et al., 2015) that
Obladi builds on as *planning*: pure metadata decisions about which physical
slots a path read touches, which buckets an evict-path or early reshuffle
drains, and where evicted blocks land.  :class:`RingOram` owns the one tree's
client state (position map, bucket metadata, stash); it issues no storage
request except the initial :meth:`RingOram.bulk_load`.  Every plan is run by
the one executor, :class:`repro.oram.batch_executor.EpochBatchExecutor`,
which batches, parallelises and defers the physical operations.  Figure
10a's "Sequential" baseline is that executor at batch size 1, parallelism 1
and immediate write-back.

Storage layout
--------------
Each physical slot is stored under its own key::

    <namespace>oram/<bucket_id>/v<version>/s/<slot_index>

so that a path read is ``L + 1`` single-slot reads (exactly what the server
observes in the paper) and a bucket rewrite is ``Z + S`` slot writes under a
*new* version — the copy-on-write shadow paging that recovery relies on.
The namespace (``""``, ``g<g>/``, ``p<i>/`` or ``g<g>/p<i>/``) keeps the
trees that share a server apart.  A version's keys are built once, when
:meth:`RingOram.seal_rewrites` seals it, and :attr:`RingOram.server_keys`
keeps them while that version is the one on the server: every read, delete
and replay of its slots passes the same string objects to the server.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.oram import path_math
from repro.oram.crypto import CipherSuite, IntegrityError, freshness_context
from repro.oram.metadata import MetadataTable, shuffle_in_place
from repro.oram.parameters import RingOramParameters
from repro.oram.position_map import PositionMap
from repro.oram.stash import Stash, StashReason
from repro.sim.clock import SimClock
from repro.sim.latency import CpuCostModel
from repro.storage.backend import StorageServer


#: One planned physical slot read, a plain row:
#: ``(bucket_id, slot_index, version, expected_block)`` — ``expected_block`` is
#: the real block id recorded there, ``None`` for a dummy.  Consumers unpack
#: it by name; its storage key is ``RingOram.slot_keys(bucket_id, version)[slot_index]``.
SlotRead = Tuple[int, int, int, Optional[int]]

#: The :meth:`~repro.oram.crypto.CipherSuite.seal_blocks` entry of a dummy slot.
_DUMMY_ENTRY: Tuple[None, bytes, bytes] = (None, b"", b"")


@dataclass
class PathReadPlan:
    """Plan for one logical path read (real or padded dummy request).

    ``over_read`` lists, in path order, the buckets this read brought to
    ``S`` reads since their last rewrite: each must be early-reshuffled
    before it serves another read.
    """

    block_id: Optional[int]          # None = dummy request
    leaf: int
    slot_reads: List[SlotRead] = field(default_factory=list)
    over_read: List[int] = field(default_factory=list)
    new_leaf: Optional[int] = None


@dataclass
class BucketRewrite:
    """A bucket's next version in plaintext (copy-on-write), not yet sealed.

    Ciphertexts are made by :meth:`RingOram.seal_rewrites` only when the
    version is actually written; a version superseded inside its epoch is
    never sealed.
    """

    bucket_id: int
    version: int                              # version being written
    slot_blocks: List[Optional[int]]          # block id per physical slot, None = dummy
    plain_contents: Dict[int, bytes]          # value of every real block placed


@dataclass
class EvictionPlan:
    """Plan for one evict-path (or early-reshuffle) operation."""

    kind: str                                   # "evict" or "reshuffle"
    eviction_index: int                         # value of G when planned
    leaf: int
    bucket_ids: List[int] = field(default_factory=list)
    slot_reads: List[SlotRead] = field(default_factory=list)


def slot_key_prefix(bucket_id: int, version: int) -> str:
    """What the storage keys of one bucket version's slots start with, past the namespace."""
    return f"oram/{bucket_id}/v{version}/s/"


def lost_real_slot(key: str) -> IntegrityError:
    """The error for a slot metadata records a real block in and the server lacks.

    Skipping such a slot would deliver "never written" for a block the store
    dropped; a *dummy* slot the server lacks (a bucket never written) is not
    opened and is no event.
    """
    return IntegrityError(f"storage has nothing under {key!r}, which holds a real block")


class RingOram:
    """Ring ORAM planner and client state for one tree.

    Parameters
    ----------
    params:
        Tree geometry and (Z, S, A) parameters.
    storage:
        The untrusted storage server that hosts the tree.
    cipher:
        Cipher suite for sealing slots.  A fresh suite is created if omitted.
    clock:
        Shared simulated clock; optional.
    cost_model:
        CPU cost constants charged per physical block handled.
    seed:
        Seed for the ORAM's private RNG (position remapping, permutations),
        so tests are reproducible.
    key_prefix:
        The tree's namespace on its server, the start of every slot key.
    """

    def __init__(self, params: RingOramParameters, storage: StorageServer,
                 cipher: Optional[CipherSuite] = None,
                 clock: Optional[SimClock] = None,
                 cost_model: Optional[CpuCostModel] = None,
                 seed: Optional[int] = None,
                 charge_crypto: Optional[bool] = None,
                 key_prefix: str = "") -> None:
        self.params = params
        self.storage = storage
        self.key_prefix = key_prefix
        self.clock = clock if clock is not None else getattr(storage, "clock", SimClock())
        self.cost_model = cost_model if cost_model is not None else CpuCostModel()
        self.rng = random.Random(seed)
        self.cipher = cipher if cipher is not None else CipherSuite(
            block_size=params.block_size + 8)
        # When set, overrides whether simulated crypto CPU cost is charged
        # (used by benchmarks that disable real encryption for speed but want
        # to model its cost).
        self.charge_crypto = charge_crypto

        self.position_map = PositionMap(params.num_leaves, rng=self.rng)
        self.metadata = MetadataTable(params.num_buckets, params.z_real,
                                      params.s_dummies, rng=self.rng)
        self.stash = Stash(capacity=0)
        # The slot-index part of every slot key, built once: a bucket
        # version's slot keys are the namespace and its ``slot_key_prefix``
        # plus each suffix.
        self.slot_suffixes = [str(idx) for idx in range(params.slots_per_bucket)]
        # bucket -> the slot keys of its version on the server, built once
        # (by ``seal_rewrites``, or on the first miss) and handed to every
        # read, delete and replay of that version.
        self.server_keys: Dict[int, List[str]] = {}

        self.access_count = 0          # logical accesses since the ORAM started
        self.eviction_count = 0        # G: number of evict-path operations issued

    # ------------------------------------------------------------------ #
    # Planning (pure metadata; the epoch executor runs the plans)
    # ------------------------------------------------------------------ #
    def plan_path_read(self, block_id: Optional[int],
                       force_dummy_path: Optional[int] = None) -> PathReadPlan:
        """Plan the physical slot reads for one logical (or dummy) path read.

        Planning mutates client metadata: the touched slots are invalidated,
        per-bucket read counters advance (a bucket that reaches ``S`` reads
        since its last rewrite is reported in the plan's ``over_read``), and
        a real block is remapped to a fresh leaf.  The executor *must*
        subsequently issue the physical reads, otherwise the bucket
        invariant bookkeeping would diverge from what the server observed.
        """
        if block_id is not None:
            leaf = self.position_map.lookup_or_assign(block_id)
        elif force_dummy_path is not None:
            leaf = force_dummy_path
        else:
            leaf = self.position_map.draw_leaf()

        # One pass per level over the bucket's columns.  This loop is the
        # hottest in the client, so it reads the metadata table's dicts and
        # consumes slots in place instead of calling ``MetadataTable.bucket``
        # / ``BucketMeta.invalidate`` per level; it keeps their contracts
        # (first use draws an all-dummy layout, ``valid`` and the kept dummy
        # list move together, every touched bucket is dirty).
        metadata = self.metadata
        buckets, dirty = metadata._buckets, metadata._dirty
        getrandbits = self.rng.getrandbits
        s_dummies = self.params.s_dummies
        searching = block_id is not None
        slot_reads: List[SlotRead] = []
        over_read: List[int] = []
        for bid in path_math.path_buckets(leaf, self.params.depth):
            meta = buckets.get(bid)
            if meta is None:
                meta = metadata.bucket(bid)
            dirty.add(bid)
            meta.reads_since_write += 1
            if meta.reads_since_write >= s_dummies:
                over_read.append(bid)
            blocks, valid = meta.blocks, meta.valid
            if searching and block_id in blocks:
                slot_index = blocks.index(block_id)
                if valid[slot_index]:
                    searching = False
                    valid[slot_index] = False
                    slot_reads.append((bid, slot_index, meta.version, block_id))
                    continue
            dummies = meta._valid_dummies
            count = len(dummies)
            if count:
                # ``rng.choice(dummies)``, draw for draw: its index comes
                # from ``_randbelow(count)``, inlined as in
                # ``shuffle_in_place``; popping by that index spares the
                # ``list.remove`` search.
                bits = count.bit_length()
                pick = getrandbits(bits)
                while pick >= count:
                    pick = getrandbits(bits)
                slot_index = dummies.pop(pick)
                valid[slot_index] = False
                slot_reads.append((bid, slot_index, meta.version, None))
                continue
            # No valid dummy left: fall back to any valid slot (the bucket
            # will be early-reshuffled right after this path).
            remaining = [i for i, still_valid in enumerate(valid) if still_valid]
            if remaining:
                slot_index = self.rng.choice(remaining)
                meta.invalidate(slot_index)
                slot_reads.append((bid, slot_index, meta.version, blocks[slot_index]))
            else:
                # Bucket fully consumed; early reshuffle will restore it.
                # Read slot 0 of the current version: the server cannot
                # distinguish this from any other slot choice.
                slot_reads.append((bid, 0, meta.version, None))

        plan = PathReadPlan(block_id=block_id, leaf=leaf, slot_reads=slot_reads,
                            over_read=over_read)
        if block_id is not None:
            plan.new_leaf = self.position_map.remap(block_id)
        return plan

    def plan_eviction(self) -> EvictionPlan:
        """Plan the read phase of the next deterministic evict-path."""
        g = self.eviction_count
        leaf = path_math.eviction_path(g, self.params.depth)
        plan = EvictionPlan(kind="evict", eviction_index=g, leaf=leaf)
        plan.bucket_ids = path_math.path_buckets(leaf, self.params.depth)
        for bid in plan.bucket_ids:
            plan.slot_reads.extend(self._plan_bucket_drain(bid))
        self.eviction_count += 1
        return plan

    def plan_early_reshuffle(self, bucket_id: int) -> EvictionPlan:
        """Plan an early reshuffle of one over-read bucket."""
        plan = EvictionPlan(kind="reshuffle", eviction_index=self.eviction_count,
                            leaf=-1, bucket_ids=[bucket_id])
        plan.slot_reads = self._plan_bucket_drain(bucket_id)
        return plan

    def _plan_bucket_drain(self, bucket_id: int) -> List[SlotRead]:
        """Slot reads that pull every remaining valid real block of a bucket.

        Ring ORAM's eviction read phase reads exactly ``Z`` slots per bucket
        (remaining valid reals padded with valid dummies) so the server
        learns nothing about the bucket's occupancy.
        """
        meta = self.metadata.bucket(bucket_id)
        version = meta.version
        reads: List[SlotRead] = [
            (bucket_id, index, version, block)
            for index, (block, valid) in enumerate(zip(meta.blocks, meta.valid))
            if valid and block is not None]
        dummy_needed = max(0, self.params.z_real - len(reads))
        dummies = list(meta.valid_dummy_slots())
        shuffle_in_place(dummies, self.rng.getrandbits)
        reads += [(bucket_id, index, version, None) for index in dummies[:dummy_needed]]
        return reads

    def complete_eviction(self, plan: EvictionPlan,
                          fetched: Dict[int, bytes]) -> List[BucketRewrite]:
        """Finish an eviction: place stash blocks and produce bucket rewrites.

        ``fetched`` maps block ids recovered by the read phase to their
        plaintext values.  Fetched blocks join the stash first (exactly as in
        Ring ORAM's evict-path), then the write phase greedily places every
        stash block into the deepest bucket on the target path that
        intersects the block's assigned path and still has room.
        """
        for block_id, value in fetched.items():
            leaf = self.position_map.lookup_or_assign(block_id)
            if block_id not in self.stash:
                self.stash.put(block_id, leaf, value, StashReason.EVICTION_RESIDUE)

        rewrites: List[BucketRewrite] = []
        if plan.kind == "reshuffle":
            for bid in plan.bucket_ids:
                rewrites.append(self._rewrite_bucket_from_stash(bid))
            return rewrites

        # Ordinary evict-path: every stash block goes into the deepest bucket
        # of the target path that lies on its own path and has room.  Two
        # paths share levels 0..k, k the length of the leaves' common prefix.
        depth, z_real = self.params.depth, self.params.z_real
        target_leaf = plan.leaf
        placements: List[List[Tuple[int, bytes]]] = [[] for _ in plan.bucket_ids]
        for entry in self.stash.entries():
            level = depth - (entry.leaf ^ target_leaf).bit_length()
            while level >= 0:
                if len(placements[level]) < z_real:
                    placements[level].append((entry.block_id, entry.value))
                    self.stash.remove(entry.block_id)
                    break
                level -= 1

        for bid, contents in zip(plan.bucket_ids, placements):
            rewrites.append(self._build_rewrite(bid, contents))

        # Anything still in the stash had no room: mark it as eviction
        # residue so the caching optimisation will not serve it silently.
        for block_id in list(self.stash.iter_ids()):
            self.stash.mark_residue(block_id)
        return rewrites

    def _rewrite_bucket_from_stash(self, bucket_id: int) -> BucketRewrite:
        """Early reshuffle: rewrite one bucket with the blocks it already held."""
        level = path_math.bucket_level(bucket_id)
        index = path_math.bucket_index_in_level(bucket_id)
        placements: List[Tuple[int, bytes]] = []
        for entry in self.stash.entries():
            if len(placements) >= self.params.z_real:
                break
            leaf_prefix = entry.leaf >> (self.params.depth - level) if level <= self.params.depth else -1
            if level == 0 or leaf_prefix == index:
                placements.append((entry.block_id, entry.value))
                self.stash.remove(entry.block_id)
        return self._build_rewrite(bucket_id, placements)

    def _build_rewrite(self, bucket_id: int, contents: List[Tuple[int, bytes]]) -> BucketRewrite:
        """Shuffle a bucket's next layout and record it, unsealed."""
        meta = self.metadata.rewrite_bucket(bucket_id, contents)
        return BucketRewrite(bucket_id=bucket_id, version=meta.version,
                             slot_blocks=list(meta.blocks),
                             plain_contents=dict(contents))

    def _format_slot_keys(self, bucket_id: int, version: int) -> List[str]:
        head = self.key_prefix + slot_key_prefix(bucket_id, version)
        return [head + suffix for suffix in self.slot_suffixes]

    def slot_keys(self, bucket_id: int, version: int) -> List[str]:
        """Storage keys of the slots of ``bucket_id``'s version on the server.

        ``version`` must be that version: it is read only on a miss — a
        bucket never written (version 0) or a tree restored from a
        checkpoint — which builds the list and keeps it.
        """
        keys = self.server_keys.get(bucket_id)
        if keys is None:
            keys = self.server_keys[bucket_id] = self._format_slot_keys(bucket_id, version)
        return keys

    def seal_rewrites(self, rewrites: Iterable[BucketRewrite]) -> Dict[str, bytes]:
        """Seal every slot of ``rewrites``: ``{storage key: ciphertext}``.

        Called exactly where bytes leave the proxy.  Each bucket — ``Z + S``
        real and dummy slots — is one
        :meth:`~repro.oram.crypto.CipherSuite.seal_blocks` call: a cipher
        call per slot costs more, one call per flush holds every bucket's
        XOR temporaries at once.  Each real slot is bound to its own
        ``(bucket, version, slot)`` context — unless the cipher binds none
        (encryption or authentication off), and then none is built.  A
        dummy slot is never opened, so it gets no context either.  Each
        version's keys are built here and kept in :attr:`server_keys`, as
        the version that is about to be on the server.
        """
        items: Dict[str, bytes] = {}
        binds_context, server_keys = self.cipher.binds_context, self.server_keys
        for rewrite in rewrites:
            bucket_id, version = rewrite.bucket_id, rewrite.version
            contents = rewrite.plain_contents
            if binds_context:
                entries = [
                    _DUMMY_ENTRY if block_id is None else
                    (block_id, contents[block_id], freshness_context(bucket_id, version, idx))
                    for idx, block_id in enumerate(rewrite.slot_blocks)]
            else:
                entries = [
                    _DUMMY_ENTRY if block_id is None else (block_id, contents[block_id], b"")
                    for block_id in rewrite.slot_blocks]
            keys = server_keys[bucket_id] = self._format_slot_keys(bucket_id, version)
            items.update(zip(keys, self.cipher.seal_blocks(entries)))
        return items

    def crypto_charged(self) -> bool:
        """Whether simulated per-block crypto cost is charged.

        ``charge_crypto`` overrides the cipher's own setting; the epoch
        executor asks the same question of the tree it drives.
        """
        if self.charge_crypto is not None:
            return self.charge_crypto
        return self.cipher.enabled

    def forget_tree_copy(self, block_id: int) -> None:
        """Drop the proxy's record of a block's in-tree copy.

        A normal path read removes a block from the tree (its slot is
        invalidated and the block moves to the stash), so rewriting it never
        leaves a stale copy behind.  A *dummiless* write skips the path read,
        so the proxy must explicitly forget any copy still recorded in bucket
        metadata — otherwise a later eviction could drain the stale value and
        resurrect it over the new one.  This touches only client-side
        metadata; the server-side ciphertext stays where it is and remains
        indistinguishable from any other slot.
        """
        leaf = self.position_map.lookup(block_id)
        if leaf is None:
            return
        for bid in path_math.path_buckets(leaf, self.params.depth):
            if self.metadata.bucket(bid).forget(block_id):
                self.metadata.mark_dirty(bid)
        # The block may only exist in the stash (or nowhere yet); nothing to do.

    def check_invariants(self) -> List[str]:
        """Check the tree's client state against Ring ORAM's invariants.

        Returns one line per violation, ``[]`` when all of these hold:

        * one live copy per block: a real block sits in at most one valid
          slot of the tree, and not in the stash as well (a slot a read
          consumed keeps its block id until the rewrite, but is no copy);
        * no bucket records more than ``Z`` real blocks;
        * a block in a valid slot lies on its position-map path, and a stash
          entry is mapped to its position-map leaf;
        * the stash holds at most ``params.stash_bound`` blocks.

        It scans every bucket's columns and the stash, so it is for checks
        between operations, not for the data path.
        """
        problems: List[str] = []
        depth, z_real = self.params.depth, self.params.z_real
        lookup = self.position_map.lookup
        live: Dict[int, int] = {}
        for bid, meta in sorted(self.metadata._buckets.items()):
            recorded = len(meta.blocks) - meta.blocks.count(None)
            if recorded > z_real:
                problems.append(f"bucket {bid} records {recorded} real blocks, Z={z_real}")
            level = path_math.bucket_level(bid)
            for block, valid in zip(meta.blocks, meta.valid):
                if block is None or not valid:
                    continue
                if block in live:
                    problems.append(f"block {block} is live in buckets {live[block]} and {bid}")
                live[block] = bid
                leaf = lookup(block)
                if leaf is None or (1 << level) - 1 + (leaf >> (depth - level)) != bid:
                    problems.append(f"block {block} in bucket {bid} is off the path "
                                    f"of its leaf {leaf}")
        for entry in self.stash.entries():
            if entry.block_id in live:
                problems.append(f"block {entry.block_id} is in the stash and live in "
                                f"bucket {live[entry.block_id]}")
            if entry.leaf != lookup(entry.block_id):
                problems.append(f"stash block {entry.block_id} is mapped to leaf {entry.leaf}, "
                                f"the position map says {lookup(entry.block_id)}")
        if len(self.stash) > self.params.stash_bound:
            problems.append(f"the stash holds {len(self.stash)} blocks, "
                            f"its bound is {self.params.stash_bound}")
        return problems

    # ------------------------------------------------------------------ #
    # Bulk loading
    # ------------------------------------------------------------------ #
    def bulk_load(self, blocks: Dict[int, bytes]) -> None:
        """Load an initial dataset directly into the tree.

        In ascending block id order, each block draws its leaf
        (:meth:`PositionMap.lookup_or_assign
        <repro.oram.position_map.PositionMap.lookup_or_assign>`) and goes
        into the deepest bucket on that leaf's path with room: level ``l``'s
        bucket is ``(1 << l) - 1 + (leaf >> (depth - l))``, tried from
        ``l = depth`` up to the root.  A block no bucket of its path has
        room for lands in the stash.  Each written bucket is then rewritten
        once, in ascending bucket id order (its first rewrite, see
        :meth:`MetadataTable.rewrite_bucket
        <repro.oram.metadata.MetadataTable.rewrite_bucket>`), so its version
        advances exactly once and the server state is indistinguishable
        from a tree filled through the normal protocol (every real slot a
        fresh ciphertext, every dummy slot fresh random bytes).  The clock
        is charged the sequential per-block CPU cost of every slot written.
        """
        depth, z_real = self.params.depth, self.params.z_real
        assign, stash = self.position_map.lookup_or_assign, self.stash
        placements: Dict[int, List[Tuple[int, bytes]]] = {}
        for block_id, value in sorted(blocks.items()):
            leaf = assign(block_id)
            for level in range(depth, -1, -1):
                bid = (1 << level) - 1 + (leaf >> (depth - level))
                bucket_load = placements.get(bid)
                if bucket_load is None:
                    placements[bid] = [(block_id, value)]
                    break
                if len(bucket_load) < z_real:
                    bucket_load.append((block_id, value))
                    break
            else:
                stash.put(block_id, leaf, value, StashReason.EVICTION_RESIDUE)

        rewrites = [self._build_rewrite(bid, contents)
                    for bid, contents in sorted(placements.items())]
        items = self.seal_rewrites(rewrites)
        if items:
            self.storage.write_batch(items)
            self.clock.advance(self.cost_model.sequential_block_cost_ms(self.crypto_charged())
                               * len(items))
