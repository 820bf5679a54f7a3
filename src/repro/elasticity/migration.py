"""Oblivious live partition migration: move the keyspace between layouts.

A :class:`TopologyMigration` copies every materialised key from the
deployment's current data layer (the *source*) into a freshly built layer at
the target topology (the *target generation*), while foreground epochs keep
running.  The copy is structured so that each storage server's adversary
trace stays workload-independent throughout:

* **Padded, fixed-shape batches.**  One copy step runs at each epoch
  barrier, immediately after the epoch's own write batch.  A step is one
  padded read batch on the source layer (the same per-partition quota and
  dummy padding as any foreground read batch) followed by one padded write
  batch plus flush on the target layer.  Which keys ride a batch — and how
  few real ones do — is invisible, exactly as for foreground batches.
* **Write-through replication.**  Keys the foreground rewrites mid-migration
  are re-enqueued with their committed values
  (:meth:`TopologyMigration.observe_writes`), so the copy never re-reads
  them and never publishes a stale value, no matter how the copy order
  interleaves with updates.
* **Barrier drain.**  When the remainder fits one batch, the migration
  finishes at that barrier with extra fixed-shape batches instead of
  trickling on, so a cutover always happens at a clean epoch boundary.

**What the adversary learns.**  Every batch has configuration-determined
shape, so the only new signal is the *number* of copy steps: it depends on
how many keys the deployment has materialised and on the foreground write
volume during the window — aggregate, data-independent quantities of the
kind epoch scheduling already reveals (cf. the paper's epoch-level leakage
discussion).  Key identities, values and access skew stay hidden.

The cutover itself — retiring the old proxy and installing the populated
target layer behind a new one — is the engine's job
(``ObladiEngine.reshard``); this module only moves data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import ObladiConfig
from repro.sharding.partitioned import PartitionedDataLayer

__all__ = ["MigrationReport", "TopologyMigration"]


@dataclass(frozen=True)
class MigrationReport:
    """Summary of one completed migration (``RunStats.migrations`` entry).

    ``initial_keys`` counts the keys enqueued when the migration began;
    ``copied_keys`` every key a copy batch published (re-copies included);
    ``write_through_keys`` the re-enqueues caused by foreground writes to
    keys already copied.  ``epochs`` is how many epoch barriers the window
    spanned, starting at epoch ``first_epoch``, ``copy_batches`` the total
    padded batches (``drain_batches`` of which ran at the final barrier).
    """

    from_generation: int
    to_generation: int
    from_topology: Tuple[int, int, int]
    to_topology: Tuple[int, int, int]
    epochs: int
    copy_batches: int
    drain_batches: int
    initial_keys: int
    copied_keys: int
    write_through_keys: int
    first_epoch: int


class TopologyMigration:
    """One in-flight background copy from a live proxy to a target layout.

    Construction builds the target generation's data layer over ``storage``
    (a tier the engine has grown to the target's server count) and
    snapshots the set of keys to move — the union of every source
    partition's key directory.
    The proxy then drives the migration: each ``run_epoch`` calls
    :meth:`step` at the barrier, and the epoch finaliser feeds committed
    writes through :meth:`observe_writes`.  When :attr:`done` turns true the
    engine may cut over; the populated layer is :attr:`layer`.
    """

    def __init__(self, proxy, target: ObladiConfig, storage) -> None:
        self.source = proxy.data_layer
        self.target_config = target
        self.storage = storage
        self.layer = PartitionedDataLayer(target, storage, proxy.clock, proxy.master_key)
        seeds = sorted({key for part in self.source.partitions
                        for key in part.directory.keys()})
        # Insertion-ordered copy queue: ``None`` means "read the committed
        # value from the source layer at copy time"; bytes mean the value is
        # already known (write-through from a foreground epoch).
        self.pending: Dict[str, Optional[bytes]] = {key: None for key in seeds}
        self.initial_keys = len(seeds)
        self.copied_keys = 0
        self.write_through_keys = 0
        self.copy_batches = 0
        self.drain_batches = 0
        self.epochs = 0
        self.first_epoch = proxy._epoch_counter
        self.done = not self.pending

    # ------------------------------------------------------------------ #
    # Foreground hooks (called by the proxy)
    # ------------------------------------------------------------------ #
    def observe_writes(self, items: Dict[str, bytes]) -> None:
        """Enqueue an epoch's committed write batch for (re-)copy.

        Values are carried into the queue directly, so a key that keeps
        being rewritten is always published at its *latest* committed value
        and never costs a source read.
        """
        if self.done:
            return
        for key, value in items.items():
            if key not in self.pending:
                self.write_through_keys += 1
            self.pending[key] = value

    def step(self) -> None:
        """Run this epoch barrier's copy work: one batch, or the final drain."""
        if self.done:
            return
        self.epochs += 1
        self._copy_batch()
        while self.pending and len(self.pending) <= self._batch_capacity():
            before = len(self.pending)
            self.drain_batches += 1
            self._copy_batch()
            if len(self.pending) >= before:  # pragma: no cover - defensive
                break
        if not self.pending:
            self.done = True

    # ------------------------------------------------------------------ #
    # Copy mechanics
    # ------------------------------------------------------------------ #
    def _batch_capacity(self) -> int:
        """Keys one copy batch can move while both layers keep their quotas."""
        src = (self.source.config.partition_read_batch_size
               * self.source.num_partitions)
        dst = (self.layer.config.partition_write_batch_size
               * self.layer.num_partitions)
        return max(1, min(src, dst))

    def _select(self) -> Tuple[List[str], List[str]]:
        """Pick the next batch's keys without overflowing either layout.

        Greedy prefix of the queue, capped per *source* partition at the
        source's read quota (only keys that still need a read consume it)
        and per *target* partition at the target's write quota — so both
        layers run exactly their configured padded shapes.  Keys that do not
        fit stay queued for the next barrier.
        """
        src_quota = self.source.config.partition_read_batch_size
        dst_quota = self.layer.config.partition_write_batch_size
        src_fill = [0] * self.source.num_partitions
        dst_fill = [0] * self.layer.num_partitions
        capacity = dst_quota * len(dst_fill)
        selected: List[str] = []
        reads: List[str] = []
        for key, value in self.pending.items():
            dst = self.layer.partition_of(key)
            if dst_fill[dst] >= dst_quota:
                continue
            if value is None:
                src = self.source.partition_of(key)
                if src_fill[src] >= src_quota:
                    continue
                src_fill[src] += 1
                reads.append(key)
            dst_fill[dst] += 1
            selected.append(key)
            if len(selected) >= capacity:
                break
        return selected, reads

    def _copy_batch(self) -> None:
        """One padded source read batch + one padded target write batch."""
        self.copy_batches += 1
        selected, reads = self._select()
        # Always run both fixed-shape batches, even when nothing (or only
        # write-through values) rides them: a copy step's physical shape
        # must not depend on what the queue happens to hold.
        values = self.source.execute_read_batch(
            reads, self.source.config.read_batch_size)
        # The reads buffer bucket rewrites (reshuffles) exactly like
        # foreground batches do; flush them now — the epoch's own flush has
        # already run, and the next epoch asserts an empty buffer.  What this
        # flush supersedes is still named by the last checkpoint; the next
        # epoch's collect deletes it, after that epoch commits.
        self.source.flush()
        items: Dict[str, bytes] = {}
        for key in selected:
            value = self.pending[key]
            if value is None:
                value = values.get(key)
            if value:
                # Directory entries without a stored value (keys only ever
                # read) have nothing to copy: absent reads as None in the
                # target layout exactly as it did in the source.
                items[key] = value
        self.layer.begin_epoch()
        self.layer.execute_write_batch(items, self.layer.config.write_batch_size)
        self.layer.flush()
        # Nothing durable names the target generation before the cutover
        # fence, so its superseded versions can go at once.
        self.layer.collect()
        for key in selected:
            del self.pending[key]
        self.copied_keys += len(selected)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def report(self) -> MigrationReport:
        """The migration's summary (stamped into ``RunStats.migrations``)."""
        source = self.source.config
        target = self.target_config
        return MigrationReport(
            from_generation=source.generation,
            to_generation=target.generation,
            from_topology=(source.shards, source.storage_servers,
                           source.proxy_workers),
            to_topology=(target.shards, target.storage_servers,
                         target.proxy_workers),
            epochs=self.epochs,
            copy_batches=self.copy_batches,
            drain_batches=self.drain_batches,
            initial_keys=self.initial_keys,
            copied_keys=self.copied_keys,
            write_through_keys=self.write_through_keys,
            first_epoch=self.first_epoch,
        )
