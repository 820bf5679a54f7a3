"""The Obladi proxy.

This is the trusted component of Figure 4: it admits transactions, runs
MVTSO concurrency control over an epoch-scoped version cache, schedules ORAM
reads into the epoch's fixed read batches, buffers writes, and at the end of
each epoch commits the survivors, writes back the final values, flushes the
buffered ORAM bucket rewrites, and checkpoints its metadata for durability.

Transactions are generator programs, read through
:class:`repro.core.client.ProgramRun` like on every engine.  The proxy
executes an epoch in *rounds*: in round ``r`` it advances every
runnable transaction until it blocks on an ORAM fetch, dispatches read batch
``r``, installs the fetched base values in the version cache, and resumes
the blocked transactions in the next round.  Transactions that need more
rounds than the epoch has read batches — or that find every remaining batch
full — abort, exactly as in the paper.

The proxy is an epoch executor with no client API of its own: clients reach
it through :class:`repro.api.ObladiEngine`, which drives it through
:meth:`ObladiProxy.submit`, :meth:`ObladiProxy.run_epoch` and
:meth:`ObladiProxy.crash`.

The proxy's concurrency control runs on ``config.proxy_workers`` lanes
(:class:`repro.proxytier.ProxyWorker`): every read and write is attributed
to the lane owning its key, the CC charge is the slowest lane, and with more
than one lane the epoch barrier is the lanes' vote.  One lane is the
paper's single proxy.

Layer context lives in ``docs/ARCHITECTURE.md`` ("Trusted proxy") and the
request-lifecycle diagram in ``docs/ARCHITECTURE.md`` ("Request lifecycle");
the lanes are ``docs/ARCHITECTURE.md`` "Distributed proxy tier".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple, Union

from repro.concurrency.mvtso import MVTSOManager, WriteConflictError
from repro.concurrency.transaction import (AbortReason, CommittedTransaction,
                                           TransactionRecord, TransactionStatus)
from repro.core.batch_manager import BatchManager
from repro.core.client import (ABORT, COMMIT, ProgramRun, TransactionProgram,
                               TransactionResult, Write)
from repro.core.config import ObladiConfig
from repro.core.errors import BatchFullError, ProxyCrashedError
from repro.proxytier.worker import BarrierStats, ProxyWorker
from repro.sharding.partitioned import PartitionedDataLayer, key_partition
from repro.sim.clock import SimClock
from repro.sim.scheduler import LaneStats
from repro.storage.backend import StorageServer

#: What ``run_epoch(deliver=...)`` is called with at the commit: the epoch's
#: results and its committed transactions.
_Deliver = Callable[[List[TransactionResult], List[CommittedTransaction]], None]


@dataclass
class _ActiveTransaction:
    """Book-keeping for one transaction while its epoch is running."""

    record: TransactionRecord
    run: ProgramRun
    program: Union[TransactionProgram, Generator]
    # Conflict repair: the txn id the client knows this transaction by (set
    # when a repair re-executes it under a fresh MVTSO record), and how many
    # repair attempts it has consumed this epoch.
    result_txn_id: Optional[int] = None
    repair_attempts: int = 0

    @property
    def finished(self) -> bool:
        """Whether its program has finished or been abandoned."""
        return self.run.outcome is not None

    @property
    def waiting(self) -> bool:
        """Whether its read request is unanswered (it waits on a batch)."""
        return self.run.pending is not None


class ObladiProxy:
    """Trusted proxy providing serializable, oblivious transactions."""

    def __init__(self, config: Optional[ObladiConfig] = None,
                 storage: Optional[StorageServer] = None,
                 clock: Optional[SimClock] = None,
                 master_key: Optional[bytes] = None,
                 data_layer=None) -> None:
        self.config = config if config is not None else ObladiConfig()
        self.clock = clock if clock is not None else SimClock()
        if storage is None:
            from repro.storage.cluster import build_storage
            storage = build_storage(self.config, clock=self.clock)
        self.storage = storage
        self.storage.clock = self.clock

        # The master key is the one secret that persists across proxy crashes;
        # every other key (ORAM blocks, WAL, checkpoints) is derived from it.
        import os as _os
        self.master_key = master_key if master_key is not None else _os.urandom(32)

        # The data path is one PartitionedDataLayer: one Ring ORAM tree, or —
        # with ``config.shards > 1`` — N hash-partitioned parallel trees.
        # A reshard cutover (repro.elasticity) injects the already-populated
        # next-generation layer instead of building a fresh empty one.
        self.data_layer = (data_layer if data_layer is not None
                           else PartitionedDataLayer(self.config, self.storage,
                                                     self.clock, self.master_key))

        # Concurrency control: one MVTSO manager over ``config.proxy_workers``
        # lanes, each owning the keys that hash to it.
        self.workers = [ProxyWorker(index) for index in range(self.config.proxy_workers)]
        self._worker_cache: Dict[str, int] = {}
        self.mvtso = MVTSOManager(self.workers, self.worker_of)
        self.batch_manager = BatchManager(
            self.config.read_batches, self.config.read_batch_size,
            self.config.write_batch_size,
            partitioner=self.data_layer.partition_of,
            read_partition_quota=self.config.partition_read_batch_size,
            write_partition_quota=self.config.partition_write_batch_size)

        self.recovery = None
        if self.config.durability:
            from repro.recovery.manager import RecoveryManager
            self.recovery = RecoveryManager(storage=self.storage, clock=self.clock,
                                            config=self.config, master_key=self.master_key)

        self._queue: List[_ActiveTransaction] = []
        self._epoch_counter = 0
        self._crashed = False
        # Live resharding (repro.elasticity): when a TopologyMigration is
        # attached, one padded copy step rides every epoch barrier.
        self._migration = None
        # Concurrency-control CPU accounting (``CpuCostModel.cc_op_ms``):
        # one lane per proxy worker, so one worker charges its CC work
        # serially.  With the default cost of 0.0 the clock is never touched.
        self.cc_cpu_ms = 0.0
        self.lane_stats = LaneStats()
        # Timestamp of the latest committed writer per key, across epochs.
        # Used only to annotate read sets with their version provenance so
        # that committed histories can be checked for serializability.
        self._last_writer_ts: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Concurrency-control lanes
    # ------------------------------------------------------------------ #
    def worker_of(self, key: str) -> int:
        """Index of the lane owning ``key``: :func:`repro.sharding.key_partition`
        over the lane count, cached per key (one lane owns every key, unhashed)."""
        if self.config.proxy_workers == 1:
            return 0
        index = self._worker_cache.get(key)
        if index is None:
            index = self._worker_cache[key] = key_partition(key, self.config.proxy_workers)
        return index

    def worker_op_totals(self) -> List[Tuple[int, int]]:
        """Lifetime ``(cc_reads, cc_writes)`` per lane."""
        return [(worker.stats_reads, worker.stats_writes) for worker in self.workers]

    @property
    def barrier_stats(self) -> BarrierStats:
        """Epoch-barrier vote accounting; all zero on one lane."""
        return self.mvtso.barrier_stats

    # ------------------------------------------------------------------ #
    # Public client API
    # ------------------------------------------------------------------ #
    def submit(self, program: Union[TransactionProgram, Generator]) -> None:
        """Queue a transaction program for the next epoch.

        ``program`` is either a zero-argument callable returning a generator
        or a generator object.  The transaction's timestamp (serialization
        order) is assigned when its epoch starts.
        """
        self._check_alive()
        placeholder = TransactionRecord(txn_id=-1, timestamp=-1, epoch=-1,
                                        start_time_ms=self.clock.now_ms)
        self._queue.append(_ActiveTransaction(record=placeholder,
                                              run=ProgramRun(program),
                                              program=program))

    def load_initial_data(self, items: Dict[str, bytes]) -> None:
        """Bulk-load a dataset before serving transactions.

        Values are placed directly into the ORAM tree(s) (see
        :meth:`repro.oram.ring_oram.RingOram.bulk_load`) and each
        partition's key directory learns its block ids.
        """
        self._check_alive()
        self.data_layer.bulk_load(items)
        self._checkpoint(full=True)
        self._collect()

    # ------------------------------------------------------------------ #
    # Epoch execution
    # ------------------------------------------------------------------ #
    def run_epoch(self, deliver: Optional[_Deliver] = None) -> List[TransactionResult]:
        """Execute one epoch over the queued transactions.

        Returns the epoch's results, one per queued program in submission
        order.  The proxy keeps no results or history of its own: what it
        hands over here is the only record of what its clients were told.
        ``deliver``, if given, receives the same results and the epoch's
        :class:`~repro.concurrency.transaction.CommittedTransaction`\\ s as
        soon as the epoch has committed, before any later storage request
        can fail: the engine enters both in its ledger there.  Raises
        :class:`ProxyCrashedError` if the proxy has crashed and has not been
        recovered.
        """
        self._check_alive()
        epoch_id = self._epoch_counter
        self._epoch_counter += 1
        start_ms = self.clock.now_ms

        self.data_layer.begin_epoch()
        self.batch_manager.reset_epoch()

        # Admission: every transaction waiting in the queue joins this epoch.
        admitted, self._queue = self._queue, []
        for active in admitted:
            record = self.mvtso.begin(epoch_id, now_ms=active.record.start_time_ms)
            record.start_time_ms = active.record.start_time_ms
            active.record = record

        # Round-based execution: one round per read batch.
        for round_index in range(self.config.read_batches):
            self._advance_transactions(admitted)
            batch = self.batch_manager.dispatch_next()
            if batch is None:
                break
            if self.recovery is not None:
                self.recovery.log_read_batch(epoch_id, batch.index, batch.keys,
                                             self.config.read_batch_size)
            self.data_layer.execute_read_batch(batch.keys, self.config.read_batch_size)
            self._deliver_values(admitted)
            self._finish_round(start_ms, round_index)

        # Give transactions one final chance to consume the last batch's
        # values and issue their remaining writes.
        self._advance_transactions(admitted, final_round=True)

        results = self._finalize_epoch(admitted, epoch_id, deliver)

        # Live resharding: one padded migration copy step rides each epoch
        # barrier (``repro.elasticity``); its reads from the retiring layer
        # land in the physical counters like any other traffic.
        if self._migration is not None:
            self._migration.step()
        return results

    def _finish_round(self, epoch_start_ms: float, round_index: int) -> None:
        """Close one read-batch round: charge CC CPU, wait for the boundary.

        Batches are dispatched at fixed intervals; if the round's work (the
        batch plus the concurrency-control CPU it triggered) finished early
        the proxy waits for the next boundary, so small CC costs are absorbed
        by the epoch's fixed shape and only a proxy-CPU-bound configuration
        stretches the epoch.
        """
        self._charge_cc()
        boundary = epoch_start_ms + (round_index + 1) * self.config.batch_interval_ms
        self.clock.advance_to(boundary)

    def _charge_cc(self) -> None:
        """Charge CPU for MVTSO operations performed since the last charge.

        Each CC lane's operations (one lane per proxy worker) cost
        ``CpuCostModel.cc_op_ms`` each and run on that lane alone, so the
        charge is the slowest lane.  A zero cost (the default) never touches
        the clock.
        """
        cost = self.config.cost_model.cc_op_ms
        if cost <= 0:
            return
        pending = self.mvtso.take_lane_ops()
        if not any(pending):
            return
        durations = [ops * cost for ops in pending]
        elapsed = self.lane_stats.charge(durations, len(durations))
        self.clock.advance(elapsed)
        self.cc_cpu_ms += elapsed

    # ------------------------------------------------------------------ #
    # Transaction stepping
    # ------------------------------------------------------------------ #
    def _advance_transactions(self, admitted: List[_ActiveTransaction],
                              final_round: bool = False) -> None:
        """Advance every runnable transaction until it blocks, finishes or aborts."""
        for active in admitted:
            if not (active.finished or active.record.is_finished or active.waiting):
                self._step_transaction(active, final_round)

    def _step_transaction(self, active: _ActiveTransaction, final_round: bool) -> None:
        """Run one transaction until it blocks on a fetch, finishes or aborts."""
        run = active.run
        while True:
            request = run.next()
            if request is COMMIT:
                active.record.request_commit()
                return
            if request is ABORT:
                self._abort(active, AbortReason.USER)
                return
            if isinstance(request, Write):
                if not self._apply_write(active, request):
                    return
                run.answer()
                continue
            values: Dict[str, Optional[bytes]] = {}
            missing: List[str] = []
            for key in request.keys:
                served, value = self._try_serve_read(active, key)
                if served:
                    values[key] = value
                else:
                    missing.append(key)
            if not missing:
                run.answer(values)
                continue
            if final_round:
                # No batches left this epoch: the transaction cannot make
                # progress and is aborted at the epoch boundary.
                self._abort(active, AbortReason.EPOCH_BOUNDARY)
                return
            try:
                for key in missing:
                    self.batch_manager.schedule_read(key)
            except BatchFullError:
                self._abort(active, AbortReason.BATCH_FULL)
            # Otherwise the request stays unanswered until its batch lands.
            return

    def _apply_write(self, active: _ActiveTransaction, operation: Write) -> bool:
        """Apply a write through MVTSO; aborts the transaction on conflict."""
        try:
            self.mvtso.write(active.record, operation.key, bytes(operation.value))
            return True
        except WriteConflictError:
            self._abort(active, AbortReason.WRITE_CONFLICT)
            return False

    def _record_base_read(self, active: _ActiveTransaction, key: str) -> None:
        """Annotate a read served from pre-epoch state with its provenance.

        The value came from the ORAM (or the stash), i.e. from the latest
        committed writer of an earlier epoch.  MVTSO recorded the read marker
        already; here we fix up the read-set entry so committed histories can
        be checked for serializability.
        """
        active.record.read_set[key] = self._last_writer_ts.get(key, -1)

    def _try_serve_read(self, active: _ActiveTransaction, key: str):
        """Serve a read from the version cache / stash if possible.

        Returns ``(served, value)``.  When ``served`` is False the read needs
        an ORAM batch slot.
        """
        cache = self.data_layer.cache
        chain = self.mvtso.store.get_chain(key)
        has_epoch_version = chain is not None and chain.latest_visible(
            active.record.timestamp) is not None
        if has_epoch_version:
            value, _writer = self.mvtso.read(active.record, key)
            return True, value
        if cache.has_base(key):
            self.mvtso.read(active.record, key)          # records marker, finds nothing
            self._record_base_read(active, key)
            return True, cache.base_value(key)
        if self.config.cache_stash_reads and self.data_layer.stash_resident(key):
            value = self.data_layer.stash_value(key)
            cache.install_base(key, value)
            self.mvtso.read(active.record, key)
            self._record_base_read(active, key)
            return True, value
        return False, None

    def _deliver_values(self, admitted: List[_ActiveTransaction]) -> None:
        """Unblock transactions whose awaited keys were fetched by the last batch."""
        cache = self.data_layer.cache
        for active in admitted:
            if not active.waiting or active.record.is_finished:
                continue

            def _available(key: str) -> bool:
                if cache.has_base(key):
                    return True
                chain = self.mvtso.store.get_chain(key)
                return (chain is not None
                        and chain.latest_visible(active.record.timestamp) is not None)

            keys = active.run.pending.keys
            if not all(_available(key) for key in keys):
                continue
            values: Dict[str, Optional[bytes]] = {}
            for key in keys:
                value, _writer = self.mvtso.read(active.record, key)
                if value is None:
                    value = cache.base_value(key)
                    self._record_base_read(active, key)
                values[key] = value
            active.run.answer(values)

    def _abort(self, active: _ActiveTransaction, reason: AbortReason) -> None:
        """Abort a transaction and everything that depends on it."""
        if active.record.is_finished:
            return
        self.mvtso.abort(active.record, reason, now_ms=self.clock.now_ms)
        active.run.close()

    # ------------------------------------------------------------------ #
    # Epoch finalisation
    # ------------------------------------------------------------------ #
    def _finalize_epoch(self, admitted: List[_ActiveTransaction], epoch_id: int,
                        deliver: Optional[_Deliver]) -> List[TransactionResult]:
        """Commit the epoch and return its results."""
        # The epoch barrier (the lanes' votes, if more than one) runs first.  CC
        # work from the final round (writes issued after the last batch
        # boundary) and the votes have no boundary to absorb them; charge
        # them up front so the commit timestamps below account for them.
        self.mvtso.prepare_epoch([active.record for active in admitted])
        self._charge_cc()
        now = self.clock.now_ms

        # Abort every transaction that is still unfinished (epoch boundary).
        for active in admitted:
            if not active.finished and not active.record.is_finished:
                self._abort(active, AbortReason.EPOCH_BOUNDARY)

        # Commit survivors in timestamp order, skipping cascaded aborts.
        for active in sorted(admitted, key=lambda a: a.record.timestamp):
            record = active.record
            if record.status is TransactionStatus.ABORTED:
                continue
            if record.status is not TransactionStatus.COMMIT_REQUESTED:
                self.mvtso.abort(record, AbortReason.EPOCH_BOUNDARY, now_ms=now)
                continue
            if not self.mvtso.can_commit(record):
                self.mvtso.abort(record, AbortReason.CASCADE, now_ms=now)

        # Conflict repair: with ``conflict_strategy="repair"`` the epoch's
        # conflict losers are re-executed against the winning versions now,
        # before the write batch is built, so salvaged transactions ride the
        # same padded batch their abort was detected in.
        if self.config.conflict_strategy == "repair":
            self._repair_conflict_losers(admitted, epoch_id, now)

        # The write batch may overflow; shed the youngest writers until it
        # fits.  The commit pass below aborts nothing, so the accepted set is
        # the one written back.
        while True:
            try:
                batch_items = self.batch_manager.build_write_batch(
                    self._collect_write_back(admitted))
                break
            except BatchFullError:
                victim = self._youngest_writer(admitted)
                self.mvtso.abort(victim.record, AbortReason.BATCH_FULL, now_ms=now)

        # Finalise commit status now that the shedding is done.
        for active in sorted(admitted, key=lambda a: a.record.timestamp):
            record = active.record
            if record.status is TransactionStatus.COMMIT_REQUESTED and self.mvtso.can_commit(record):
                self.mvtso.commit(record, now_ms=now)

        self.data_layer.execute_write_batch(batch_items, self.config.write_batch_size)
        # Write-through replication: a live migration (``repro.elasticity``)
        # must re-copy every key this epoch rewrote; hand it the committed
        # values directly so its copy steps never pick up the stale base
        # values this epoch's version cache holds for them.
        if self._migration is not None:
            self._migration.observe_writes(batch_items)
        self.data_layer.flush()

        # Durability: the epoch commits when its checkpoint's manifest is
        # stored (with durability off, once its writes are flushed).  A crash
        # before that point loses the epoch and a crash after it keeps it, so
        # that is where it enters the history.
        self._checkpoint(full=(epoch_id % self.config.checkpoint_frequency == 0))
        committed = self._record_commits(admitted, batch_items)
        # Shadow paging ends at the commit: nothing durable names the
        # checkpoint chain it replaced or the bucket versions the flush
        # superseded any more.  The epoch has committed, so its clients are
        # told even if one of these deletes fails.
        try:
            self._collect()
        finally:
            end_ms = self.clock.now_ms
            results = self._notify_clients(admitted, epoch_id, end_ms)
            if deliver is not None:
                deliver(results, committed)
        self.mvtso.reset_epoch_state()
        return results

    def _notify_clients(self, admitted: List[_ActiveTransaction], epoch_id: int,
                        end_ms: float) -> List[TransactionResult]:
        """Build the results of the epoch that committed at ``end_ms``."""
        # Client notification, in admission (= submission) order.  A
        # repaired transaction keeps reporting under its original txn id
        # (``result_txn_id``) even though its repaired execution ran under a
        # fresh MVTSO record.
        results = []
        for active in admitted:
            record = active.record
            committed = record.status is TransactionStatus.COMMITTED
            record.finish_time_ms = end_ms
            results.append(TransactionResult(
                txn_id=(record.txn_id if active.result_txn_id is None
                        else active.result_txn_id),
                committed=committed,
                return_value=active.run.return_value if committed else None,
                abort_reason=record.abort_reason.value if record.abort_reason else None,
                latency_ms=record.latency_ms(),
                epoch=epoch_id,
                repaired=active.repair_attempts > 0 and committed,
                repair_failed=active.repair_attempts > 0 and not committed,
            ))
        return results

    def _record_commits(self, admitted: List[_ActiveTransaction],
                        batch_items: Dict[str, bytes]) -> List[CommittedTransaction]:
        """Return a durable epoch's committed transactions, in admission order.

        Also records version provenance for future epochs' reads: the value
        the ORAM now returns for each key of the write batch is the one its
        latest committed writer wrote.
        """
        for active in sorted(admitted, key=lambda a: a.record.timestamp):
            record = active.record
            if record.status is not TransactionStatus.COMMITTED:
                continue
            for key in record.write_set:
                if key in batch_items:
                    self._last_writer_ts[key] = record.timestamp
        return [CommittedTransaction.from_record(active.record) for active in admitted
                if active.record.status is TransactionStatus.COMMITTED]

    #: Abort reasons the in-epoch repair pass may attempt to fix (a late
    #: write hit a read marker, or a dependency aborted).  Anything else —
    #: epoch-boundary starvation, a full batch, a crash, a voluntary abort —
    #: would replay identically, so repair skips it.
    _REPAIRABLE_REASONS = (AbortReason.WRITE_CONFLICT, AbortReason.CASCADE)

    def _repair_conflict_losers(self, admitted: List[_ActiveTransaction],
                                epoch_id: int, now: float) -> None:
        """In-epoch transaction repair: re-run conflict losers against the winners.

        For each admitted transaction that lost an MVTSO conflict (and only
        those — see ``_REPAIRABLE_REASONS``), re-execute its program under a
        fresh MVTSO record.  The fresh
        record gets the epoch's highest timestamp, so its re-reads observe
        exactly the winning versions (aborted versions are invisible) and
        its writes cannot conflict with any read marker already placed.
        Re-execution is *cache-only*: every key the epoch fetched is still
        resident, and repair must not trigger new ORAM batches — the
        epoch's padded read schedule is already fixed.  A repair that needs
        an unfetched key aborts at the epoch boundary and the transaction
        falls back to the loop drivers' retry path (``repair_failed``).

        Each transaction gets at most one repair attempt per epoch, and the
        client keeps seeing the original txn id (``result_txn_id``); the
        committed history records the repaired execution, which is the one
        whose reads and writes actually took effect.
        """
        repaired_records: List[TransactionRecord] = []
        for active in sorted(admitted, key=lambda a: a.record.timestamp):
            old = active.record
            if old.status is not TransactionStatus.ABORTED:
                continue
            if old.abort_reason not in self._REPAIRABLE_REASONS:
                continue
            if active.repair_attempts > 0 or not callable(active.program):
                continue
            active.repair_attempts += 1
            if active.result_txn_id is None:
                active.result_txn_id = old.txn_id
            fresh = self.mvtso.begin(epoch_id, now_ms=old.start_time_ms)
            fresh.start_time_ms = old.start_time_ms
            active.record = fresh
            active.run = ProgramRun(active.program())
            self._advance_transactions([active], final_round=True)
            if fresh.status is TransactionStatus.COMMIT_REQUESTED:
                repaired_records.append(fresh)
        if repaired_records:
            # A repaired record is fresh, so it goes through the barrier now.
            self.mvtso.prepare_epoch(repaired_records)
            for record in repaired_records:
                if not self.mvtso.can_commit(record):
                    self.mvtso.abort(record, AbortReason.CASCADE, now_ms=now)
        # Repair work is ordinary concurrency-control CPU; charge it before
        # the commit timestamps are taken.
        self._charge_cc()

    def _collect_write_back(self, admitted: List[_ActiveTransaction]) -> Dict[str, Optional[bytes]]:
        """Latest value per key among transactions that are still commit-eligible."""
        eligible = {}
        for active in sorted(admitted, key=lambda a: a.record.timestamp):
            record = active.record
            if record.status is TransactionStatus.ABORTED:
                continue
            for key, value in record.write_set.items():
                eligible[key] = value
        return eligible

    @staticmethod
    def _youngest_writer(admitted: List[_ActiveTransaction]) -> _ActiveTransaction:
        """The youngest not-yet-aborted transaction that wrote something.

        Only called while the write-back set is non-empty, so one exists.
        """
        return max((a for a in admitted
                    if a.record.status is not TransactionStatus.ABORTED and a.record.write_set),
                   key=lambda a: a.record.timestamp)

    # ------------------------------------------------------------------ #
    # Durability / crash handling
    # ------------------------------------------------------------------ #
    def _checkpoint(self, full: bool) -> None:
        """Store the last epoch's checkpoint, if durable: its manifest commits it."""
        if self.recovery is not None:
            self.recovery.checkpoint_data_layer(
                epoch_id=self._epoch_counter - 1,
                data_layer=self.data_layer,
                full=full,
            )

    def _collect(self) -> None:
        """Delete what the commit superseded.

        That is the checkpoint chain and WAL records it replaced, if
        durable, then the bucket versions the flushes replaced.
        """
        if self.recovery is not None:
            self.recovery.collect()
        self.data_layer.collect()

    def crash(self) -> None:
        """Simulate a proxy crash: all volatile state is lost.

        The engine calls this when a storage request fails: a storage outage
        (:meth:`repro.storage.memory.InMemoryStorageServer.fail`) is how a
        crash at a given storage mutation is injected.

        An in-flight migration dies with the proxy: its next-generation
        layer was volatile until the cutover fence, so recovery lands on the
        pre-reshard topology (the engine restarts the migration afterwards).
        """
        self._crashed = True
        self._queue.clear()
        self.data_layer.abort_epoch()
        self._migration = None

    @property
    def crashed(self) -> bool:
        """Whether :meth:`crash` ran; a crashed proxy refuses all work."""
        return self._crashed

    def _check_alive(self) -> None:
        if self._crashed:
            raise ProxyCrashedError("the proxy has crashed; recover() a new proxy first")
