"""The engine adapter of the Obladi proxy.

:class:`ObladiEngine` owns one proxy (and, across crashes and reshard
cutovers, its successors) and maps the uniform
:class:`~repro.api.engine.TransactionEngine` surface onto it.  The
baselines need no adapter: :class:`~repro.baseline.nopriv.NoPrivEngine` and
:class:`~repro.baseline.mysql_like.MySQLEngine` are engines themselves.  The
wave loop, retrying and result bookkeeping all live in
:mod:`repro.api.loop`, :mod:`repro.api.results` and the ledger of
:class:`~repro.api.engine.TransactionEngine`; nothing here duplicates them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

from repro.api.engine import ProgramFactory, TransactionEngine
from repro.api.results import Counters, RunStats
from repro.core.client import TransactionResult
from repro.core.proxy import ObladiProxy


class ObladiEngine(TransactionEngine):
    """The Obladi proxy behind the engine interface.

    One ``submit_many`` wave is one proxy epoch: the wave's programs are
    queued, ``run_epoch`` executes them and hands back the epoch's results
    in submission order (admission preserves queue order), and those
    results enter the engine's ledger, with the epoch's committed
    transactions, the moment the epoch has committed.

    The engine must own the proxy's queue: programs submitted directly on
    the wrapped proxy in the middle of a wave would shift the id-to-program
    correspondence.
    """

    name = "obladi"
    supports_crash_recovery = True

    def __init__(self, proxy) -> None:
        self.proxy = proxy
        super().__init__()
        # Counters of proxies retired by crash/recover cycles (and by
        # reshard cutovers): outcomes and history live in the engine's
        # ledger, but I/O and CPU counters are the proxy's own.
        self._retired_counters = Counters()
        # Live-resharding state (repro.elasticity): a staged plan waits for
        # the next wave boundary, a running migration rides epoch barriers,
        # and completed windows leave their reports for RunStats.migrations.
        self._pending_reshard = None
        self._reshard_target = None
        self._migration = None
        self._migration_reports: list = []

    # -- data plane ----------------------------------------------------- #
    def load_initial_data(self, items: Dict[str, bytes]) -> None:
        self.proxy.load_initial_data(items)

    def submit_many(self, programs: Sequence[ProgramFactory]) -> List[TransactionResult]:
        # Programs reach the proxy as given: a generator object is one-shot,
        # so conflict repair must be able to tell it from a factory.
        if not programs:
            return []
        try:
            self._begin_staged_reshard()
            for program in programs:
                self.proxy.submit(program)
            # The epoch enters the ledger at its commit, so a crash in the
            # deletes and copy step after it, or in the cutover below,
            # cannot lose it.
            results = self.proxy.run_epoch(deliver=self._record_wave)
            if self._migration is not None and self._migration.done:
                self._cutover()
        except ConnectionError:
            # A storage outage is a proxy crash: what the epoch held in
            # memory is gone, and recover() rebuilds from what the servers
            # hold.
            self.crash()
            raise
        self._notify_wave(results)
        return results

    def open_loop_wave_limit(self) -> int:
        """One open-loop wave is one epoch: pipeline a full epoch batch.

        The epoch's read batch capacity (``b_read``) is how many concurrent
        first-round fetches an epoch can serve, so it is the natural
        admission size — waves larger than it would only convert queueing
        delay into batch-full aborts.
        """
        return max(1, self.proxy.config.read_batch_size)

    # -- introspection -------------------------------------------------- #
    def _stamp(self, stats: RunStats) -> None:
        """Attach the completed migration windows, which the engine owns."""
        stats.migrations = tuple(self._migration_reports)

    @property
    def clock(self):
        """The proxy's simulated clock."""
        return self.proxy.clock

    @property
    def storage(self):
        """The untrusted storage tier: each of its ``servers`` traces one adversary's view."""
        return self.proxy.storage

    @staticmethod
    def _proxy_counters(proxy) -> Counters:
        """What one proxy incarnation counted (the storage tier outlives it)."""
        reads, writes = proxy.data_layer.lifetime_physical()
        # One lane is no per-worker breakdown (the paper's single proxy).
        return Counters(
            physical_reads=reads, physical_writes=writes,
            partition_physical=proxy.data_layer.per_partition_physical(),
            worker_ops=proxy.worker_op_totals() if len(proxy.workers) > 1 else [],
            cpu_ms=proxy.cc_cpu_ms)

    def counters(self) -> Counters:
        """Lifetime counters: the current proxy's plus every retired proxy's.

        ``server_physical`` is read straight off the storage tier: the
        untrusted servers survive proxy crashes (recovery reuses the same
        store), so their counters are already lifetime totals and include
        durability traffic — this is the per-node observer's ledger, not the
        data layer's ORAM I/O.
        """
        return replace(
            self._retired_counters + self._proxy_counters(self.proxy),
            server_physical=[(server.stats_reads, server.stats_writes)
                             for server in self.proxy.storage.servers])

    # -- elastic topology ------------------------------------------------ #
    @property
    def reshard_in_flight(self) -> bool:
        """Whether a staged plan or running migration has yet to cut over."""
        return self._pending_reshard is not None or self._migration is not None

    def reshard(self, plan) -> None:
        """Stage a live topology change; it begins at the next wave boundary.

        Plans that move ORAM data (``shards``/``storage_servers``) run a
        padded background migration across the following epochs and cut over
        when the copy drains; pure ``proxy_workers`` changes cut over
        instantly at the boundary.  The plan is validated here, loudly,
        before anything is staged; a second reshard while one is in flight
        is rejected.
        """
        if self.reshard_in_flight:
            raise ValueError("a reshard is already in flight; "
                             "wait for its cutover")
        if plan.is_noop(self.proxy.config):
            return
        plan.resolve(self.proxy.config)   # surface invalid targets now
        self._pending_reshard = plan

    def _begin_staged_reshard(self) -> None:
        """Start the staged plan, if any, at this wave boundary."""
        if self._pending_reshard is None:
            return
        from repro.elasticity.migration import TopologyMigration
        plan = self._pending_reshard
        self._pending_reshard = None
        target = plan.resolve(self.proxy.config)
        self._reshard_target = target
        if not plan.requires_migration(self.proxy.config):
            # Pure proxy-tier rebalance: the data layer is handed over
            # untouched, so the barrier itself is the whole change.
            self._cutover()
            return
        # The tier grows in place (server 0 keeps the WAL and the checkpoint
        # chain); a scale-down keeps it, its departing servers idle from the
        # cutover on, so a crash mid-migration never touches the retiring
        # layout's servers.
        storage = self.proxy.storage
        if storage.num_servers < target.storage_servers:
            storage.resize(target.storage_servers)
        self._migration = TopologyMigration(self.proxy, target, storage)
        self.proxy._migration = self._migration

    def _cutover(self) -> None:
        """Retire the proxy and install the target topology behind a new one.

        Mirrors :meth:`recover`'s retirement bookkeeping — a cutover is a
        bloodless crash/recover: the engine's lifetime counters absorb the
        old proxy, the (migration-populated or handed-over) data layer moves
        behind a freshly built proxy, and MVTSO timestamps/transaction ids
        keep extending the same serialization order.  With durability on, a full checkpoint is written as the
        migration *fence*: recovery from any later crash finds only the new
        generation's chain, while a crash before this point never sees it —
        so the new proxy takes over the moment the fence's manifest is
        stored, before anything is deleted.  After the fence the retiring
        generation's slots are deleted.
        """
        old = self.proxy
        target = self._reshard_target
        migration = self._migration
        layer, storage = ((migration.layer, migration.storage) if migration is not None
                          else (old.data_layer, old.storage))
        # The layer follows the target topology; its epoch cache is reset by
        # the next begin_epoch before anything reads it.
        layer.config = target
        fresh = ObladiProxy(target, storage=storage, clock=old.clock,
                            master_key=old.master_key, data_layer=layer)
        fresh.mvtso.fast_forward(old.mvtso.next_timestamp, old.mvtso.next_txn_id)
        fresh._last_writer_ts.update(old._last_writer_ts)
        fresh._epoch_counter = old._epoch_counter

        fresh._checkpoint(full=True)
        if migration is not None:
            self._migration_reports.append(migration.report())
            old._migration = None
            self._migration = None
        self._retired_counters += self._proxy_counters(old)
        self.proxy = fresh
        self._reshard_target = None
        # Past the fence nothing reads the retiring generation; the server
        # has already seen the reshard, so deleting it leaks nothing new.
        fresh._collect()
        if migration is not None:
            migration.source.retire()

    # -- fault injection ------------------------------------------------ #
    def crash(self) -> None:
        self.proxy.crash()

    def recover(self):
        """Build a fresh proxy from the untrusted store; returns the report.

        The crashed proxy's committed work stays in the engine's ledger — a
        crash loses in-flight state, not the record of what already
        committed durably.  An in-flight reshard dies with the
        crash: its staged plan and half-copied target generation are
        volatile, and recovery lands on whichever side of the migration
        fence the durable chain reflects.  Recovery reads and deletes on
        the servers too: if an outage cuts it short, nothing here has
        changed and ``recover()`` can simply run again.
        """
        from repro.recovery.manager import recover_proxy
        old = self.proxy
        recovered, report = recover_proxy(
            old.storage, old.config, master_key=old.master_key,
            committed_epoch=(old.recovery.checkpoints.committed_epoch
                             if old.recovery is not None else None))
        self._retired_counters += self._proxy_counters(old)
        self._pending_reshard = None
        self._reshard_target = None
        self._migration = None
        # The engine's lifetime history spans proxy incarnations, so the new
        # proxy must *extend* the old serialization order, not restart it:
        # MVTSO timestamps define the multiversion order (and txn ids name
        # serialization-graph nodes), and the version-provenance map lets
        # post-crash reads of pre-crash values name their true writer.  In a
        # real deployment both ride the durable checkpoint with the epoch
        # counter; the simulation carries them across directly.
        recovered.mvtso.fast_forward(old.mvtso.next_timestamp,
                                     old.mvtso.next_txn_id)
        recovered._last_writer_ts.update(old._last_writer_ts)
        self.proxy = recovered
        return report

