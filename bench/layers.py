"""Per-layer metrics of one traced round.

Layers are this repo's packages.  ``*.ms_per_txn`` values are calibrated
self time (a span's duration minus its child spans) per committed
transaction, so they add up — with ``harness.unattributed_ms_per_txn`` — to
the traced window; counts come from public counters, from ``RunStats`` and
from the boundary counters of :mod:`trace`.  ``bench/README.md`` says which
end-to-end metric each of these should move, and on which workload.
"""

from __future__ import annotations

import statistics
from typing import Dict

import calibrate
from measure import Round, storage_snapshot


def _imbalance(pairs) -> float:
    """max / mean of per-lane totals; 1.0 for zero or one lane."""
    totals = [sum(pair) for pair in pairs]
    if len(totals) < 2 or not sum(totals):
        return 1.0
    return max(totals) / statistics.fmean(totals)


def layer_metrics(round_: Round) -> Dict[str, float]:
    """Every per-layer metric a single traced round can give."""
    stats, engine, counts = round_.stats, round_.engine, round_.tracer.counts
    phases = round_.tracer.summarize()
    run, setup = phases["bench.run"], phases["bench.setup"]
    committed = max(1, stats.committed)
    passes = round_.pass_seconds

    def per_txn(seconds: float) -> float:
        return calibrate.calibrated_ms(seconds, passes) / committed

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    harness_s = run.total("harness", "inclusive_s")
    attributed_s = run.duration_s - harness_s
    metrics: Dict[str, float] = {}

    # api ---------------------------------------------------------------- #
    metrics["api.waves"] = stats.epochs
    metrics["api.self_ms_per_txn"] = per_txn(run.total("api"))
    metrics["api.retries_per_txn"] = stats.retries / committed
    metrics["api.max_queue_depth"] = stats.max_queue_depth
    metrics["api.mean_queue_delay_ms"] = stats.average_queue_delay_ms
    metrics["api.dropped"] = stats.dropped
    metrics["api.failed_share"] = round_.failed / round_.offered
    metrics["api.unfinished"] = round_.unfinished

    # core --------------------------------------------------------------- #
    epochs = run.calls("core.run_epoch")
    metrics["core.epochs"] = epochs
    metrics["core.txns_per_epoch"] = ratio(stats.committed, epochs)
    metrics["core.self_ms_per_txn"] = per_txn(run.total("core"))
    metrics["core.read_slot_fill"] = ratio(counts["core.read_slots_real"],
                                           counts["core.read_slots_padded"])
    metrics["core.write_slot_fill"] = ratio(counts["core.write_slots_real"],
                                            counts["core.write_slots_padded"])
    metrics["core.epoch_sim_ms_mean"] = ratio(
        run.total("core.run_epoch", "sim_ms"), epochs)

    # concurrency -------------------------------------------------------- #
    cc_ops = run.calls("concurrency.read") + run.calls("concurrency.write")
    metrics["concurrency.cc_ops_per_txn"] = cc_ops / committed
    metrics["concurrency.ms_per_txn"] = per_txn(run.total("concurrency"))
    metrics["concurrency.abort_rate"] = stats.abort_rate
    for reason in ("write_conflict", "epoch_boundary", "batch_full"):
        metrics[f"concurrency.aborts_{reason}"] = stats.aborts_by_reason.get(reason, 0)
    metrics["concurrency.repaired"] = stats.repaired
    metrics["concurrency.repair_failed"] = stats.repair_failed
    metrics["concurrency.wasted_attempts_per_txn"] = stats.wasted_attempts / committed

    # proxytier ---------------------------------------------------------- #
    metrics["proxytier.worker_op_imbalance"] = _imbalance(stats.worker_ops)

    # sharding ----------------------------------------------------------- #
    read_calls = (run.calls("sharding.single.read_batch")
                  + run.calls("sharding.partitioned.read_batch"))
    write_calls = (run.calls("sharding.single.write_batch")
                   + run.calls("sharding.partitioned.write_batch"))

    def sharding(method: str, attr: str) -> float:
        return (run.total(f"sharding.single.{method}", attr)
                + run.total(f"sharding.partitioned.{method}", attr))

    metrics["sharding.read_batch_ms_per_txn"] = per_txn(sharding("read_batch", "inclusive_s"))
    metrics["sharding.write_batch_ms_per_txn"] = per_txn(sharding("write_batch", "inclusive_s"))
    metrics["sharding.flush_ms_per_txn"] = per_txn(sharding("flush", "inclusive_s"))
    metrics["sharding.self_ms_per_txn"] = per_txn(run.total("sharding"))
    metrics["sharding.partition_io_imbalance"] = _imbalance(stats.partition_physical)
    metrics["sharding.read_batch_sim_ms_mean"] = ratio(
        sharding("read_batch", "sim_ms"), read_calls)
    metrics["sharding.write_flush_sim_ms_mean"] = ratio(
        sharding("write_batch", "sim_ms") + sharding("flush", "sim_ms"), write_calls)

    # oram --------------------------------------------------------------- #
    metrics["oram.self_ms_per_txn"] = per_txn(run.total("oram"))
    metrics["oram.plan_path_read_ms_per_txn"] = per_txn(run.total("oram.plan_path_read"))
    metrics["oram.eviction_ms_per_txn"] = per_txn(run.total("oram.complete_eviction"))
    metrics["oram.bulk_load_s"] = calibrate.calibrated_ms(
        setup.total("oram.bulk_load", "inclusive_s"), round_.setup_pass_seconds) / 1000.0
    metrics["oram.path_reads_per_txn"] = run.calls("oram.plan_path_read") / committed
    totals = round_.counters.totals
    metrics["oram.evictions"] = totals["evictions"]
    metrics["oram.early_reshuffles"] = totals["early_reshuffles"]
    metrics["oram.stash_hits"] = totals["stash_hits"]
    metrics["oram.local_buffer_hits"] = totals["local_buffer_hits"]
    metrics["oram.bucket_writes_saved"] = totals["buffered_bucket_writes_saved"]
    metrics["oram.stash_peak_blocks"] = round_.counters.stash_peak_blocks

    # crypto ------------------------------------------------------------- #
    seal_s, open_s = run.total("crypto.seal"), run.total("crypto.open")
    metrics["crypto.seal_ms_per_txn"] = per_txn(seal_s)
    metrics["crypto.open_ms_per_txn"] = per_txn(open_s)
    metrics["crypto.sealed_slots_per_txn"] = counts["crypto.sealed_slots"] / committed
    metrics["crypto.opened_slots_per_txn"] = counts["crypto.opened_slots"] / committed
    metrics["crypto.seal_ns_per_byte"] = ratio(
        calibrate.calibrated_ms(seal_s, passes) * 1e6, counts["crypto.sealed_bytes"])
    metrics["crypto.open_ns_per_byte"] = ratio(
        calibrate.calibrated_ms(open_s, passes) * 1e6, counts["crypto.opened_bytes"])
    metrics["crypto.host_share"] = ratio(run.total("crypto"), attributed_s)

    # storage ------------------------------------------------------------ #
    before, after = round_.storage_before, storage_snapshot(engine)

    def grew(counter: str) -> int:
        return after[counter] - before[counter]

    user_bytes_written = sum(len(value or b"") for txn in engine.committed_history
                             for value in txn.write_set.values())
    metrics["storage.ms_per_txn"] = per_txn(run.total("storage"))
    metrics["storage.read_batch_calls"] = run.calls("storage.server.read_batch")
    metrics["storage.write_batch_calls"] = run.calls("storage.server.write_batch")
    metrics["storage.slots_read_per_txn"] = grew("reads") / committed
    metrics["storage.slots_written_per_txn"] = grew("writes") / committed
    metrics["storage.trace_events_per_txn"] = grew("trace_events") / committed
    metrics["storage.bytes_written_per_user_byte"] = ratio(
        grew("bytes_written"), user_bytes_written)
    metrics["storage.stored_bytes_per_user_byte"] = ratio(
        after["stored_bytes"], round_.user_bytes)

    # sim ---------------------------------------------------------------- #
    schedule_calls = run.calls("sim.schedule")
    metrics["sim.schedule_calls"] = schedule_calls
    metrics["sim.schedule_ops_per_call"] = ratio(counts["sim.schedule_ops"], schedule_calls)
    metrics["sim.schedule_ms_per_txn"] = per_txn(run.total("sim"))

    # recovery ----------------------------------------------------------- #
    metrics["recovery.wal_appends"] = run.calls("recovery.wal_append")
    metrics["recovery.wal_ms_per_txn"] = per_txn(
        run.total("recovery.log_read_batch") + run.total("recovery.wal_append"))
    metrics["recovery.checkpoints"] = run.calls("recovery.checkpoint")
    metrics["recovery.checkpoint_ms_per_txn"] = per_txn(run.total("recovery.checkpoint"))
    metrics["recovery.durable_bytes_per_txn"] = grew("durable_bytes") / committed

    # audit, elasticity -------------------------------------------------- #
    metrics["audit.ms_per_txn"] = per_txn(run.total("audit"))
    metrics["audit.retained_nodes_peak"] = (
        stats.audit.max_retained_nodes if stats.audit is not None else 0)
    migration = stats.migrations[0] if stats.migrations else None
    metrics["elasticity.migration_epochs"] = migration.epochs if migration else 0
    metrics["elasticity.copied_keys"] = migration.copied_keys if migration else 0
    metrics["elasticity.write_through_keys"] = (
        migration.write_through_keys if migration else 0)
    metrics["elasticity.self_ms_per_txn"] = per_txn(run.total("elasticity"))
    metrics["elasticity.step_ms_per_epoch"] = ratio(
        calibrate.calibrated_ms(run.total("elasticity.step", "inclusive_s"), passes),
        migration.epochs if migration else 0)

    # workloads ---------------------------------------------------------- #
    metrics["workloads.factory_ms_per_txn"] = per_txn(run.total("workloads"))
    metrics["workloads.initial_keys"] = round_.initial_keys
    metrics["workloads.user_bytes"] = round_.user_bytes

    # harness ------------------------------------------------------------ #
    metrics["harness.unattributed_ms_per_txn"] = per_txn(run.root_self_s)
    metrics["harness.attributed_ms_per_txn"] = per_txn(attributed_s)
    return metrics
