"""Conflict repair vs retry at the contention knee.

Retry — the default conflict strategy — re-queues an MVTSO conflict loser
into the next wave and re-executes it from scratch, so at a contended hotspot
every retry has roughly the same probability of losing again and offered
load past the knee is amplified into wasted work.  Repair
(:mod:`repro.concurrency.repair`) instead re-executes the loser against the
winning versions inside the very epoch that detected the conflict, with a
fresh (highest) timestamp, so most losers are salvaged without another trip
through the load generator.

This benchmark runs :func:`repro.harness.experiments.run_repair_comparison`
— seeded-Poisson arrivals at multiples of each strategy's own closed-loop
ceiling — on the two contended workloads of the evaluation and pins:

* **Repair commits at least as much as retry at and past the knee** (2x
  and 4x the ceiling) on hotspot SmallBank and Zipfian(0.99) YCSB, and
  strictly reduces wasted attempts.
* **Repaired histories are serializable** — every repair-strategy point
  runs under the streaming auditor (``audit_ok``), and a direct run's
  committed history additionally passes the *offline* cycle check.
"""

from repro.api import EngineConfig, create_engine
from repro.concurrency import check_serializable
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload
from repro.harness.experiments import run_repair_comparison

from .conftest import run_once

AT_KNEE = 2.0
PAST_KNEE = 4.0
MULTIPLIERS = (AT_KNEE, PAST_KNEE)


def _print_rows(workload, rows):
    print()
    print(f"  {workload:10s} {'strategy':8s} {'mult':>5s} {'tps':>8s} "
          f"{'committed':>9s} {'aborted':>8s} {'repaired':>8s} {'wasted':>7s} "
          f"{'audit':>5s}")
    for row in rows:
        run = row.run
        print(f"  {'':10s} {row.series:8s} {row.x:5.1f} "
              f"{run.achieved_tps:8.1f} {run.committed:9d} {run.aborted:8d} "
              f"{run.repaired:8d} {run.wasted_attempts:7d} "
              f"{str(run.audit.ok):>5s}")


def test_repair_beats_retry_at_the_knee(benchmark, bench_scale):
    """Repair >= retry committed throughput at 2x/4x the knee, both workloads."""
    transactions = max(64, bench_scale["transactions"] // 2)
    num_accounts = max(60, int(2_000 * bench_scale["workload_scale"]))

    def sweep():
        return {workload: run_repair_comparison(
                    rate_multipliers=MULTIPLIERS, transactions=transactions,
                    clients=16, num_accounts=num_accounts, workload=workload)
                for workload in ("smallbank", "ycsb")}

    sweeps = run_once(benchmark, sweep)

    for workload, rows in sweeps.items():
        _print_rows(workload, rows)
        by_key = {(row.series, row.x): row.run for row in rows}
        assert set(by_key) == {(s, m) for s in ("retry", "repair")
                               for m in MULTIPLIERS}

        for multiplier in MULTIPLIERS:
            retry = by_key[("retry", multiplier)]
            repair = by_key[("repair", multiplier)]
            # The headline claim: at and past the knee, repair commits at
            # least as many transactions per second as retry...
            assert repair.achieved_tps >= retry.achieved_tps, (
                f"{workload} @{multiplier}x: repair {repair.achieved_tps:.1f} "
                f"< retry {retry.achieved_tps:.1f} tps")
            assert repair.committed >= retry.committed, (workload, multiplier)
            # ... by actually salvaging conflict losers, not by luck.
            assert repair.repaired > 0, (workload, multiplier)
            assert repair.wasted_attempts < retry.wasted_attempts, (
                workload, multiplier)
            # Retry never reports repair activity.
            assert retry.repaired == 0 and retry.repair_failed == 0
            # Every repaired run's history passed the streaming auditor.
            assert repair.audit.ok, (workload, multiplier)


def test_repair_smoke_offline_serializable(benchmark):
    """Smoke: a repaired hotspot run's history passes the offline checker.

    The sweep above certifies repaired histories with the *streaming*
    auditor; this cheap companion closes the loop with the offline cycle
    check on a direct closed-loop run, and doubles as the CI smoke test
    (``-k smoke``).
    """

    def contended_run():
        config = (EngineConfig()
                  .with_workload("smallbank")
                  .with_backend("server")
                  .with_oram(num_blocks=512, z_real=8, block_size=128)
                  .with_batching(read_batches=3, read_batch_size=32,
                                 write_batch_size=32)
                  .with_durability(False)
                  .with_encryption(False)
                  .with_conflict_strategy("repair")
                  .with_seed(11))
        engine = create_engine("obladi", config)
        workload = SmallBankWorkload(SmallBankConfig(
            num_accounts=50, hotspot_probability=0.9, seed=11))
        engine.load_initial_data(workload.initial_data())
        stats = engine.run_closed_loop(workload.transaction_factory,
                                       total_transactions=48, clients=16)
        return stats, engine.committed_history

    stats, history = run_once(benchmark, contended_run)
    assert stats.repaired > 0, "contended hotspot run should exercise repair"
    ok, cycle = check_serializable(history)
    assert ok, f"repaired history has a serialization cycle: {cycle}"
    assert stats.committed == len(history)
    print(f"\n  committed {stats.committed}  repaired {stats.repaired}  "
          f"offline serializable: {ok}")
