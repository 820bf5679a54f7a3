"""Audit overhead: what continuous integrity checking costs.

The streaming auditor (:mod:`repro.audit`) rides along as a passive engine
observer, so its entire cost is wall-clock CPU on the auditing host — it
must not move a single *simulated* number.  This benchmark runs the same
fixed-seed SmallBank closed-loop workload twice, bare and audited, and pins
three claims:

* **Zero simulated perturbation.**  The audited run's ``RunStats`` repr is
  byte-identical to the bare run's (the ``audit`` field is excluded from
  repr), so every figure stays valid with auditing enabled.
* **Bounded memory.**  The auditor's retained-node high-water mark stays
  far below the total history it certified — the epoch-fenced GC collapses
  the settled prefix into per-key frontiers.
* **Modest wall-clock overhead.**  Maintaining the DSG incrementally costs
  a bounded multiple of the bare run's wall time (a loose 2x bound; in
  practice it is a few percent).

The overhead is measured as the audited/bare ratio of three *interleaved*
rounds after a discarded warm-up run — a single cold ``perf_counter``
sample per arm once put the *audited* arm ahead of the bare one (ratio
0.83), which is physically meaningless: the bare arm ran first and soaked
up the process's import/allocator warm-up, and host-speed drift between
the two measurement windows did the rest.  Even so the ratio of the same
code has read anywhere from 0.83 to 1.23 across commits, so the bound fails
only when *every* round exceeds it: one round on a busy host proves
nothing, three in a row do.  All three ratios are printed; nothing is
written to disk.
"""

import time

from repro.api import EngineConfig, create_engine
from repro.audit import AuditingObserver
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload

from .conftest import run_once


def _engine(num_accounts, clients, seed=11):
    config = (EngineConfig()
              .with_workload("smallbank")
              .with_backend("server")
              .with_oram(num_blocks=max(2048, 4 * num_accounts), z_real=8,
                         block_size=192)
              .with_batching(read_batches=3, read_batch_size=2 * clients,
                             write_batch_size=2 * clients)
              .with_durability(False)
              .with_encryption(False)
              .with_seed(seed))
    engine = create_engine("obladi", config)
    workload = SmallBankWorkload(SmallBankConfig(num_accounts=num_accounts,
                                                 seed=seed))
    engine.load_initial_data(workload.initial_data())
    return engine, workload


def test_audit_overhead(benchmark, bench_scale):
    """Bare vs audited run of the same fixed-seed workload."""
    transactions = bench_scale["transactions"]
    clients = bench_scale["clients"]
    num_accounts = max(200, int(10_000 * bench_scale["workload_scale"]))

    def arm(audited):
        engine, workload = _engine(num_accounts, clients)
        if audited:
            engine.attach_observer(AuditingObserver())
        started = time.perf_counter()
        stats = engine.run_closed_loop(workload.transaction_factory,
                                       total_transactions=transactions,
                                       clients=clients)
        return stats, time.perf_counter() - started

    def pair():
        # Discarded warm-up: the first run in a fresh process pays import,
        # allocator and cache warm-up that would otherwise land entirely in
        # whichever arm is timed first (it once made the *audited* arm look
        # 17% faster than bare).
        arm(False)
        # Three interleaved bare/audited rounds: back-to-back pairs share
        # whatever thermal/scheduling state the host is in, so the per-round
        # *ratio* is robust to the slow drift that independent samples of
        # each arm are hostage to.
        rounds = [(arm(False), arm(True)) for _ in range(3)]
        ratios = [audited_wall / max(bare_wall, 1e-9)
                  for (_, bare_wall), (_, audited_wall) in rounds]
        (bare, _), (audited, _) = rounds[-1]
        return bare, audited, ratios

    bare, audited, ratios = run_once(benchmark, pair)

    # Claim 1: the simulation is untouched — byte-identical RunStats.
    assert bare.audit is None and audited.audit is not None
    assert repr(bare) == repr(audited)

    # Claim 2: the history is certified with bounded memory.
    report = audited.audit
    assert report.ok, report.violations[:1]
    assert report.txns_ingested == audited.committed
    assert report.txns_settled > report.txns_ingested / 2
    # Retention is bounded by the settle window (settle_lag + 1 waves of at
    # most ``clients`` transactions), independent of how long the run is.
    assert report.max_retained_nodes <= 3 * clients
    assert report.max_retained_nodes < report.txns_ingested

    # Claim 3: loose wall-clock bound.  A slow round on a shared host is
    # weather; the claim fails only when no round comes in under the bound.
    print("\n  audited/bare wall clock per round: "
          + "  ".join(f"{ratio:5.2f}x" for ratio in ratios))
    assert min(ratios) < 2.0, (
        f"auditing cost {min(ratios):.2f}x wall clock in its best round")

    print(f"  ingested {report.txns_ingested}   settled {report.txns_settled}"
          f"   retained high-water {report.max_retained_nodes} nodes"
          f" / {report.max_retained_edges} edges")
