"""Proxy-tier smoke: sharded trusted MVTSO/version-cache workers on SmallBank.

The distributed proxy tier (``repro.proxytier``) scales the half of Obladi
the paper explicitly leaves single-node: the trusted proxy's concurrency
control.  Two claims are guarded:

* **Workers are free when CC CPU is negligible.**  At the default (unpriced)
  concurrency-control cost, ``proxy_workers=4`` must match the single proxy
  exactly — same commits, same simulated elapsed time — because routing and
  the epoch vote barrier change *who* does the work, never *what* the epoch
  looks like.
* **Workers win when the proxy is CPU-bound.**  With a priced per-operation
  CC cost (``CpuCostModel.cc_op_ms``) the single proxy charges its MVTSO
  work serially, while the coordinator charges the slowest worker lane per
  round; under a proxy-CPU-bound configuration SmallBank throughput with
  ``proxy_workers=4`` must be at least the single proxy's, and the realised
  lane speedup must be real (> 1).
"""


from repro.api import EngineConfig, create_engine
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload

from .conftest import run_once

TRANSACTIONS = 96
CLIENTS = 24


def _engine(proxy_workers: int, num_accounts: int, cc_op_ms: float = 0.0):
    config = (EngineConfig()
              .with_workload("smallbank")
              .with_backend("server")
              .with_oram(num_blocks=max(4096, 2 * num_accounts), z_real=8,
                         block_size=192)
              .with_batching(read_batches=3, read_batch_size=64, write_batch_size=64,
                             batch_interval_ms=1.0)
              .with_durability(False)
              .with_encryption(False)
              .with_proxy_workers(proxy_workers)
              .with_cc_cost(cc_op_ms)
              .with_seed(17))
    return create_engine("obladi", config)


def _run(proxy_workers: int, num_accounts: int, cc_op_ms: float = 0.0):
    workload = SmallBankWorkload(SmallBankConfig(num_accounts=num_accounts, seed=17))
    engine = _engine(proxy_workers, num_accounts, cc_op_ms)
    engine.load_initial_data(workload.initial_data())
    stats = engine.run_closed_loop(workload.transaction_factory,
                                   total_transactions=TRANSACTIONS, clients=CLIENTS)
    return stats, engine


def test_workers_free_at_unpriced_cc(benchmark, bench_scale):
    """Default cost model: proxy_workers=4 is behavior- and timing-identical
    to the single proxy (throughput >= trivially, as equality)."""
    num_accounts = max(400, int(4000 * bench_scale["workload_scale"]))

    def experiment():
        return _run(1, num_accounts), _run(4, num_accounts)

    (single, _), (sharded, sharded_engine) = run_once(benchmark, experiment)
    print()
    print(f"  workers=1: {single.throughput_tps:9.1f} txn/s, "
          f"committed {single.committed}")
    print(f"  workers=4: {sharded.throughput_tps:9.1f} txn/s, "
          f"committed {sharded.committed}")

    assert sharded.committed == single.committed > 0
    assert sharded.elapsed_ms == single.elapsed_ms
    assert sharded.throughput_tps >= single.throughput_tps
    # The trusted tier reports its per-worker CC breakdown.
    assert len(sharded.worker_ops) == 4
    assert sum(reads for reads, _ in sharded.worker_ops) > 0
    assert single.worker_ops == []
    # Nothing was charged: the barrier and routing are free at cc_op_ms=0.
    assert sharded.cpu_ms == 0.0
    assert sharded_engine.proxy.lane_stats.calls == 0


def test_workers_beat_single_proxy_when_cpu_bound(benchmark, bench_scale):
    """Proxy-CPU-bound configuration (priced CC ops): sharding the trusted
    tier must recover throughput the single proxy loses to serial MVTSO
    work — proxy_workers=4 >= single proxy, with a real lane speedup."""
    num_accounts = max(400, int(4000 * bench_scale["workload_scale"]))
    cc_op_ms = 0.02

    def experiment():
        return _run(1, num_accounts, cc_op_ms), _run(4, num_accounts, cc_op_ms)

    (single, single_engine), (sharded, sharded_engine) = run_once(
        benchmark, experiment)
    lanes = sharded_engine.proxy.lane_stats
    print()
    print(f"  workers=1: {single.throughput_tps:9.1f} txn/s, "
          f"cc cpu {single.cpu_ms:7.2f} ms (serial)")
    print(f"  workers=4: {sharded.throughput_tps:9.1f} txn/s, "
          f"cc cpu {sharded.cpu_ms:7.2f} ms "
          f"(lane speedup {lanes.speedup:.2f}x over "
          f"{lanes.serial_ms:.2f} ms serial)")

    assert sharded.committed == single.committed > 0
    assert sharded.throughput_tps >= single.throughput_tps
    # The single proxy paid the CC bill serially; the coordinator's lanes
    # charged strictly less wall-clock for at least as much work.
    assert 0 < sharded.cpu_ms < single.cpu_ms
    assert lanes.speedup > 1.0
    # Identical outcomes: the barrier voted every commit through unchanged.
    barrier = sharded_engine.proxy.barrier_stats
    assert barrier.transactions_voted > 0
    assert single_engine.proxy.cc_cpu_ms == single.cpu_ms
