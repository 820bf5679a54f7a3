"""Heterogeneous-link sweep: one slow proxy-to-server link in the cluster.

``link_extra_rtt_ms`` has existed since the storage tier grew distinct
servers, but no benchmark swept it.  This sweep runs SmallBank over a
one-server-per-partition topology (``shards=4``, ``storage_servers=4``)
while adding round-trip time to *one* link, and pins the two claims that
make heterogeneous links safe to reason about:

* **Timing degrades with the slowest link.**  Partition batches fan out in
  parallel and the epoch charges the slowest partition, so the mean epoch
  wall-time grows monotonically with the slow link's extra RTT and
  throughput falls.
* **The shape never changes.**  Per-server request *counts* are a function
  of the configuration alone: every server observes exactly the same padded
  batches no matter how slow its link is.  A network adversary that can
  only time one link learns nothing about the workload from counts.
"""

from repro.api import EngineConfig, create_engine
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload

from .conftest import run_once

TRANSACTIONS = 96
CLIENTS = 24
EXTRA_RTTS_MS = (0.0, 2.0, 8.0)


def _run(extra_rtt_ms: float, num_accounts: int):
    workload = SmallBankWorkload(SmallBankConfig(num_accounts=num_accounts, seed=17))
    config = (EngineConfig()
              .with_workload("smallbank")
              .with_backend("server")
              .with_oram(num_blocks=max(4096, 2 * num_accounts), z_real=8,
                         block_size=192)
              .with_batching(read_batches=3, read_batch_size=64, write_batch_size=64,
                             batch_interval_ms=1.0)
              .with_durability(False)
              .with_encryption(False)
              .with_sharding(4)
              .with_storage_servers(4, link_extra_rtt_ms=(0.0, 0.0, 0.0, extra_rtt_ms))
              .with_seed(17))
    engine = create_engine("obladi", config)
    engine.load_initial_data(workload.initial_data())
    stats = engine.run_closed_loop(workload.transaction_factory,
                                   total_transactions=TRANSACTIONS, clients=CLIENTS)
    # A closed loop's clock moves only inside epochs.
    mean_epoch_ms = stats.elapsed_ms / stats.epochs
    return stats, mean_epoch_ms


def test_slow_link_costs_time_but_never_changes_the_shape(benchmark, bench_scale):
    num_accounts = max(400, int(4000 * bench_scale["workload_scale"]))

    def experiment():
        return [_run(extra, num_accounts) for extra in EXTRA_RTTS_MS]

    sweep = run_once(benchmark, experiment)
    print()
    for extra, (stats, mean_epoch_ms) in zip(EXTRA_RTTS_MS, sweep):
        print(f"  +{extra:4.1f} ms on link 3: {stats.throughput_tps:9.1f} txn/s, "
              f"mean epoch {mean_epoch_ms:7.2f} ms, "
              f"server reads {[reads for reads, _ in stats.server_physical]}")

    baseline_stats, baseline_epoch_ms = sweep[0]
    assert baseline_stats.committed > 0
    epochs = [mean_epoch_ms for _, mean_epoch_ms in sweep]
    throughputs = [stats.throughput_tps for stats, _ in sweep]
    # Timing: the slowest link dominates the parallel fan-out, so epoch
    # wall-time is monotonically non-decreasing in the extra RTT (strictly
    # worse at the far end) and throughput monotonically non-increasing.
    assert epochs == sorted(epochs)
    assert epochs[-1] > baseline_epoch_ms
    assert throughputs == sorted(throughputs, reverse=True)
    assert throughputs[-1] < baseline_stats.throughput_tps
    # Shape: the same transactions commit and every server observes exactly
    # the same request counts regardless of link speed.
    for stats, _ in sweep[1:]:
        assert stats.committed == baseline_stats.committed
        assert stats.server_physical == baseline_stats.server_physical
        assert stats.partition_physical == baseline_stats.partition_physical
