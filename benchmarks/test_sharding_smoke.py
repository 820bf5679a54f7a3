"""Sharding smoke: partitioned Obladi vs the single-tree proxy on SmallBank.

The partitioned data layer fans each epoch batch out across N independent
Ring ORAM trees and charges the *maximum* partition makespan (they run in
parallel), and each partition's tree is shallower (it holds 1/N of the
objects).  Both effects shrink the simulated epoch wall-time, so closed-loop
throughput at the same latency model must not regress — this is the "sharded
Obladi proxies" scale direction behind the ``DataLayer`` seam.

Two topology guards ride along: hosting the partitions on distinct storage
servers (one per partition, homogeneous links) must sustain the colocated
throughput, and over-sharding past the proxy's fan-out lanes
(``shards > parallelism``) must charge a *staggered* epoch wall-time that
lands strictly between the ideal-parallel and serial bounds instead of
pretending extra partitions are free.
"""

from repro.api import EngineConfig, create_engine
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload

from .conftest import run_once

TRANSACTIONS = 96
CLIENTS = 24


def _engine(shards: int, num_accounts: int, storage_servers: int = 1,
            parallelism=None):
    config = (EngineConfig()
              .with_workload("smallbank")
              .with_backend("server")
              .with_oram(num_blocks=max(4096, 2 * num_accounts), z_real=8,
                         block_size=192)
              .with_batching(read_batches=3, read_batch_size=64, write_batch_size=64,
                             batch_interval_ms=1.0)
              .with_durability(False)
              .with_encryption(False)
              .with_sharding(shards)
              .with_storage_servers(storage_servers)
              .with_seed(17))
    if parallelism is not None:
        config = config.with_parallelism(parallelism)
    return create_engine("obladi", config)


def _run(shards: int, num_accounts: int, storage_servers: int = 1,
         parallelism=None):
    workload = SmallBankWorkload(SmallBankConfig(num_accounts=num_accounts, seed=17))
    engine = _engine(shards, num_accounts, storage_servers, parallelism)
    engine.load_initial_data(workload.initial_data())
    stats = engine.run_closed_loop(workload.transaction_factory,
                                   total_transactions=TRANSACTIONS, clients=CLIENTS)
    # A closed loop's clock moves only inside epochs.
    mean_epoch_ms = stats.elapsed_ms / stats.epochs
    return stats, mean_epoch_ms, engine


def test_sharded_smallbank_throughput_and_epoch_time(benchmark, bench_scale):
    num_accounts = max(400, int(4000 * bench_scale["workload_scale"]))

    def experiment():
        return _run(1, num_accounts), _run(4, num_accounts)

    (single, single_epoch_ms, _), (sharded, sharded_epoch_ms, _) = run_once(
        benchmark, experiment)
    print()
    print(f"  shards=1: {single.throughput_tps:9.1f} txn/s, "
          f"mean epoch {single_epoch_ms:7.2f} ms, committed {single.committed}")
    print(f"  shards=4: {sharded.throughput_tps:9.1f} txn/s, "
          f"mean epoch {sharded_epoch_ms:7.2f} ms, committed {sharded.committed}")

    # Sharding the data layer must not lose throughput at the same latency
    # model, and the simulated epoch wall-time must shrink (partition batches
    # run in parallel over shallower trees).
    assert sharded.committed > 0
    assert sharded.throughput_tps >= single.throughput_tps
    assert sharded_epoch_ms < single_epoch_ms
    # The sharded engine reports its per-partition physical work.
    assert len(sharded.partition_physical) == 4
    assert sum(r for r, _ in sharded.partition_physical) == sharded.physical_reads


def test_per_partition_servers_sustain_colocated_throughput(benchmark, bench_scale):
    """One server per partition (homogeneous links) vs colocated namespaces:
    distributing the storage tier must not cost throughput, and every server
    must report the physical work of exactly its partition."""
    num_accounts = max(400, int(4000 * bench_scale["workload_scale"]))

    def experiment():
        return _run(4, num_accounts, storage_servers=1), \
            _run(4, num_accounts, storage_servers=4)

    (colocated, colocated_epoch_ms, _), (distributed, distributed_epoch_ms, _) = \
        run_once(benchmark, experiment)
    print()
    print(f"  colocated (1 server):  {colocated.throughput_tps:9.1f} txn/s, "
          f"mean epoch {colocated_epoch_ms:7.2f} ms")
    print(f"  per-partition servers: {distributed.throughput_tps:9.1f} txn/s, "
          f"mean epoch {distributed_epoch_ms:7.2f} ms")

    assert distributed.committed > 0
    assert distributed.throughput_tps >= colocated.throughput_tps
    # Each of the four servers observed its own partition's traffic.
    assert len(distributed.server_physical) == 4
    for (server_reads, server_writes), (part_reads, _part_writes) in zip(
            distributed.server_physical, distributed.partition_physical):
        assert server_reads == part_reads
        assert server_writes > 0


def test_overshard_staggers_between_ideal_and_serial(benchmark, bench_scale):
    """shards=8 over parallelism=4: partition batches do not all start at
    once — the fan-out wall-time must land strictly between the ideal
    parallel bound (max over partitions) and the serial bound (sum)."""
    num_accounts = max(400, int(4000 * bench_scale["workload_scale"]))

    def experiment():
        return _run(8, num_accounts, storage_servers=8, parallelism=4)

    stats, mean_epoch_ms, engine = run_once(benchmark, experiment)
    fanout = engine.proxy.data_layer.fanout_stats
    print()
    print(f"  shards=8/parallelism=4: {stats.throughput_tps:9.1f} txn/s, "
          f"mean epoch {mean_epoch_ms:7.2f} ms")
    print(f"  fan-out: ideal {fanout.ideal_ms:9.2f} ms  <  "
          f"staggered {fanout.actual_ms:9.2f} ms  <  "
          f"serial {fanout.serial_ms:9.2f} ms "
          f"({fanout.staggered}/{fanout.calls} fan-outs staggered)")

    assert stats.committed > 0
    assert fanout.staggered > 0
    assert fanout.ideal_ms < fanout.actual_ms < fanout.serial_ms
