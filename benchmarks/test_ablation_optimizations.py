"""Ablation benchmarks for Obladi's individual design choices.

These do not correspond to a single numbered figure; they quantify two
of Obladi's optimisations (stash-read caching, request deduplication) by
running the same workload with each optimisation toggled off or bounded.
The paper discusses both in §6.3 and §6.2.  Dummiless writes (§6.3) have
no toggle: the epoch executor writes no other way.
"""

import random

from repro.core.client import Read, Write
from repro.core.config import ObladiConfig, RingOramConfig
from repro.core.proxy import ObladiProxy

from .conftest import run_once


def make_proxy(num_keys, *, cache_stash=True, seed=5):
    config = ObladiConfig(
        oram=RingOramConfig(num_blocks=max(512, num_keys * 2), z_real=16, block_size=160),
        read_batches=3, read_batch_size=32, write_batch_size=32,
        backend="server", durability=False, encrypt=False, seed=seed,
        cache_stash_reads=cache_stash,
    )
    proxy = ObladiProxy(config)
    proxy.load_initial_data({f"k{i}": f"v{i}".encode() for i in range(num_keys)})
    return proxy


def run_mixed_workload(proxy, transactions=120, clients=12, seed=3):
    rng = random.Random(seed)
    remaining = transactions
    while remaining > 0:
        for _ in range(min(clients, remaining)):
            key = f"k{rng.randrange(64)}"

            def program(key=key):
                value = yield Read(key)
                yield Write(key, (value or b"")[:8] + b"+")
                return value

            proxy.submit(program)
        remaining -= min(clients, remaining)
        proxy.run_epoch()
    return proxy


def tree(proxy):
    """The proxy's one ORAM partition (these ablations run unsharded)."""
    return proxy.data_layer.partitions[0]


def test_ablation_stash_read_caching(benchmark, bench_scale):
    """Serving logically-stashed blocks locally saves read-batch slots."""

    def experiment():
        with_opt = run_mixed_workload(make_proxy(32, cache_stash=True))
        without_opt = run_mixed_workload(make_proxy(32, cache_stash=False))
        return with_opt, without_opt

    with_opt, without_opt = run_once(benchmark, experiment)
    hits_with = tree(with_opt).executor.lifetime_stats.stash_hits + \
        tree(with_opt).handler.stats_reads_served_from_cache
    print(f"\nAblation (stash-read caching): locally served reads with={hits_with}, "
          f"clock {with_opt.clock.now_ms:.1f}ms vs {without_opt.clock.now_ms:.1f}ms without")
    assert with_opt.clock.now_ms <= without_opt.clock.now_ms * 1.25


def test_ablation_write_deduplication(benchmark, bench_scale):
    """Only the last version of each bucket is written back per epoch."""

    def experiment():
        proxy = make_proxy(64)
        run_mixed_workload(proxy, transactions=90, clients=15)
        return proxy

    proxy = run_once(benchmark, experiment)
    part = tree(proxy)
    stats = part.executor.lifetime_stats
    print(f"\nAblation (write dedup): evictions={stats.evictions}, "
          f"bucket writes={stats.physical_writes}, "
          f"local buffer hits={stats.local_buffer_hits}")
    # Without deduplication every eviction would rewrite an entire path; the
    # deduplicated write-back must be strictly cheaper than that bound.
    slots_per_bucket = part.oram.params.slots_per_bucket
    naive_bound = stats.evictions * (part.oram.params.depth + 1) * slots_per_bucket
    assert stats.physical_writes < naive_bound
