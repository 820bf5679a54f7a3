#!/usr/bin/env python
"""Profile the tier-1 hot path: a shards=4 SmallBank closed loop.

Runs the same configuration the sharding smoke benchmark exercises —
hash-partitioned Ring ORAM under the Obladi engine, SmallBank closed loop —
under :mod:`cProfile` and prints the top functions by cumulative and by
self time.  This is the profile that motivated the batched crypto and the
columnar ORAM client (see docs/ARCHITECTURE.md, "Performance"); re-run
it after touching the ORAM layer to check where the time actually goes.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/profile_hotpath.py [--transactions N]
        [--accounts N] [--shards N] [--no-encryption] [--top N] [--smoke]

``--smoke`` runs a tiny loop and only asserts that profiling works; CI uses
it so the script itself cannot rot.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time


def build_engine(shards: int, num_accounts: int, encrypt: bool, seed: int = 17):
    """The profiled engine: sharded Obladi over SmallBank, fixed seed."""
    from repro.api import EngineConfig, create_engine

    config = (EngineConfig()
              .with_workload("smallbank")
              .with_backend("server")
              .with_oram(num_blocks=max(4096, 2 * num_accounts), z_real=8,
                         block_size=192)
              .with_batching(read_batches=3, read_batch_size=64,
                             write_batch_size=64, batch_interval_ms=1.0)
              .with_durability(False)
              .with_encryption(encrypt)
              .with_sharding(shards)
              .with_seed(seed))
    return create_engine("obladi", config)


def run_workload(shards: int, num_accounts: int, transactions: int,
                 clients: int, encrypt: bool, seed: int = 17):
    """One fixed-seed closed-loop run; returns its ``RunStats``."""
    from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload

    workload = SmallBankWorkload(SmallBankConfig(num_accounts=num_accounts,
                                                 seed=seed))
    engine = build_engine(shards, num_accounts, encrypt, seed)
    engine.load_initial_data(workload.initial_data())
    return engine.run_closed_loop(workload.transaction_factory,
                                  total_transactions=transactions,
                                  clients=clients)


def main(argv=None) -> int:
    """Profile the closed loop and print the hottest functions."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--transactions", type=int, default=192)
    parser.add_argument("--clients", type=int, default=24)
    parser.add_argument("--accounts", type=int, default=400)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--no-encryption", action="store_true",
                        help="profile with the cipher disabled (pad-only)")
    parser.add_argument("--top", type=int, default=25,
                        help="rows to print per ranking")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run: just prove the profile pipeline works")
    args = parser.parse_args(argv)

    if args.smoke:
        args.transactions, args.clients, args.accounts = 24, 8, 100

    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    stats = run_workload(args.shards, args.accounts, args.transactions,
                         args.clients, encrypt=not args.no_encryption)
    profiler.disable()
    wall = time.perf_counter() - started

    print(f"committed={stats.committed} aborted={stats.aborted} "
          f"simulated_tps={stats.throughput_tps:.1f} wall={wall:.2f}s")
    ps = pstats.Stats(profiler, stream=sys.stdout)
    print("\n== top by cumulative time ==")
    ps.sort_stats("cumulative").print_stats(args.top)
    print("\n== top by self time ==")
    ps.sort_stats("tottime").print_stats(args.top)

    if args.smoke and stats.committed <= 0:
        print("profile smoke failed: nothing committed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
