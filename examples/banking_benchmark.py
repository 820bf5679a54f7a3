#!/usr/bin/env python3
"""Compare Obladi against the non-private baselines on SmallBank.

This example reproduces, at laptop scale, the comparison behind Figure 9 for
one application: the SmallBank banking workload running on

* Obladi (oblivious, serializable, durable),
* NoPriv (same MVTSO concurrency control, plain remote storage), and
* a MySQL-like strict-2PL store,

in both the LAN (0.3 ms) and WAN (10 ms) settings, and prints the
throughput/latency table plus the privacy price Obladi pays.

Every system is a :class:`~repro.api.engine.TransactionEngine` built by
:func:`repro.api.create_engine`, so the whole comparison is one loop: same
workload object, same closed-loop driver, three engines.

Run it with::

    python examples/banking_benchmark.py
"""

from repro.api import EngineConfig, create_engine
from repro.harness.report import print_table
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload

TRANSACTIONS = 150
CLIENTS = 24
ACCOUNTS = 400


def fresh_workload():
    return SmallBankWorkload(SmallBankConfig(num_accounts=ACCOUNTS, seed=11))


def build_engine(kind: str, backend: str, num_blocks: int):
    config = (EngineConfig()
              .with_workload("smallbank")
              .with_backend(backend)
              .with_oram(num_blocks=num_blocks, z_real=16, block_size=192)
              .with_batching(read_batch_size=CLIENTS * 3, write_batch_size=CLIENTS * 2)
              .with_durability(True)
              .with_encryption(False)
              .with_seed(11))
    return create_engine(kind, config)


def run_system(kind: str, backend: str):
    workload = fresh_workload()
    data = workload.initial_data()
    engine = build_engine(kind, backend, num_blocks=2 * len(data))
    engine.load_initial_data(data)
    return engine.run_closed_loop(workload.transaction_factory,
                                  total_transactions=TRANSACTIONS, clients=CLIENTS)


def main() -> None:
    print(f"SmallBank, {ACCOUNTS} accounts, {CLIENTS} concurrent clients, "
          f"{TRANSACTIONS} transactions per system (simulated time)\n")

    rows = []
    runs = {}
    for label, kind, backend in (
        ("obladi", "obladi", "server"),
        ("nopriv", "nopriv", "server"),
        ("mysql", "mysql", "server"),
        ("obladi (WAN)", "obladi", "server_wan"),
        ("nopriv (WAN)", "nopriv", "server_wan"),
    ):
        run = run_system(kind, backend)
        runs[label] = run
        rows.append({
            "system": label,
            "throughput_tps": round(run.throughput_tps, 1),
            "mean_latency_ms": round(run.average_latency_ms, 2),
            "committed": run.committed,
            "abort_rate": round(run.abort_rate, 3),
        })

    print_table(rows, title="SmallBank: Obladi vs non-private baselines")

    obladi, nopriv = runs["obladi"], runs["nopriv"]
    print("The price of hiding access patterns (LAN):")
    print(f"  throughput: {nopriv.throughput_tps / max(obladi.throughput_tps, 1e-9):.1f}x lower")
    print(f"  latency:    {obladi.average_latency_ms / max(nopriv.average_latency_ms, 1e-9):.0f}x higher")
    print("\nThe paper reports Obladi within 5x-12x of NoPriv's throughput with a "
          "17x-70x latency penalty; the simulated reproduction should land in the "
          "same ballpark (see docs/FIGURES.md).")


if __name__ == "__main__":
    main()
