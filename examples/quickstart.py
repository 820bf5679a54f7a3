#!/usr/bin/env python3
"""Quickstart: oblivious serializable transactions in a few lines.

This example stands up an Obladi engine backed by a (simulated) untrusted
cloud store through the unified API (:func:`repro.api.create_engine`), loads
a handful of records, and runs transactions three ways:

1. the interactive :meth:`~repro.api.engine.TransactionEngine.transaction`
   context manager,
2. generator transaction programs submitted as one epoch wave via
   ``engine.submit_many`` (the API the workloads use), and
3. a quick look at what the *storage server* observed — encrypted slots of
   fixed size, touched along uniformly random paths, none of which reveal
   which logical keys the transactions used.

The same ``create_engine`` call with kind ``"nopriv"`` or ``"mysql"`` runs
the identical programs on the paper's non-private baselines (see
``examples/banking_benchmark.py``).

Run it with::

    python examples/quickstart.py
"""

from repro.api import EngineConfig, create_engine
from repro.core.client import ReadMany, Write


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Configure and start the engine.
    # ------------------------------------------------------------------ #
    config = (EngineConfig()
              .with_oram(num_blocks=2_048, z_real=8, block_size=256)
              .with_batching(read_batches=3,        # R
                             read_batch_size=16,    # b_read
                             write_batch_size=16,   # b_write
                             batch_interval_ms=5.0)  # Δ
              .with_backend("server")               # 0.3 ms LAN storage
              .with_durability(True)
              .with_encryption(True)
              .with_seed(42))
    engine = create_engine("obladi", config)
    print("Started Obladi engine:", engine.proxy.config.describe())

    # Load an initial dataset (this also writes the first durable checkpoint).
    accounts = {f"account:{i}": f'{{"owner": "user{i}", "balance": {100 + i}}}'.encode()
                for i in range(20)}
    engine.load_initial_data(accounts)
    print(f"Loaded {len(accounts)} records into the ORAM "
          f"({engine.proxy.data_layer.partitions[0].oram.params.describe()})\n")

    # ------------------------------------------------------------------ #
    # 2. The interactive facade: read, write, commit.
    # ------------------------------------------------------------------ #
    txn = engine.transaction()
    balance_blob = txn.read("account:3")
    print("account:3 before:", balance_blob.decode())
    txn.write("account:3", b'{"owner": "user3", "balance": 1000}')
    # Reads see the transaction's own buffered writes before commit:
    print("account:3 inside txn:", txn.read("account:3").decode())
    result = txn.commit()
    print(f"interactive transaction committed in epoch {result.epoch} "
          f"(latency {result.latency_ms:.1f} simulated ms)\n")

    # ------------------------------------------------------------------ #
    # 3. Generator programs: the API used by the paper's workloads.
    # ------------------------------------------------------------------ #
    def transfer(src: str, dst: str, amount: int):
        """Move ``amount`` between two accounts, atomically."""
        import json

        rows = yield ReadMany([src, dst])
        src_row = json.loads(rows[src])
        dst_row = json.loads(rows[dst])
        src_row["balance"] -= amount
        dst_row["balance"] += amount
        yield Write(src, json.dumps(src_row).encode())
        yield Write(dst, json.dumps(dst_row).encode())
        return src_row["balance"], dst_row["balance"]

    # One submit_many wave = one epoch: the transfers commit together.
    results = engine.submit_many(
        [lambda i=i: transfer(f"account:{i}", f"account:{i + 10}", 25)
         for i in range(4)])
    print(f"epoch wave: committed={sum(r.committed for r in results)} "
          f"aborted={sum(not r.committed for r in results)}")

    def audit():
        rows = yield ReadMany([f"account:{i}" for i in range(20)])
        import json
        return sum(json.loads(v)["balance"] for v in rows.values())

    total = engine.submit(audit).return_value
    print("total balance across all accounts:", total, "\n")

    # ------------------------------------------------------------------ #
    # 4. What did the storage server see?
    # ------------------------------------------------------------------ #
    trace = engine.storage.servers[0].trace      # the tier's one server
    print("Adversary's view (a few physical requests):")
    for event in trace.events[-5:]:
        print(f"   {event.op.value:5s} {event.key:24s} {event.size_bytes} bytes")
    reads = trace.ops_by_kind()
    print(f"...and {len(trace)} requests total ({reads}).")
    read_batch_size = engine.proxy.config.read_batch_size
    epoch_batches = [(kind, size) for kind, size in trace.batch_shape()
                     if size >= read_batch_size]
    print("Logical batch pattern of the last epochs (kind, size):", epoch_batches[-4:])
    print("\nNo request names an application key, every ORAM slot is a fixed-size "
          "ciphertext, and the read batches are always padded to b_read regardless "
          "of how many real requests the epoch contained.")


if __name__ == "__main__":
    main()
