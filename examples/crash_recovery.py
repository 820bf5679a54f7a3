#!/usr/bin/env python3
"""Crash the proxy mid-epoch and recover it obliviously.

Obladi's durability story (paper §8): transactions become durable only at
epoch boundaries; the proxy checkpoints its metadata (position map,
permutations, stash, counters) every epoch and logs each read batch's access
locations before executing it.  After a crash, a fresh proxy restores the
last committed epoch, rolls the ORAM back to that epoch's bucket versions,
and replays the aborted epoch's logged paths so the storage server learns
nothing from the failure.

The engine API surfaces this as ``engine.crash()`` / ``engine.recover()``
(the Obladi engine sets ``supports_crash_recovery``; the baselines raise
``EngineFeatureUnavailable`` — they have no durability story to recover).
A crash at a chosen point is a storage outage: ``storage.fail(after=k)``
fails every request once k more keys have been written or deleted, and the
engine crashes its proxy on the error.

The crash here hits a deployment that grew while it ran: a live reshard
(``engine.reshard``) moves the data from one storage server onto two
partitions on two servers.  The WAL and the checkpoint chain stay on the
cluster's metadata server (server 0), so one outage of the whole tier and
one recovery cover both servers.

Run it with::

    python examples/crash_recovery.py
"""

from repro.api import EngineConfig, create_engine
from repro.core.client import Read, Write
from repro.elasticity import ReshardPlan


def main() -> None:
    config = (EngineConfig()
              .with_oram(num_blocks=1024, z_real=8, block_size=160)
              .with_batching(read_batches=3, read_batch_size=12, write_batch_size=12)
              .with_backend("server")
              .with_durability(True, checkpoint_frequency=2)
              .with_seed(9))
    engine = create_engine("obladi", config)
    engine.load_initial_data({f"doc:{i}": f"draft-{i}".encode() for i in range(40)})
    print("Engine started with durability on; initial checkpoint written "
          f"(supports_crash_recovery={engine.supports_crash_recovery}).\n")

    # Commit two epochs of edits (one submit_many wave = one epoch).
    for epoch in range(2):
        def edit_for(i, epoch=epoch):
            def edit():
                yield Read(f"doc:{i}")
                yield Write(f"doc:{i}", f"revision-{epoch}-{i}".encode())
                return True
            return edit

        results = engine.submit_many([edit_for(i) for i in range(5)])
        print(f"epoch wave {epoch}: committed {sum(r.committed for r in results)} edits")
    print("doc:1 is now:", engine.read("doc:1").decode(), "\n")

    # Grow onto a second storage server while serving: the copy rides the
    # next epoch barriers, then the engine cuts over behind a full checkpoint.
    def read_doc0():
        yield Read("doc:0")

    engine.reshard(ReshardPlan(shards=2, storage_servers=2))
    waves = 0
    while engine.reshard_in_flight:
        engine.submit_many([read_doc0])
        waves += 1
    config = engine.proxy.config
    print(f"resharded in {waves} waves: {config.shards} partitions on "
          f"{len(engine.storage.servers)} storage servers; doc:1 still reads "
          f"{engine.read('doc:1').decode()}\n")

    # Crash in the middle of the next epoch: the storage tier goes down once
    # the epoch has logged its first two read batches to the WAL, and the
    # proxy crashes on the failed request.
    engine.storage.fail(after=2)

    def doomed_edit():
        yield Read("doc:1")
        yield Write("doc:1", b"MUST-NOT-SURVIVE")
        return True

    try:
        engine.submit_many([doomed_edit])
    except ConnectionError as outage:
        print(f"storage outage mid-epoch ({outage}); proxy crashed: "
              f"{engine.proxy.crashed}\n")

    # Recover: only the master key survives; everything else comes from the
    # untrusted store.  The engine swaps in the recovered proxy.
    engine.storage.recover()
    report = engine.recover()
    print("recovery complete:")
    print(f"  recovered epoch        : {report.recovered_epoch}")
    print(f"  aborted epoch          : {report.aborted_epoch}")
    print(f"  total time             : {report.total_ms:.1f} simulated ms")
    print(f"    network              : {report.network_ms:.1f} ms")
    print(f"    position map         : {report.position_ms:.2f} ms "
          f"({report.position_entries} entries)")
    print(f"    permutation metadata : {report.permutation_ms:.2f} ms "
          f"({report.metadata_buckets} buckets)")
    print(f"    path replay          : {report.paths_ms:.2f} ms "
          f"({report.paths_replayed} logged requests re-read)")

    value = engine.read("doc:1")
    print(f"\ndoc:1 after recovery: {value.decode()!r} "
          "(the committed revision; the in-flight edit vanished with its epoch)")

    # And the recovered engine keeps serving transactions.
    def post_recovery_edit():
        yield Write("doc:1", b"post-recovery-edit")
        return True

    engine.submit(post_recovery_edit)
    print("doc:1 after a post-recovery edit:", engine.read("doc:1").decode())


if __name__ == "__main__":
    main()
