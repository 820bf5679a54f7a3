"""Oblivious durability and crash recovery (paper §8).

Obladi makes transactions durable at epoch granularity: before an epoch is
declared committed, the proxy synchronously logs (encrypted, padded) copies
of its volatile metadata — position map, per-bucket permutations, the
valid/invalid map, the stash, the key directory and the eviction counter —
and, before every read batch, the list of storage locations the batch will
touch.  After a crash the proxy restores the last committed epoch's
metadata, rolls the ORAM back to that epoch's deterministic bucket versions,
and replays the logged read paths so the adversary observes exactly the same
accesses it would have seen without the failure.

A crash is injected as a storage outage
(:meth:`repro.storage.cluster.StorageCluster.fail`): ``fail(after=k)``
crashes the proxy right after its k-th storage mutation, so a test can crash
it at every one.
"""

from repro.recovery.wal import WriteAheadLog, WalRecord
from repro.recovery.checkpoint import CheckpointStore, CheckpointManifest
from repro.recovery.manager import RecoveryManager, RecoveryResult, recover_proxy

__all__ = [
    "WriteAheadLog",
    "WalRecord",
    "CheckpointStore",
    "CheckpointManifest",
    "RecoveryManager",
    "RecoveryResult",
    "recover_proxy",
]
