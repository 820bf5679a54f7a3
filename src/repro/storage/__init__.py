"""Untrusted cloud storage.

The storage tier is the *untrusted* half of Obladi's two-tier architecture:
a :class:`StorageCluster` of one or more servers that store encrypted ORAM
buckets, the write-ahead log, and checkpoints, controlled by an
honest-but-curious adversary.  Everything a server observes — which
addresses are read or written, when, and in what sizes — is recorded in its
:class:`repro.storage.trace.AccessTrace` so the analysis package can verify
workload independence empirically.  The servers keep
bytes and count requests; simulated time is charged by the proxy.
"""

from repro.storage.backend import StorageServer, StorageOp
from repro.storage.cluster import StorageCluster
from repro.storage.memory import InMemoryStorageServer
from repro.storage.namespace import NamespacedStorage, partition_prefix
from repro.storage.trace import AccessTrace, TraceEvent

__all__ = [
    "StorageServer",
    "StorageOp",
    "InMemoryStorageServer",
    "StorageCluster",
    "NamespacedStorage",
    "partition_prefix",
    "AccessTrace",
    "TraceEvent",
]
