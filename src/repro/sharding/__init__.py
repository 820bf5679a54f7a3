"""Partitioned oblivious storage: the proxy's data layer.

The proxy's data path — key directory, version cache, Ring ORAM batches —
is one class, :class:`PartitionedDataLayer`: ``config.shards`` hash-routed
Ring ORAM partitions whose one-partition case is the paper's single tree
and whose N-partition case is the "sharded Obladi" scale direction.

The layer also decides *where* each partition lives: with
``storage_servers > 1`` the partitions are hosted on distinct simulated
servers of a :class:`~repro.storage.cluster.StorageCluster`; every
partition is timed by its own link's latency model, and partition-batch
fan-out is staggered across ``config.fanout_lanes`` lanes when partitions
outnumber the proxy's parallelism.

This package shards the *untrusted* data path; its trusted-tier sibling is
``repro.proxytier`` (same sha256 partition map, applied to proxy
workers).  ``docs/ARCHITECTURE.md`` walks both layers.
"""

from repro.sharding.partitioned import (OramPartition, PartitionedDataLayer,
                                        key_partition)

__all__ = [
    "OramPartition",
    "PartitionedDataLayer",
    "key_partition",
]
