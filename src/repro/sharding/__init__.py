"""Partitioned oblivious storage: the :class:`DataLayer` seam.

The proxy's data path — key directory, version cache, Ring ORAM batches —
sits behind one interface with two implementations: a single tree
(:class:`SingleOramDataLayer`, the paper's proxy) and a hash-partitioned
set of parallel trees (:class:`PartitionedDataLayer`, the "sharded Obladi"
scale direction).  ``build_data_layer`` picks one from the configuration.

A partitioned layer also decides *where* each partition lives: with
``storage_servers > 1`` the partitions are hosted on distinct simulated
servers of a :class:`~repro.storage.cluster.StorageCluster`, each link timed
by its own latency model, and partition-batch fan-out is staggered across
``config.fanout_lanes`` lanes when partitions outnumber the proxy's
parallelism.

This package shards the *untrusted* data path; its trusted-tier sibling is
``repro.proxytier`` (same sha256 partition map, applied to proxy
workers).  ``docs/ARCHITECTURE.md`` walks both layers.
"""

from repro.sharding.data_layer import (DataLayer, OramPartition,
                                       SingleOramDataLayer, key_partition)
from repro.sharding.partitioned import PartitionedDataLayer, build_data_layer

__all__ = [
    "DataLayer",
    "OramPartition",
    "SingleOramDataLayer",
    "PartitionedDataLayer",
    "build_data_layer",
    "key_partition",
]
