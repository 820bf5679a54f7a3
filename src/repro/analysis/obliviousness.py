"""Empirical obliviousness checks over storage traces.

Obladi's security argument reduces to properties of what the storage server
observes.  These helpers turn an :class:`~repro.storage.trace.AccessTrace`
into the statistics those properties are about:

* the distribution of ORAM *paths* (equivalently: leaf-level buckets) read —
  must be indistinguishable from uniform and, crucially, indistinguishable
  *between different logical workloads*;
* the bucket invariant — no physical slot is read twice between two writes
  of its bucket;
* the adversary-visible batch shape — must be a function of the
  configuration only.

A *partitioned* proxy (``shards > 1``) runs one Ring ORAM per storage
namespace (``p<i>/oram/...``); the storage provider sees which partition
each request targets, so indistinguishability must hold **per partition**.
:func:`partition_traces` splits a shared trace into per-partition traces
(prefixes stripped) so every helper in this module applies unchanged to
each partition's view.  When the partitions are hosted on *distinct*
storage servers (``storage_servers > 1``), each node runs its own observer
seeing only its own requests: :func:`server_traces` and
:func:`server_partition_traces` recover those per-node views so the same
checks can be asserted for every server independently.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

from repro.oram import path_math
from repro.storage.backend import StorageOp
from repro.storage.trace import AccessTrace

#: Storage-namespace prefix of one ORAM partition (see repro.storage.namespace).
_PARTITION_PREFIX = re.compile(r"^p(\d+)/")

#: Storage-namespace prefix of one topology generation (repro.elasticity):
#: generation g > 0 lives under ``g<g>/p<i>/...``; generation 0 keeps the
#: historical unprefixed namespace.
_GENERATION_PREFIX = re.compile(r"^g(\d+)/")


def split_generation_key(key: str) -> Tuple[int, str]:
    """Split a storage key into ``(generation, unprefixed_key)``.

    Keys without a generation namespace (everything a statically provisioned
    deployment ever writes) belong to generation 0.
    """
    match = _GENERATION_PREFIX.match(key)
    if match is None:
        return 0, key
    return int(match.group(1)), key[match.end():]


def generation_traces(trace: AccessTrace) -> Dict[int, AccessTrace]:
    """Split a storage trace into one trace per topology generation.

    During a live migration (:mod:`repro.elasticity`) a server hosts the
    retiring generation's namespaces *and* the target generation's
    ``g<g>/p<i>/`` namespaces; the adversary can tell them apart, so
    obliviousness must hold for each generation's view separately.  The
    returned traces have the generation prefix stripped — apply
    :func:`partition_traces` and the other helpers to each one directly.
    """
    return trace.split(split_generation_key)


def split_partition_key(key: str) -> Tuple[int, str]:
    """Split a storage key into ``(partition_index, unprefixed_key)``.

    Keys without a partition namespace (a single-tree proxy, or shared
    durability keys like ``wal/...``) belong to partition 0.
    """
    match = _PARTITION_PREFIX.match(key)
    if match is None:
        return 0, key
    return int(match.group(1)), key[match.end():]


def _parse_oram_key(key: str) -> Optional[Tuple[int, int, int]]:
    """Parse ``[p<i>/]oram/<bucket>/v<version>/s/<slot>`` keys; None otherwise."""
    _, key = split_partition_key(key)
    if not key.startswith("oram/"):
        return None
    parts = key.split("/")
    if len(parts) != 5:
        return None
    try:
        bucket = int(parts[1])
        version = int(parts[2][1:])
        slot = int(parts[4])
    except ValueError:
        return None
    return bucket, version, slot


def partition_traces(trace: AccessTrace) -> Dict[int, AccessTrace]:
    """Split a shared storage trace into one trace per ORAM partition.

    Events are grouped by their ``p<i>/`` storage namespace (no namespace →
    partition 0) with the prefix stripped, so each returned trace looks
    exactly like a single-tree proxy's trace and every helper in this module
    applies to it directly.  Batch boundaries are not partition-attributable
    (they interleave on the shared server) and are not carried over; compare
    per-partition request sequences instead.
    """
    return trace.split(split_partition_key)


def server_traces(storage) -> Dict[int, AccessTrace]:
    """One adversary trace per storage *server* of a deployment.

    A :class:`~repro.storage.cluster.StorageCluster` runs one observer per
    node: each server records only the requests it hosted, so the returned
    dict maps server index to that node's own trace.  A single server (the
    colocated topology) yields ``{0: trace}``.  Servers with trace recording
    disabled are omitted.  Keys inside each trace keep their partition
    namespaces (``p<i>/``); apply :func:`partition_traces` to a server's
    trace to split it further into the per-partition views, which is the
    granularity the indistinguishability argument must hold at.
    """
    traces = getattr(storage, "traces", None)
    if traces is None:
        trace = getattr(storage, "trace", None)
        return {} if trace is None else {0: trace}
    return {index: trace for index, trace in enumerate(traces) if trace is not None}


def server_partition_traces(storage) -> Dict[int, Dict[int, AccessTrace]]:
    """Per-server, per-partition adversary views of a deployment.

    The per-server variant of :func:`partition_traces`: maps each storage
    server's index to the partition-split (prefix-stripped) traces of the
    namespaces hosted on that server, so every helper in this module can be
    applied to each ``(server, partition)`` view independently — each
    storage-side observer must find its own view workload independent.
    """
    return {index: partition_traces(trace)
            for index, trace in server_traces(storage).items()}


def partition_trace_similarity(trace_a: AccessTrace, trace_b: AccessTrace,
                               depth: int) -> Dict[int, float]:
    """Per-partition total-variation distance between two traces.

    Workload independence of a partitioned proxy predicts every partition's
    distance stays small — the storage provider can watch each namespace
    separately, so no single partition may leak.  Partitions present in only
    one trace score the maximal distance 1.0.
    """
    split_a = partition_traces(trace_a)
    split_b = partition_traces(trace_b)
    distances: Dict[int, float] = {}
    for index in sorted(set(split_a) | set(split_b)):
        if index not in split_a or index not in split_b:
            distances[index] = 1.0
            continue
        distances[index] = trace_similarity(split_a[index], split_b[index], depth)
    return distances


def bucket_access_counts(trace: AccessTrace, op: Optional[StorageOp] = StorageOp.READ
                         ) -> Counter:
    """How often each ORAM bucket was touched."""
    counts: Counter = Counter()
    for key in trace.keys_accessed(op):
        parsed = _parse_oram_key(key)
        if parsed is None:
            continue
        counts[parsed[0]] += 1
    return counts


def leaf_access_counts(trace: AccessTrace, depth: int,
                       op: Optional[StorageOp] = StorageOp.READ) -> Counter:
    """Accesses per leaf-level bucket (a proxy for the paths read).

    Each path read touches exactly one leaf bucket, so the leaf histogram is
    the path histogram — the quantity the path invariant makes uniform.
    """
    counts: Counter = Counter()
    first_leaf = path_math.bucket_id(depth, 0)
    for bucket, total in bucket_access_counts(trace, op).items():
        if bucket >= first_leaf:
            counts[bucket - first_leaf] += total
    return counts


def chi_square_uniformity(counts: Dict[int, int], categories: int) -> Tuple[float, float]:
    """Chi-square statistic and its normal-approximated p-value against uniform.

    Returns ``(statistic, p_value)``.  With ``categories`` cells and ``n``
    observations the statistic is compared to a chi-square distribution with
    ``categories - 1`` degrees of freedom using the Wilson–Hilferty
    approximation, which is accurate enough for the test suite's purposes
    and avoids a scipy dependency in the hot path.
    """
    n = sum(counts.values())
    if n == 0 or categories <= 1:
        return 0.0, 1.0
    expected = n / categories
    statistic = 0.0
    for cell in range(categories):
        observed = counts.get(cell, 0)
        statistic += (observed - expected) ** 2 / expected
    dof = categories - 1
    # Wilson–Hilferty: (X/k)^(1/3) approx normal.
    z = ((statistic / dof) ** (1.0 / 3.0) - (1 - 2.0 / (9 * dof))) / math.sqrt(2.0 / (9 * dof))
    p_value = 0.5 * math.erfc(z / math.sqrt(2.0))
    return statistic, p_value


def trace_similarity(trace_a: AccessTrace, trace_b: AccessTrace, depth: int) -> float:
    """Total-variation distance between two traces' leaf-access distributions.

    Workload independence predicts this distance stays small (it is bounded
    by sampling noise) no matter how different the logical workloads are.
    Returns a value in [0, 1]; 0 means identical distributions.
    """
    counts_a = leaf_access_counts(trace_a, depth)
    counts_b = leaf_access_counts(trace_b, depth)
    total_a = sum(counts_a.values()) or 1
    total_b = sum(counts_b.values()) or 1
    leaves = 1 << depth
    distance = 0.0
    for leaf in range(leaves):
        pa = counts_a.get(leaf, 0) / total_a
        pb = counts_b.get(leaf, 0) / total_b
        distance += abs(pa - pb)
    return distance / 2.0


def slot_read_multiset(trace: AccessTrace) -> Dict[Tuple[int, int, int], int]:
    """Read counts per (bucket, version, slot) physical location."""
    counts: Dict[Tuple[int, int, int], int] = defaultdict(int)
    for key in trace.keys_accessed(StorageOp.READ):
        parsed = _parse_oram_key(key)
        if parsed is not None:
            counts[parsed] += 1
    return dict(counts)


def check_bucket_invariant(trace: AccessTrace) -> List[Tuple[int, int, int]]:
    """Physical slots read more than once between bucket rewrites.

    Ring ORAM's bucket invariant forbids this; an empty list means the
    invariant held for the whole trace.  (A slot may legitimately be read
    again after its bucket is rewritten, but rewrites bump the version in the
    key, so a repeat of the *same* (bucket, version, slot) triple is always a
    violation.)  Partitions are independent trees: the same triple in two
    different storage namespaces is not a collision.  Violations are
    reported as deduplicated ``(bucket, version, slot)`` triples; to
    attribute a violation to a partition, split the trace with
    :func:`partition_traces` and check each partition's view.
    """
    counts: Dict[Tuple[int, int, int, int], int] = defaultdict(int)
    for key in trace.keys_accessed(StorageOp.READ):
        partition, _ = split_partition_key(key)
        parsed = _parse_oram_key(key)
        if parsed is not None:
            counts[(partition,) + parsed] += 1
    violations = {location[1:] for location, count in counts.items() if count > 1}
    return sorted(violations)


def epoch_batch_pattern(trace: AccessTrace) -> List[str]:
    """The adversary-visible sequence of batch kinds ("read"/"write"/"delete").

    In a correct Obladi execution this sequence is ``R`` reads followed by
    one write and the delete of the versions that write superseded (as
    many slots as it wrote), repeated per epoch — a function of the
    configuration alone.
    Tests compare the pattern across workloads and against the expected
    regular structure.
    """
    return [kind for kind, _size in trace.batch_shape()]


def batch_shapes_equal(trace_a: AccessTrace, trace_b: AccessTrace) -> bool:
    """Whether two traces exposed identical (kind, size) batch sequences."""
    return trace_a.batch_shape() == trace_b.batch_shape()
