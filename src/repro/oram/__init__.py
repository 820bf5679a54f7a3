"""Ring ORAM substrate and the Obladi parallel batch executor.

Ring ORAM (Ren et al., 2015) is the tree-based ORAM Obladi builds on: a
binary tree of buckets, each holding ``Z`` real and ``S`` dummy slots behind
a per-bucket random permutation, a client-side stash, a position map, and a
fully deterministic reverse-lexicographic eviction schedule (one ``evict
path`` every ``A`` accesses).

The package has one planner and one executor.  The planner
(:class:`~repro.oram.ring_oram.RingOram`) is pure metadata logic: which
physical slots to touch and where blocks land.  The executor
(:class:`~repro.oram.batch_executor.EpochBatchExecutor`) issues the storage
requests for every plan, in Obladi's epoch batches — the parallel schedule
is a deterministic function of the sequential one (paper Lemma 2).  Plain
sequential Ring ORAM is the same executor at batch size 1, parallelism 1 and
immediate write-back.
"""

from repro.oram.parameters import RingOramParameters, derive_parameters
from repro.oram.ring_oram import RingOram
from repro.oram.batch_executor import EpochBatchExecutor
from repro.oram.crypto import CipherSuite

__all__ = [
    "RingOramParameters",
    "derive_parameters",
    "RingOram",
    "EpochBatchExecutor",
    "CipherSuite",
]
