"""Ring ORAM parameterisation.

Ring ORAM has four interacting parameters (paper Table 1):

* ``Z`` — real slots per bucket,
* ``S`` — dummy slots per bucket,
* ``A`` — accesses between evict-path operations,
* ``L`` — tree depth (number of non-root levels).

Ren et al. give an analytical model relating them; the Obladi paper reports
using ``Z = 100, S = 196, A = 168`` for its EC2 evaluation and choosing
``S`` and ``A`` "optimally" for a given ``Z``.  This module reproduces the
published parameter pairs and derives the tree depth from the object count.
The exact analytic optimisation is not re-derived (it has no effect on the
shape of the evaluation); instead we interpolate between the published
(Z, A, S) triples, which is what practitioners do when configuring Ring ORAM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple


#: (A, S) pairs published in the Ring ORAM paper / used by Obladi, keyed by Z.
PUBLISHED_PARAMETERS: Dict[int, Tuple[int, int]] = {
    4: (3, 6),
    8: (8, 12),
    16: (20, 25),
    32: (46, 53),
    50: (75, 87),
    100: (168, 196),
}


@dataclass(frozen=True)
class RingOramParameters:
    """Concrete Ring ORAM configuration.

    ``num_leaves == 2**depth`` and the tree can hold at most
    ``Z * (2**(depth+1) - 1)`` real blocks; the standard provisioning rule is
    ``N <= Z * 2**depth`` so that roughly half the capacity is headroom.
    """

    num_blocks: int
    z_real: int
    s_dummies: int
    evict_rate: int
    depth: int
    block_size: int = 64
    max_stash_blocks: int = 0

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ValueError("ORAM must hold at least one block")
        if self.z_real < 1:
            raise ValueError("Z must be at least 1")
        if self.s_dummies < 1:
            raise ValueError("S must be at least 1")
        if self.evict_rate < 1:
            raise ValueError("A must be at least 1")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        if self.block_size < 1:
            raise ValueError("block size must be positive")

    @property
    def num_leaves(self) -> int:
        """Leaves of the tree, ``2 ** depth``: the positions a block can map to."""
        return 1 << self.depth

    @property
    def num_buckets(self) -> int:
        """Buckets in the whole tree, root to leaves: ``2 ** (depth + 1) - 1``."""
        return (1 << (self.depth + 1)) - 1

    @property
    def slots_per_bucket(self) -> int:
        """Physical slots of one bucket, ``Z`` real plus ``S`` dummy."""
        return self.z_real + self.s_dummies

    @property
    def stash_bound(self) -> int:
        """Padding bound used when checkpointing the stash.

        Ring ORAM's stash is O(Z) with overwhelming probability; the
        reproduction pads checkpoints to ``max_stash_blocks`` if configured,
        otherwise to a conservative multiple of Z (matching the paper's
        requirement that the checkpointed stash never reveal skew).
        """
        if self.max_stash_blocks > 0:
            return self.max_stash_blocks
        return max(4 * self.z_real, 32)

    def physical_reads_per_access(self) -> int:
        """Slot reads per logical access (one per bucket on the path)."""
        return self.depth + 1

    def amortized_eviction_reads(self) -> float:
        """Average slot reads per access attributable to evictions."""
        return (self.depth + 1) * self.z_real / self.evict_rate

    def describe(self) -> str:
        """Human-readable one-line summary (used by the harness reports)."""
        return (
            f"RingORAM(N={self.num_blocks}, Z={self.z_real}, S={self.s_dummies}, "
            f"A={self.evict_rate}, L={self.depth}, block={self.block_size}B)"
        )


def partition_block_count(num_blocks: int, shards: int) -> int:
    """Blocks each of ``shards`` partitions must be able to hold.

    A partitioned data layer hashes the keyspace across independent ORAM
    trees; each tree is provisioned for its share of the objects (rounded
    up, so the union of the partitions always covers the full keyspace even
    under worst-case hash skew of one extra object per partition).  Smaller
    per-partition trees are shallower, which is where part of the sharded
    speedup comes from: each path read touches fewer buckets.
    """
    if num_blocks < 1:
        raise ValueError("num_blocks must be positive")
    if shards < 1:
        raise ValueError("need at least one partition")
    return max(1, math.ceil(num_blocks / shards))


def depth_for_blocks(num_blocks: int, z_real: int) -> int:
    """Smallest depth such that ``Z * 2**depth >= num_blocks``."""
    if num_blocks < 1:
        raise ValueError("num_blocks must be positive")
    if z_real < 1:
        raise ValueError("Z must be positive")
    leaves_needed = max(1, math.ceil(num_blocks / z_real))
    depth = max(1, math.ceil(math.log2(leaves_needed)))
    return depth


def published_a_s(z_real: int) -> Tuple[int, int]:
    """Return (A, S) for ``Z`` from the published table, interpolating if needed.

    For values of Z between published points we scale linearly from the
    nearest published Z below; this preserves the invariant ``A <= 2Z`` (the
    theoretical requirement for the stash bound) and ``S >= A`` (so a bucket
    survives A accesses between reshuffles).
    """
    if z_real in PUBLISHED_PARAMETERS:
        return PUBLISHED_PARAMETERS[z_real]
    known = sorted(PUBLISHED_PARAMETERS)
    base = known[0]
    for candidate in known:
        if candidate <= z_real:
            base = candidate
        else:
            break
    base_a, base_s = PUBLISHED_PARAMETERS[base]
    scale = z_real / base
    a = max(1, int(round(base_a * scale)))
    s = max(a, int(round(base_s * scale)))
    a = min(a, 2 * z_real)
    return a, s


def derive_parameters(num_blocks: int, z_real: int = 16, block_size: int = 64,
                      evict_rate: int = 0, s_dummies: int = 0,
                      max_stash_blocks: int = 0) -> RingOramParameters:
    """Build a full parameter set from an object count and bucket size.

    ``evict_rate`` and ``s_dummies`` default to the published optima for the
    chosen ``Z``; pass explicit values to override (tests use tiny trees with
    hand-picked parameters).
    """
    a, s = published_a_s(z_real)
    if evict_rate > 0:
        a = evict_rate
    if s_dummies > 0:
        s = s_dummies
    depth = depth_for_blocks(num_blocks, z_real)
    return RingOramParameters(
        num_blocks=num_blocks,
        z_real=z_real,
        s_dummies=s,
        evict_rate=a,
        depth=depth,
        block_size=block_size,
        max_stash_blocks=max_stash_blocks,
    )
