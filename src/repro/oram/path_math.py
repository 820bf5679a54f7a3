"""Tree geometry and the deterministic eviction schedule.

Buckets are numbered heap-style: bucket 0 is the root; the bucket at level
``l`` (root is level 0) with in-level index ``i`` has id ``2**l - 1 + i``.
A *path* is identified by its leaf index in ``[0, 2**L)`` where ``L`` is the
number of non-root levels (so the tree has ``L + 1`` levels and ``2**L``
leaves).

Ring ORAM's evict-path schedule visits paths in *reverse-lexicographic*
order: the g-th eviction targets the leaf whose index is the bit-reversal of
``g mod 2**L``.  This ordering guarantees that a bucket at level ``l`` is
rewritten exactly once every ``2**l`` evictions, which Obladi exploits for
shadow-paging recovery: the number of times any bucket has been written is a
closed-form function of the global eviction counter (plus logged early
reshuffles).
"""

from __future__ import annotations

from typing import List


def tree_levels(num_leaves: int) -> int:
    """Number of non-root levels ``L`` for a tree with ``num_leaves`` leaves."""
    if num_leaves < 1 or num_leaves & (num_leaves - 1):
        raise ValueError(f"num_leaves must be a positive power of two, got {num_leaves}")
    return num_leaves.bit_length() - 1


def num_buckets(depth: int) -> int:
    """Total buckets in a tree of depth ``depth`` (levels 0..depth)."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    return (1 << (depth + 1)) - 1


def bucket_id(level: int, index: int) -> int:
    """Heap-style id of the bucket at ``level`` with in-level ``index``."""
    if level < 0:
        raise ValueError("level must be non-negative")
    if not 0 <= index < (1 << level):
        raise ValueError(f"index {index} out of range for level {level}")
    return (1 << level) - 1 + index


def bucket_level(bid: int) -> int:
    """Level of bucket ``bid`` (root is level 0)."""
    if bid < 0:
        raise ValueError("bucket id must be non-negative")
    return (bid + 1).bit_length() - 1


def bucket_index_in_level(bid: int) -> int:
    """In-level index of bucket ``bid``."""
    level = bucket_level(bid)
    return bid - ((1 << level) - 1)


def path_buckets(leaf: int, depth: int) -> List[int]:
    """Bucket ids on the path from the root to ``leaf`` (root first).

    ``depth`` is the number of non-root levels; ``leaf`` must be in
    ``[0, 2**depth)``.
    """
    if not 0 <= leaf < (1 << depth):
        raise ValueError(f"leaf {leaf} out of range for depth {depth}")
    return [(1 << level) - 1 + (leaf >> (depth - level)) for level in range(depth + 1)]


def bucket_on_path(bid: int, leaf: int, depth: int) -> bool:
    """Whether bucket ``bid`` lies on the path to ``leaf``."""
    level = bucket_level(bid)
    if level > depth:
        return False
    return bucket_index_in_level(bid) == (leaf >> (depth - level))


def deepest_common_level(leaf_a: int, leaf_b: int, depth: int) -> int:
    """Deepest level at which the paths to ``leaf_a`` and ``leaf_b`` intersect.

    Two paths always intersect at the root (level 0); they share levels
    ``0..k`` where ``k`` is the length of their common leaf-index prefix,
    ``depth - (leaf_a ^ leaf_b).bit_length()`` — the closed form the eviction
    write phase computes inline; this bit walk is the oracle it is tested
    against.
    """
    for leaf in (leaf_a, leaf_b):
        if not 0 <= leaf < (1 << depth):
            raise ValueError(f"leaf {leaf} out of range for depth {depth}")
    level = depth
    while level > 0 and (leaf_a >> (depth - level)) != (leaf_b >> (depth - level)):
        level -= 1
    return level


def reverse_bits(value: int, width: int) -> int:
    """Reverse the ``width`` low-order bits of ``value``."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    result = 0
    for _ in range(width):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


def eviction_path(g: int, depth: int) -> int:
    """Leaf targeted by the ``g``-th evict-path (reverse-lexicographic order)."""
    if g < 0:
        raise ValueError("eviction counter must be non-negative")
    if depth == 0:
        return 0
    return reverse_bits(g % (1 << depth), depth)


def eviction_count_for_bucket(bid: int, g: int, depth: int) -> int:
    """How many of the first ``g`` evictions rewrote bucket ``bid``.

    Bucket ``(l, i)`` is on the ``g``-th eviction path iff
    ``g mod 2**l == reverse_bits(i, l)``; counting solutions in ``[0, g)``
    gives a closed form.  Obladi's recovery relies on this determinism: the
    version of every bucket can be reconstructed from the eviction counter
    alone (early reshuffles, which are data-dependent, are WAL-logged
    separately).
    """
    if g < 0:
        raise ValueError("eviction counter must be non-negative")
    level = bucket_level(bid)
    if level > depth:
        raise ValueError(f"bucket {bid} is below the tree depth {depth}")
    if level == 0:
        return g
    period = 1 << level
    residue = reverse_bits(bucket_index_in_level(bid), level)
    if g <= residue:
        return 0
    return (g - residue - 1) // period + 1
