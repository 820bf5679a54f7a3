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
