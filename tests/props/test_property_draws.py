"""Property-based tests: the inlined RNG loops ≡ the stdlib, draw for draw.

Every fixed-seed result of this repository — the ``sim_digest``s, the
adversary-trace hashes — hangs on the exact sequence of ``random`` draws.
The ORAM client replaces three stdlib calls on its hot path with loops that
skip the stdlib's call layers: :func:`repro.oram.metadata.shuffle_in_place`
for ``Random.shuffle``, the dummy pick inside
:meth:`repro.oram.ring_oram.RingOram.plan_path_read` for ``Random.choice``,
and :meth:`repro.oram.position_map.PositionMap.draw_leaf` (every fresh leaf:
a first position, a remap, a dummy path) for ``Random.randrange``.  From an
equal ``getstate()`` each must give the stdlib's result *and* leave the
stdlib's state, or every later draw moves.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.oram import path_math
from repro.oram.metadata import BucketMeta, shuffle_in_place
from repro.oram.parameters import RingOramParameters
from repro.oram.position_map import PositionMap
from repro.oram.ring_oram import RingOram
from repro.storage.memory import InMemoryStorageServer

SIZES = [0, 1, 2, 25, 41, 100]
SEEDS = st.integers(0, 2 ** 64)


@pytest.mark.parametrize("n", SIZES)
@given(seed=SEEDS)
def test_shuffle_in_place_is_random_shuffle(n, seed):
    ours, stdlib = random.Random(seed), random.Random(seed)
    shuffled, expected = list(range(n)), list(range(n))
    shuffle_in_place(shuffled, ours.getrandbits)
    stdlib.shuffle(expected)
    assert shuffled == expected
    assert ours.getstate() == stdlib.getstate()


@pytest.mark.parametrize("num_leaves", [1, 2, 3, 256, 2 ** 20])
@given(seed=SEEDS)
def test_draw_leaf_is_random_randrange(num_leaves, seed):
    ours, stdlib = random.Random(seed), random.Random(seed)
    position_map = PositionMap(num_leaves, rng=ours)
    for _ in range(3):
        assert position_map.draw_leaf() == stdlib.randrange(num_leaves)
        assert ours.getstate() == stdlib.getstate()


@pytest.mark.parametrize("depth", [0, 1, 8])
@given(seed=SEEDS, block_id=st.integers(0, 1000))
def test_first_positions_remaps_and_dummy_paths_draw_as_randrange(depth, seed, block_id):
    """``lookup_or_assign`` (on first touch only), ``remap`` and a dummy path
    read's leaf each take one ``randrange(num_leaves)``.  Every bucket is
    consumed, so the path read draws nothing past its leaf."""
    params = RingOramParameters(num_blocks=4, z_real=4, s_dummies=6, evict_rate=3,
                                depth=depth, block_size=16)
    oram = RingOram(params, InMemoryStorageServer(), seed=seed)
    slots = params.slots_per_bucket
    for bid in range(params.num_buckets):
        oram.metadata._buckets[bid] = BucketMeta(bid, [None] * slots, valid=[False] * slots)
    stdlib = random.Random()
    stdlib.setstate(oram.rng.getstate())
    position_map, num_leaves = oram.position_map, params.num_leaves
    assert position_map.lookup_or_assign(block_id) == stdlib.randrange(num_leaves)
    assert position_map.lookup_or_assign(block_id) == position_map.lookup(block_id)
    assert position_map.remap(block_id) == stdlib.randrange(num_leaves)
    assert oram.plan_path_read(None).leaf == stdlib.randrange(num_leaves)
    assert oram.rng.getstate() == stdlib.getstate()


@pytest.mark.parametrize("n", SIZES)
@given(seed=SEEDS, leaf=st.integers(0, 7))
def test_planned_dummy_pick_is_random_choice(n, seed, leaf):
    """Each level's pick among ``n`` valid dummies is ``rng.choice`` of them
    (``n == 0``: the consumed-bucket branch, which draws nothing)."""
    params = RingOramParameters(num_blocks=32, z_real=4, s_dummies=6, evict_rate=3,
                                depth=3, block_size=16)
    oram = RingOram(params, InMemoryStorageServer(), seed=seed)
    path = path_math.path_buckets(leaf, params.depth)
    for bid in path:
        oram.metadata._buckets[bid] = BucketMeta(bid, [None] * n)
    stdlib = random.Random()
    stdlib.setstate(oram.rng.getstate())

    plan = oram.plan_path_read(None, force_dummy_path=leaf)

    expected = [(bid, stdlib.choice(range(n)) if n else 0, 0, None) for bid in path]
    assert plan.slot_reads == expected
    assert oram.rng.getstate() == stdlib.getstate()
    for bid, slot_index, _, _ in plan.slot_reads:
        meta = oram.metadata.bucket(bid)
        assert meta.valid_dummy_slots() == [i for i in range(n) if i != slot_index]
        assert meta.valid == [i != slot_index for i in range(n)]
