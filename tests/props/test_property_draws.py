"""Property-based tests: the inlined RNG loops ≡ the stdlib, draw for draw.

Every fixed-seed result of this repository — the ``sim_digest``s, the
adversary-trace hashes — hangs on the exact sequence of ``random`` draws.
The ORAM client replaces two stdlib calls on its hot path with loops that
skip the per-element Python call: :func:`repro.oram.metadata.shuffle_in_place`
for ``Random.shuffle`` and the dummy pick inside
:meth:`repro.oram.ring_oram.RingOram.plan_path_read` for ``Random.choice``.
From an equal ``getstate()`` each must give the stdlib's result *and* leave
the stdlib's state, or every later draw moves.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.oram import path_math
from repro.oram.metadata import BucketMeta, shuffle_in_place
from repro.oram.parameters import RingOramParameters
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
