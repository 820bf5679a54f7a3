"""Property-based tests: vectorised path math and batched crypto ≡ scalar.

The hot-path PR replaced per-slot loops with batched helpers —
:func:`repro.oram.path_math.path_buckets_many` and friends, and
:meth:`repro.oram.crypto.CipherSuite.encrypt_many` /
:meth:`~repro.oram.crypto.CipherSuite.decrypt_many` — each with a
pure-python fallback behind the same API for numpy-less installs.  Every
property here pins the only contract that matters: over random depths,
leaves and payloads the batched form produces *exactly* the values of the
scalar form it replaced, with and without numpy.
"""

import hashlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.oram import path_math
from repro.oram.crypto import CipherSuite, IntegrityError, freshness_context

DEPTHS = st.integers(min_value=0, max_value=11)


def _as_list(result):
    """Normalise an ArrayLike (numpy array or nested list) to plain lists."""
    tolist = getattr(result, "tolist", None)
    return tolist() if tolist is not None else result


@st.composite
def depth_and_leaves(draw, max_leaves=64):
    depth = draw(DEPTHS)
    leaves = draw(st.lists(
        st.integers(min_value=0, max_value=(1 << depth) - 1),
        min_size=0, max_size=max_leaves))
    return depth, leaves


#: The ``numpy_mode`` fixture is function-scoped by design — the chosen mode
#: holds for *every* hypothesis example of a test, so the health check's
#: worry (fixture state leaking between examples) does not apply.
MODE_SETTINGS = settings(
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(params=["numpy", "fallback"])
def numpy_mode(request, monkeypatch):
    """Run each property against the numpy path AND the pure-python fallback."""
    if request.param == "fallback":
        monkeypatch.setattr(path_math, "_np", None)
    elif path_math._np is None:  # pragma: no cover - numpy is baked in
        pytest.skip("numpy not installed")
    return request.param


class TestVectorisedPathMath:
    @MODE_SETTINGS
    @given(depth_and_leaves())
    def test_path_buckets_many_matches_scalar(self, numpy_mode, case):
        depth, leaves = case
        rows = _as_list(path_math.path_buckets_many(leaves, depth))
        assert rows == [path_math.path_buckets(leaf, depth) for leaf in leaves]

    @MODE_SETTINGS
    @given(DEPTHS, st.lists(st.integers(min_value=0, max_value=2**14),
                            min_size=0, max_size=64))
    def test_buckets_on_path_matches_scalar(self, numpy_mode, depth, bids):
        leaf = sum(bids) % (1 << depth)
        flags = _as_list(path_math.buckets_on_path(bids, leaf, depth))
        assert list(flags) == [path_math.bucket_on_path(bid, leaf, depth)
                               for bid in bids]

    @MODE_SETTINGS
    @given(depth_and_leaves())
    def test_deepest_common_levels_matches_scalar(self, numpy_mode, case):
        depth, leaves = case
        target = leaves[0] if leaves else 0
        levels = _as_list(path_math.deepest_common_levels(leaves, target, depth))
        assert list(levels) == [
            path_math.deepest_common_level(leaf, target, depth)
            for leaf in leaves]

    @MODE_SETTINGS
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=80), DEPTHS)
    def test_eviction_paths_matches_scalar(self, numpy_mode, start, count, depth):
        paths = _as_list(path_math.eviction_paths(start, count, depth))
        assert list(paths) == [path_math.eviction_path(g, depth)
                               for g in range(start, start + count)]

    @MODE_SETTINGS
    @given(DEPTHS)
    def test_out_of_range_leaf_rejected_either_way(self, numpy_mode, depth):
        with pytest.raises(ValueError):
            path_math.path_buckets_many([1 << depth], depth)
        with pytest.raises(ValueError):
            path_math.deepest_common_levels([0], 1 << depth, depth)

    def test_fallback_and_numpy_agree(self, monkeypatch):
        """Direct cross-check: same inputs through both implementations."""
        if path_math._np is None:  # pragma: no cover - numpy is baked in
            pytest.skip("numpy not installed")
        depth, leaves = 7, [0, 1, 63, 64, 127, 127, 42]
        bids = list(range(40)) + [1000, 2**13]
        fast = (_as_list(path_math.path_buckets_many(leaves, depth)),
                _as_list(path_math.buckets_on_path(bids, 99, depth)),
                _as_list(path_math.deepest_common_levels(leaves, 64, depth)),
                _as_list(path_math.eviction_paths(5, 40, depth)))
        monkeypatch.setattr(path_math, "_np", None)
        slow = (path_math.path_buckets_many(leaves, depth),
                path_math.buckets_on_path(bids, 99, depth),
                path_math.deepest_common_levels(leaves, 64, depth),
                path_math.eviction_paths(5, 40, depth))
        assert fast == slow


PAYLOADS = st.lists(st.binary(min_size=0, max_size=56), min_size=0, max_size=12)


class TestBatchedCryptoEquivalence:
    @given(PAYLOADS, st.booleans())
    @settings(deadline=None)
    def test_encrypt_many_roundtrips_like_encrypt(self, payloads, authenticated):
        suite = CipherSuite(key=b"p" * 32, block_size=64,
                            authenticated=authenticated)
        contexts = [freshness_context(0, 1, slot)
                    for slot in range(len(payloads))]
        blobs = suite.encrypt_many(payloads, contexts)
        # Batch-encrypted blobs open per-slot and batch-decrypt identically.
        assert [suite.decrypt(blob, ctx) for blob, ctx in zip(blobs, contexts)] \
            == payloads
        assert suite.decrypt_many(blobs, contexts) == payloads

    @given(PAYLOADS, st.booleans(), st.binary(min_size=12 * 12, max_size=12 * 12))
    @settings(deadline=None)
    def test_encrypt_many_is_the_documented_construction(self, payloads,
                                                         authenticated, drawn):
        # Known answer, independent of the implementation: under fixed nonces
        # every blob is  nonce || pad(p) XOR shake_256(key || nonce)
        #                      || blake2b(nonce || body || context, key).
        key = b"t" * 32
        suite = CipherSuite(key=key, block_size=64, authenticated=authenticated)
        contexts = [freshness_context(5, 6, slot) for slot in range(len(payloads))]
        with mock.patch("repro.oram.crypto.os.urandom", lambda n: drawn[:n]):
            blobs = suite.encrypt_many(payloads, contexts)
            first_alone = suite.encrypt(payloads[0], contexts[0]) if payloads else None
        expected = []
        for slot, (payload, context) in enumerate(zip(payloads, contexts)):
            nonce = drawn[12 * slot:12 * (slot + 1)]
            stream = hashlib.shake_256(key + nonce).digest(64)
            sealed = nonce + bytes(a ^ b for a, b in zip(suite.pad(payload), stream))
            if authenticated:
                sealed += hashlib.blake2b(sealed + context, key=key,
                                          digest_size=16).digest()
            expected.append(sealed)
        assert blobs == expected
        if payloads:
            assert first_alone == expected[0]      # batched ≡ per-slot, byte for byte

    @given(PAYLOADS)
    @settings(deadline=None)
    def test_decrypt_many_accepts_per_slot_ciphertexts(self, payloads):
        suite = CipherSuite(key=b"q" * 32, block_size=64)
        contexts = [freshness_context(2, 3, slot)
                    for slot in range(len(payloads))]
        blobs = [suite.encrypt(p, ctx) for p, ctx in zip(payloads, contexts)]
        assert suite.decrypt_many(blobs, contexts) == payloads

    @given(st.lists(st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 2)),
        st.binary(min_size=0, max_size=50)), min_size=0, max_size=10))
    @settings(deadline=None)
    def test_seal_blocks_matches_seal_block(self, pairs):
        suite = CipherSuite(key=b"r" * 32, block_size=64)
        entries = [(bid, b"" if bid is None else value,
                    freshness_context(1, 4, slot))
                   for slot, (bid, value) in enumerate(pairs)]
        sealed = suite.seal_blocks(entries)
        opened = suite.open_blocks(sealed, [ctx for _, _, ctx in entries])
        assert opened == [(bid, value) for bid, value, _ in entries]
        for blob, (bid, value, ctx) in zip(sealed, entries):
            assert suite.open_block(blob, ctx) == (bid, value)

    @given(PAYLOADS.filter(bool), st.data())
    @settings(deadline=None)
    def test_any_tampered_blob_fails_batch_verification(self, payloads, data):
        suite = CipherSuite(key=b"s" * 32, block_size=64)
        blobs = suite.encrypt_many(payloads)
        victim = data.draw(st.integers(min_value=0, max_value=len(blobs) - 1))
        byte = data.draw(st.integers(min_value=0, max_value=len(blobs[victim]) - 1))
        tampered = bytearray(blobs[victim])
        tampered[byte] ^= 0xFF
        blobs[victim] = bytes(tampered)
        with pytest.raises(IntegrityError):
            suite.decrypt_many(blobs)
