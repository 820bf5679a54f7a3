"""Property-based tests: closed-form path math and batched crypto ≡ scalar.

The eviction write phase places every stash entry by the deepest level its
path shares with the evicted path, computed inline as
``depth - (a ^ b).bit_length()``; a scalar bit walk over the two leaves'
prefixes is the oracle.  The
batched crypto entry points :meth:`repro.oram.crypto.CipherSuite.encrypt_many`
/ :meth:`~repro.oram.crypto.CipherSuite.decrypt_many` must produce *exactly*
the values of the per-slot form, over random payloads.
"""

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oram.crypto import CipherSuite, IntegrityError, freshness_context


@given(st.integers(min_value=0, max_value=40).flatmap(lambda depth: st.tuples(
    st.just(depth),
    st.integers(min_value=0, max_value=(1 << depth) - 1),
    st.integers(min_value=0, max_value=(1 << depth) - 1))))
def test_common_level_closed_form_matches_the_bit_walk(case):
    depth, leaf_a, leaf_b = case
    level = depth               # walk up until the two leaves' prefixes agree
    while level > 0 and (leaf_a >> (depth - level)) != (leaf_b >> (depth - level)):
        level -= 1
    assert depth - (leaf_a ^ leaf_b).bit_length() == level


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
        with mock.patch("repro.oram.crypto.ssl.RAND_bytes", lambda n: drawn[:n]):
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
        assert all(len(blob) == suite.ciphertext_size for blob in sealed)
        # Real entries: batched ≡ per-slot.  Dummies are random bytes nobody opens.
        real = [(blob, entry) for blob, entry in zip(sealed, entries) if entry[0] is not None]
        opened = suite.open_blocks([blob for blob, _ in real], [ctx for _, (_, _, ctx) in real])
        assert opened == [(bid, value) for _, (bid, value, _) in real]
        for blob, (bid, value, ctx) in real:
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
