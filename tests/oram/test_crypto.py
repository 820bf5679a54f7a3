"""Tests for block sealing, authentication and padding."""

import pytest

from repro.oram.crypto import CipherSuite, IntegrityError, freshness_context


@pytest.fixture
def suite():
    return CipherSuite(key=b"k" * 32, block_size=64)


class TestPadding:
    def test_pad_produces_fixed_size(self, suite):
        assert len(suite.pad(b"hello")) == 64
        assert len(suite.pad(b"")) == 64

    def test_pad_unpad_roundtrip(self, suite):
        for payload in (b"", b"x", b"a" * 60):
            assert suite.unpad(suite.pad(payload)) == payload

    def test_pad_rejects_oversized_payload(self, suite):
        with pytest.raises(ValueError):
            suite.pad(b"x" * 61)

    def test_unpad_rejects_wrong_length(self, suite):
        with pytest.raises(ValueError):
            suite.unpad(b"short")

    def test_unpad_rejects_nonzero_tail(self, suite):
        """Regression: garbage past the payload must not unpad silently.

        ``unpad`` used to drop everything after the length header's payload,
        so a spliced or corrupted block decrypting to ``len || payload ||
        junk`` round-tripped as if well-formed.  Every pad byte must be zero.
        """
        padded = bytearray(suite.pad(b"hello"))
        padded[-1] = 0x5A                      # corrupt the last pad byte
        with pytest.raises(IntegrityError):
            suite.unpad(bytes(padded))

    def test_unpad_rejects_nonzero_byte_right_after_payload(self, suite):
        padded = bytearray(suite.pad(b"hi"))
        padded[4 + 2] = 0x01                   # first byte past the payload
        with pytest.raises(IntegrityError):
            suite.unpad(bytes(padded))

    def test_unpad_accepts_full_capacity_block(self, suite):
        """A payload filling the whole block has an empty tail to verify."""
        payload = b"z" * (suite.block_size - 4)
        assert suite.unpad(suite.pad(payload)) == payload

    def test_unpad_rejects_oversized_header(self, suite):
        padded = (b"\xff\xff\xff\xff").ljust(suite.block_size, b"\x00")
        with pytest.raises(IntegrityError):
            suite.unpad(padded)


class TestEncryption:
    def test_encrypt_decrypt_roundtrip(self, suite):
        blob = suite.encrypt(b"secret data")
        assert suite.decrypt(blob) == b"secret data"

    def test_ciphertexts_are_fixed_size(self, suite):
        assert len(suite.encrypt(b"a")) == suite.ciphertext_size
        assert len(suite.encrypt(b"a" * 50)) == suite.ciphertext_size

    def test_ciphertexts_are_randomised(self, suite):
        assert suite.encrypt(b"same") != suite.encrypt(b"same")

    def test_wrong_key_fails_authentication(self):
        a = CipherSuite(key=b"a" * 32, block_size=64)
        b = CipherSuite(key=b"b" * 32, block_size=64)
        with pytest.raises(IntegrityError):
            b.decrypt(a.encrypt(b"data"))

    def test_tampered_ciphertext_rejected(self, suite):
        blob = bytearray(suite.encrypt(b"data"))
        blob[20] ^= 0xFF
        with pytest.raises(IntegrityError):
            suite.decrypt(bytes(blob))

    def test_context_binding(self, suite):
        blob = suite.encrypt(b"data", context=freshness_context(1, 2, 3))
        assert suite.decrypt(blob, context=freshness_context(1, 2, 3)) == b"data"
        with pytest.raises(IntegrityError):
            suite.decrypt(blob, context=freshness_context(1, 2, 4))

    def test_unauthenticated_mode_skips_macs(self):
        suite = CipherSuite(key=b"k" * 32, block_size=64, authenticated=False)
        blob = suite.encrypt(b"data")
        assert suite.decrypt(blob) == b"data"
        assert len(blob) == suite.ciphertext_size

    def test_disabled_mode_only_pads(self):
        suite = CipherSuite(block_size=64, enabled=False)
        blob = suite.encrypt(b"data")
        assert len(blob) == 64
        assert suite.decrypt(blob) == b"data"

    def test_wrong_length_ciphertext_rejected(self, suite):
        with pytest.raises(IntegrityError):
            suite.decrypt(b"\x00" * (suite.ciphertext_size - 1))


class TestBlockSealing:
    def test_seal_open_real_block(self, suite):
        blob = suite.seal_block(42, b"value")
        block_id, value = suite.open_block(blob)
        assert block_id == 42
        assert value == b"value"

    def test_sealed_dummy_block_does_not_open(self, suite):
        dummy = suite.seal_block(None, b"", b"ctx")
        for context in (b"ctx", b""):
            with pytest.raises(IntegrityError):
                suite.open_block(dummy, context)

    def test_real_and_dummy_blocks_same_size(self, suite):
        real = suite.seal_block(7, b"payload")
        dummy = suite.seal_block(None, b"")
        assert len(real) == len(dummy) == suite.ciphertext_size

    def test_sealed_block_bound_to_position(self, suite):
        ctx = freshness_context(bucket=3, version=1, slot=5)
        blob = suite.seal_block(9, b"v", ctx)
        with pytest.raises(IntegrityError):
            suite.open_block(blob, freshness_context(bucket=3, version=2, slot=5))

    def test_key_generated_when_missing(self):
        suite = CipherSuite(block_size=32)
        assert len(suite.key) == 32

    def test_key_longer_than_the_tag_key_limit_rejected(self):
        with pytest.raises(ValueError):
            CipherSuite(key=b"k" * 65, block_size=32)

    def test_precomputed_dummy_plaintext_opens_as_a_dummy(self):
        # With the cipher off a dummy slot is stored as the padded dummy payload.
        suite = CipherSuite(block_size=64, enabled=False)
        assert suite._dummy_padded == suite.pad(b"\xff\xff\xff\xff")
        sealed = suite.seal_blocks([(None, b"", b"ctx"), (3, b"v", b"ctx"), (None, b"", b"")])
        assert sealed[0] == sealed[2] == suite._dummy_padded == suite.seal_block(None, b"")
        assert suite.open_blocks(sealed, [b""] * 3) == [(None, b""), (3, b"v"), (None, b"")]


class TestBatchedEncryption:
    """The ``*_many`` batch entry points must match their per-slot forms."""

    def test_encrypt_many_roundtrips_per_slot(self, suite):
        plaintexts = [b"", b"a"] + [b"payload-%d" % i for i in range(6)]
        blobs = suite.encrypt_many(plaintexts)
        assert len(blobs) == len(plaintexts)
        for blob, plaintext in zip(blobs, plaintexts):
            assert len(blob) == suite.ciphertext_size
            assert suite.decrypt(blob) == plaintext

    def test_decrypt_many_matches_per_slot_decrypt(self, suite):
        plaintexts = [b"block-%d" % i for i in range(5)]
        blobs = [suite.encrypt(p) for p in plaintexts]
        assert suite.decrypt_many(blobs) == plaintexts

    def test_batch_contexts_are_bound(self, suite):
        contexts = [freshness_context(1, 1, s) for s in range(4)]
        blobs = suite.encrypt_many([b"v%d" % s for s in range(4)], contexts)
        assert suite.decrypt_many(blobs, contexts) == [b"v0", b"v1", b"v2", b"v3"]
        wrong = contexts[:3] + [freshness_context(1, 2, 3)]
        with pytest.raises(IntegrityError):
            suite.decrypt_many(blobs, wrong)

    def test_decrypt_many_raises_at_first_bad_blob(self, suite):
        blobs = [suite.encrypt(b"x%d" % i) for i in range(3)]
        tampered = bytearray(blobs[1])
        tampered[15] ^= 0xFF
        blobs[1] = bytes(tampered)
        with pytest.raises(IntegrityError):
            suite.decrypt_many(blobs)

    def test_context_count_mismatch_rejected(self, suite):
        with pytest.raises(ValueError):
            suite.encrypt_many([b"a", b"b"], [b"only-one"])
        with pytest.raises(ValueError):
            suite.decrypt_many([suite.encrypt(b"a")], [b"c1", b"c2"])

    def test_empty_batch(self, suite):
        assert suite.encrypt_many([]) == []
        assert suite.decrypt_many([]) == []

    def test_batch_nonces_are_distinct(self, suite):
        blobs = suite.encrypt_many([b"same"] * 8)
        nonces = {blob[:suite._nonce_len] for blob in blobs}
        assert len(nonces) == 8

    def test_unauthenticated_batch_roundtrip(self):
        suite = CipherSuite(key=b"k" * 32, block_size=64, authenticated=False)
        plaintexts = [b"p%d" % i for i in range(4)]
        assert suite.decrypt_many(suite.encrypt_many(plaintexts)) == plaintexts

    def test_disabled_batch_only_pads(self):
        suite = CipherSuite(block_size=64, enabled=False)
        blobs = suite.encrypt_many([b"p1", b"p2"])
        assert all(len(blob) == 64 for blob in blobs)
        assert suite.decrypt_many(blobs) == [b"p1", b"p2"]

    def test_seal_open_blocks_roundtrip(self, suite):
        entries = [(7, b"v7", freshness_context(0, 1, 0)),
                   (None, b"", freshness_context(0, 1, 1)),
                   (0xFFFFFFFE, b"edge", freshness_context(0, 1, 2))]
        sealed = suite.seal_blocks(entries)
        real = [0, 2]
        opened = suite.open_blocks([sealed[i] for i in real], [entries[i][2] for i in real])
        assert opened == [(7, b"v7"), (0xFFFFFFFE, b"edge")]
        # Per-slot open_block agrees blob by blob; the dummy opens under no context.
        for i in real:
            assert suite.open_block(sealed[i], entries[i][2]) == entries[i][:2]
        with pytest.raises(IntegrityError):
            suite.open_blocks(sealed, [ctx for _, _, ctx in entries])

    def test_seal_blocks_real_and_dummy_same_size(self, suite):
        sealed = suite.seal_blocks([(3, b"real", b""), (None, b"", b"")])
        assert len(sealed[0]) == len(sealed[1]) == suite.ciphertext_size

    def test_seal_blocks_dummies_are_fresh_random_bytes(self, suite, monkeypatch):
        draws = []

        def rand_bytes(n):
            draws.append(n)
            return bytes(i % 256 for i in range(n))

        monkeypatch.setattr("repro.oram.crypto.ssl.RAND_bytes", rand_bytes)
        size = suite.ciphertext_size
        sealed = suite.seal_blocks([(None, b"", b""), (5, b"real", b""), (None, b"", b"")])
        # One draw for the real slot's nonce, one for both dummies.
        assert draws == [suite._nonce_len, 2 * size]
        drawn = rand_bytes(2 * size)
        assert [sealed[0], sealed[2]] == [drawn[:size], drawn[size:]]

    def test_resealing_the_same_entries_draws_fresh_dummies_and_nonces(self, suite):
        entries = [(None, b"", b""), (5, b"real", b"ctx"), (None, b"", b"")]
        first, second = suite.seal_blocks(entries), suite.seal_blocks(entries)
        nonce_len = suite._nonce_len
        assert first[0] != second[0] and first[2] != second[2]
        assert first[1][:nonce_len] != second[1][:nonce_len]
        assert suite.open_block(first[1], b"ctx") == suite.open_block(second[1], b"ctx")


class TestFreshnessContext:
    def test_distinct_positions_distinct_contexts(self):
        contexts = {freshness_context(b, v, s) for b in range(3) for v in range(3)
                    for s in range(3)}
        assert len(contexts) == 27

    def test_context_is_deterministic(self):
        assert freshness_context(1, 2, 3) == freshness_context(1, 2, 3)
