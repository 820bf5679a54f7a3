"""Block encryption, authentication and padding.

The Java prototype uses Bouncy Castle AES; the reproduction substitutes two
standard-library primitives (the substitution is recorded in
``docs/ARCHITECTURE.md``): the keystream of a ciphertext is one XOF call,
``shake_256(key || nonce)`` squeezed to the block size, and its tag one keyed
hash, ``blake2b(nonce || body || context, key=key)`` truncated to 16 bytes.
Nothing in the evaluation depends on which primitives these are — what
matters is that

* every slot stored on the server is fixed-size and indistinguishable from
  uniform bytes: a real slot is a fresh ciphertext, a dummy slot fresh
  random bytes (so the adversary cannot distinguish real blocks from dummies
  or correlate rewrites), and
* integrity tags bind a real slot's ciphertext to its storage position and
  freshness counter (Appendix A's malicious-server extension).

A dummy slot needs no ciphertext because nobody opens one: the executor,
the sequential client and recovery's path replay all skip it.  Under the PRF
assumption ``nonce ‖ (pad ⊕ SHAKE(key ‖ nonce)) ‖ BLAKE2b_key(…)`` is
indistinguishable from uniform bytes of its length, so random bytes hide
exactly what a sealed dummy hid, and a tag on a slot nobody verifies
protected nothing.

Encryption cost is charged to the simulated clock by the executor via
:class:`repro.sim.latency.CpuCostModel`, not here — per slot, dummies
included — and these functions stay pure.

Hot path
--------
Sealing happens where bytes leave the proxy
(:meth:`repro.oram.ring_oram.RingOram.seal_rewrites`): one
:meth:`CipherSuite.seal_blocks` call per bucket that is actually written.
Per real slot that is one ``shake_256`` call and one ``blake2b`` call; the
XOR runs once over the bucket's real slots as a big integer, their nonces
come from one ``ssl.RAND_bytes`` draw and the dummy slots (most of a bucket)
from one more.  ``ssl.RAND_bytes`` reads OpenSSL's OS-seeded DRBG in user
space, several times faster than a ``getrandom`` syscall (``os.urandom``)
per draw; ``os.urandom`` only makes the 32-byte long-lived keys.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import os
import ssl
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Block id field of a dummy slot, and the slot payload that carries it.
_DUMMY_ID = 0xFFFFFFFF
_DUMMY_PAYLOAD = struct.pack(">I", _DUMMY_ID)
#: A slot payload's block id field.
_pack_id = struct.Struct(">I").pack


class IntegrityError(Exception):
    """Raised when a ciphertext fails authentication or freshness checks."""


def _xor_bytes(data: bytes, stream: bytes) -> bytes:
    """XOR two equal-length byte strings (whole-block, not per byte)."""
    return (int.from_bytes(data, "little")
            ^ int.from_bytes(stream, "little")).to_bytes(len(data), "little")


@dataclass
class CipherSuite:
    """Encrypts, authenticates and pads ORAM blocks.

    Parameters
    ----------
    key:
        Secret key held by the proxy.  Generated randomly if omitted.
    block_size:
        Plaintext payload size every block is padded to.  Fixed-size
        ciphertexts are what make real and dummy slots indistinguishable.
    authenticated:
        Attach and verify MAC tags binding position and freshness (the
        Appendix A extension).  The honest-but-curious evaluation setting can
        disable this to skip the tag bytes.
    enabled:
        When ``False`` payloads are only padded, not encrypted.  Large
        benchmark sweeps use this to keep Python-side costs manageable; the
        simulated crypto *cost* is still charged by the executor.
    """

    key: bytes = b""
    block_size: int = 64
    authenticated: bool = True
    enabled: bool = True
    _mac_len: int = 16
    _nonce_len: int = 12

    def __post_init__(self) -> None:
        if not self.key:
            self.key = os.urandom(32)
        if len(self.key) > hashlib.blake2b.MAX_KEY_SIZE:
            raise ValueError(
                f"key of {len(self.key)} bytes exceeds the "
                f"{hashlib.blake2b.MAX_KEY_SIZE}-byte tag key limit")
        if self.block_size < 1:
            raise ValueError("block_size must be positive")

    @property
    def binds_context(self) -> bool:
        """Whether a ciphertext depends on the context it is sealed under."""
        return self.enabled and self.authenticated

    @functools.cached_property
    def _dummy_padded(self) -> bytes:
        """The stored dummy slot of a suite with the cipher off."""
        return self.pad(_DUMMY_PAYLOAD)

    # ------------------------------------------------------------------ #
    # Padding
    # ------------------------------------------------------------------ #
    def pad(self, plaintext: bytes) -> bytes:
        """Length-prefix and pad ``plaintext`` to exactly ``block_size`` bytes."""
        if len(plaintext) > self.block_size - 4:
            raise ValueError(
                f"plaintext of {len(plaintext)} bytes exceeds block capacity "
                f"{self.block_size - 4}"
            )
        header = struct.pack(">I", len(plaintext))
        padded = header + plaintext
        return padded + b"\x00" * (self.block_size - len(padded))

    def unpad(self, padded: bytes) -> bytes:
        """Inverse of :meth:`pad`; rejects blocks with a corrupt tail.

        A well-formed block is ``len || plaintext || zeros``: the header must
        be in range *and* every byte past the payload must be zero.  Garbage
        trailing bytes mean the block was not produced by :meth:`pad` (a
        truncated or spliced ciphertext decrypting to junk), so they raise
        :class:`IntegrityError` instead of being silently dropped.
        """
        if len(padded) != self.block_size:
            raise ValueError(
                f"padded block has {len(padded)} bytes, expected {self.block_size}"
            )
        (length,) = struct.unpack(">I", padded[:4])
        if length > self.block_size - 4:
            raise IntegrityError("corrupt padding header")
        tail = padded[4 + length:]
        if tail.count(0) != len(tail):
            raise IntegrityError("corrupt padding tail: non-zero pad bytes")
        return padded[4:4 + length]

    # ------------------------------------------------------------------ #
    # Encryption
    # ------------------------------------------------------------------ #
    @property
    def ciphertext_size(self) -> int:
        """Size in bytes of every ciphertext this suite produces."""
        if not self.enabled:
            return self.block_size
        size = self._nonce_len + self.block_size
        if self.authenticated:
            size += self._mac_len
        return size

    def _seal_padded(self, padded: Sequence[bytes],
                     contexts: Optional[Sequence[bytes]]) -> List[bytes]:
        """Seal already-padded blocks: ``nonce || body || tag`` for each.

        The one place ciphertexts are made.  ``body`` is the padded block
        XOR ``shake_256(key || nonce)``; ``tag`` is keyed BLAKE2b over
        ``nonce || body || context``.  Nonces for the whole batch come from
        one ``ssl.RAND_bytes`` draw (OpenSSL's CSPRNG, no syscall) and the
        batch is XORed as one flat buffer.
        """
        key, size, nonce_len = self.key, self.block_size, self._nonce_len
        drawn = ssl.RAND_bytes(nonce_len * len(padded))
        nonces = [drawn[i:i + nonce_len] for i in range(0, len(drawn), nonce_len)]
        shake = hashlib.shake_256
        bodies = _xor_bytes(
            b"".join(padded),
            b"".join([shake(key + nonce).digest(size) for nonce in nonces]))
        blobs = [nonce + bodies[i * size:(i + 1) * size]
                 for i, nonce in enumerate(nonces)]
        if not self.authenticated:
            return blobs
        if contexts is None:
            contexts = [b""] * len(blobs)
        blake, mac_len = hashlib.blake2b, self._mac_len
        return [blob + blake(blob + context, key=key, digest_size=mac_len).digest()
                for blob, context in zip(blobs, contexts)]

    def _open_sealed(self, blobs: Sequence[bytes],
                     contexts: Optional[Sequence[bytes]]) -> List[bytes]:
        """Verify and decrypt ciphertexts back to padded blocks.

        Raises :class:`IntegrityError` at the first blob of the wrong size
        or with a tag that does not match its context.
        """
        key, size, nonce_len = self.key, self.block_size, self._nonce_len
        expected = self.ciphertext_size
        blake, mac_len = hashlib.blake2b, self._mac_len
        shake = hashlib.shake_256
        bodies: List[bytes] = []
        streams: List[bytes] = []
        for i, blob in enumerate(blobs):
            if len(blob) != expected:
                raise IntegrityError(
                    f"ciphertext has {len(blob)} bytes, expected {expected}")
            sealed = blob                       # nonce || body, tag stripped
            if self.authenticated:
                sealed, tag = blob[:-mac_len], blob[-mac_len:]
                context = contexts[i] if contexts is not None else b""
                if not hmac.compare_digest(tag, blake(
                        sealed + context, key=key, digest_size=mac_len).digest()):
                    raise IntegrityError("MAC verification failed")
            streams.append(shake(key + sealed[:nonce_len]).digest(size))
            bodies.append(sealed[nonce_len:])
        padded = _xor_bytes(b"".join(bodies), b"".join(streams))
        return [padded[i * size:(i + 1) * size] for i in range(len(bodies))]

    def encrypt(self, plaintext: bytes, context: bytes = b"") -> bytes:
        """Encrypt (and authenticate) a padded-to-block-size plaintext.

        ``context`` is authenticated but not encrypted; Obladi binds the
        storage position and the epoch/batch freshness counter here so a
        malicious server cannot replay stale or relocated blocks.
        """
        padded = self.pad(plaintext)
        if not self.enabled:
            return padded
        return self._seal_padded([padded], [context])[0]

    def decrypt(self, blob: bytes, context: bytes = b"") -> bytes:
        """Decrypt and verify a ciphertext produced by :meth:`encrypt`."""
        if not self.enabled:
            return self.unpad(blob)
        return self.unpad(self._open_sealed([blob], [context])[0])

    # ------------------------------------------------------------------ #
    # Batched encryption (one call per bucket, not one per slot)
    # ------------------------------------------------------------------ #
    def encrypt_many(self, plaintexts: Sequence[bytes],
                     contexts: Optional[Sequence[bytes]] = None) -> List[bytes]:
        """Encrypt a batch of plaintexts; equivalent to per-slot :meth:`encrypt`.

        ``contexts`` (optional) supplies one authenticated context per
        plaintext.
        """
        if contexts is not None and len(contexts) != len(plaintexts):
            raise ValueError(
                f"{len(contexts)} contexts for {len(plaintexts)} plaintexts")
        pad = self.pad
        padded = [pad(p) for p in plaintexts]
        if not self.enabled or not padded:
            return padded
        return self._seal_padded(padded, contexts)

    def decrypt_many(self, blobs: Sequence[bytes],
                     contexts: Optional[Sequence[bytes]] = None) -> List[bytes]:
        """Decrypt a batch of ciphertexts; equivalent to per-slot :meth:`decrypt`.

        Verification failures raise exactly as :meth:`decrypt` does, at the
        first offending blob.
        """
        if contexts is not None and len(contexts) != len(blobs):
            raise ValueError(f"{len(contexts)} contexts for {len(blobs)} blobs")
        if not self.enabled:
            return [self.unpad(blob) for blob in blobs]
        if not blobs:
            return []
        return [self.unpad(padded)
                for padded in self._open_sealed(blobs, contexts)]

    # ------------------------------------------------------------------ #
    # Block serialisation helpers
    # ------------------------------------------------------------------ #
    def seal_blocks(self, entries: Sequence[Tuple[Optional[int], bytes, bytes]]
                    ) -> List[bytes]:
        """Seal a bucket's ``(block_id_or_None, value, context)`` entries.

        The one place a dummy slot's stored bytes are decided.  Real entries
        are serialised (``block id || value``) and encrypted under their
        contexts by one :meth:`encrypt_many` call; each opens with
        :meth:`open_block`.  A dummy entry (``None`` id; its value and
        context are ignored) becomes :attr:`ciphertext_size` fresh random
        bytes — all of the call's dummies from one ``ssl.RAND_bytes`` draw,
        OpenSSL's CSPRNG in user space — that no context opens; with the
        cipher off, the padded dummy payload, which opens as ``(None, b"")``.
        A suite that binds no context ignores the entries' contexts, so it
        passes none to :meth:`encrypt_many`; still one call a bucket.
        """
        if self.binds_context:
            real = [entry for entry in entries if entry[0] is not None]
            sealed = self.encrypt_many([_pack_id(bid) + value for bid, value, _ in real],
                                       [context for _, _, context in real])
        else:
            sealed = self.encrypt_many([_pack_id(bid) + value
                                        for bid, value, _ in entries if bid is not None])
        reals = iter(sealed)
        if not self.enabled:
            dummy = self._dummy_padded
            return [dummy if bid is None else next(reals) for bid, _, _ in entries]
        size = self.ciphertext_size
        drawn = ssl.RAND_bytes(size * (len(entries) - len(sealed)))
        dummies = iter([drawn[i:i + size] for i in range(0, len(drawn), size)])
        return [next(dummies) if bid is None else next(reals) for bid, _, _ in entries]

    def open_block(self, blob: bytes, context: bytes = b"") -> Tuple[Optional[int], bytes]:
        """Open one slot sealed by :meth:`seal_blocks`; returns ``(block_id_or_None, value)``."""
        return self._split_payload(self.decrypt(blob, context))

    def open_blocks(self, blobs: Sequence[bytes], contexts: Sequence[bytes]
                    ) -> List[Tuple[Optional[int], bytes]]:
        """Inverse of :meth:`seal_blocks` for a batch of ciphertexts."""
        return [self._split_payload(payload)
                for payload in self.decrypt_many(blobs, contexts)]

    @staticmethod
    def _split_payload(payload: bytes) -> Tuple[Optional[int], bytes]:
        """Split a decrypted slot payload into ``(block_id_or_None, value)``."""
        if len(payload) < 4:
            raise IntegrityError("sealed block too short")
        (bid,) = struct.unpack(">I", payload[:4])
        block_id = None if bid == _DUMMY_ID else bid
        return block_id, payload[4:]


def freshness_context(bucket: int, version: int, slot: int = -1) -> bytes:
    """Canonical authenticated context binding position and freshness.

    Appendix A requires every stored value to be bound to the pair
    (location, write counter); slots additionally bind their index.
    """
    return struct.pack(">qqq", bucket, version, slot)
