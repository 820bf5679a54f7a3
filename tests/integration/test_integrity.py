"""Integrity protection against a tampering storage server (Appendix A).

The evaluation assumes an honest-but-curious provider, but the implementation
carries the Appendix A machinery: every stored slot is authenticated and
bound to its (bucket, version, slot) position, so a malicious server that
modifies, swaps or replays ciphertexts is detected rather than silently
corrupting the database.
"""

import pytest

from repro.api import ObladiEngine
from repro.core.client import Read, Write
from repro.core.config import ObladiConfig, RingOramConfig
from repro.core.proxy import ObladiProxy
from repro.oram.crypto import IntegrityError


@pytest.fixture
def proxy():
    config = ObladiConfig(
        oram=RingOramConfig(num_blocks=128, z_real=4, block_size=128),
        read_batches=2, read_batch_size=8, write_batch_size=8,
        backend="server", durability=False, seed=13,
    )
    proxy = ObladiProxy(config)
    proxy.load_initial_data({f"k{i}": f"value-{i}".encode() for i in range(16)})
    return proxy


def oram_slot_keys(storage):
    return [key for key in storage.keys() if key.startswith("oram/")]


class TestTamperDetection:
    def test_flipped_ciphertext_bit_detected(self, proxy):
        # Corrupt every stored ORAM slot: whichever ones the next transaction
        # touches must fail authentication instead of decrypting to garbage.
        for key in oram_slot_keys(proxy.storage):
            blob = bytearray(proxy.storage.read(key))
            blob[len(blob) // 2] ^= 0xFF
            proxy.storage.write(key, bytes(blob))

        def program():
            value = yield Read("k1")
            return value

        proxy.submit(program)
        with pytest.raises(IntegrityError):
            proxy.run_epoch()

    def test_swapped_slots_detected(self, proxy):
        # Swapping two valid ciphertexts breaks the position binding even
        # though each blob individually carries a valid MAC.
        keys = oram_slot_keys(proxy.storage)
        a, b = keys[0], keys[-1]
        blob_a, blob_b = proxy.storage.read(a), proxy.storage.read(b)
        if blob_a == blob_b:
            pytest.skip("chose identical ciphertexts")
        proxy.storage.write(a, blob_b)
        proxy.storage.write(b, blob_a)

        def sweep():
            values = {}
            for i in range(8):
                values[i] = yield Read(f"k{i}")
            return values

        proxy.submit(sweep)
        try:
            results = proxy.run_epoch()
        except IntegrityError:
            return  # detected, as required
        # If the swapped slots were not touched this epoch, the values that
        # were read must still be correct.
        for result in results:
            if result.committed and isinstance(result.return_value, dict):
                for i, value in result.return_value.items():
                    if value is not None:
                        assert value == f"value-{i}".encode()

    def test_unauthenticated_mode_still_roundtrips(self):
        # With encryption disabled entirely (benchmark mode) the store holds
        # padded plaintext; functional behaviour is unchanged.
        config = ObladiConfig(
            oram=RingOramConfig(num_blocks=64, z_real=4, block_size=128),
            read_batches=2, read_batch_size=6, write_batch_size=6,
            backend="server", durability=False, encrypt=False, seed=3,
        )
        engine = ObladiEngine(ObladiProxy(config))
        engine.load_initial_data({"k": b"plain"})

        def rw():
            value = yield Read("k")
            yield Write("k", b"updated")
            return value

        result = engine.submit(rw)
        assert result.committed and result.return_value == b"plain"
        assert engine.read("k") == b"updated"
