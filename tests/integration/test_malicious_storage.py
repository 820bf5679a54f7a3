"""A storage server that lies ends in ``IntegrityError`` or in clean recovery.

The untrusted store may do worse than fail.  ``LyingServer`` is honest until
told otherwise; it then silently drops one whole write batch, or answers
slot reads with the bytes of the slot's previous, authentic version — which
it kept although the proxy deleted it.  For every write batch of a short
durable run, dropped with and without a crash and recovery afterwards, and
for a rollback starting at every epoch boundary, the run either raises
``IntegrityError`` somewhere or every key reads back as the last value the
client saw commit: never a silently wrong read.  The plaintext valid map,
cut short or lengthened, fails recovery in its decoder (``ValueError``).
"""

import pytest

from repro.api import EngineConfig, create_engine
from repro.core.client import Read, Write
from repro.oram.crypto import IntegrityError
from repro.recovery.checkpoint import MANIFEST_KEY
from repro.storage.cluster import StorageCluster
from repro.storage.memory import InMemoryStorageServer

KEYS = [f"k{i}" for i in range(6)]
LOADED = {key: b"v-" + key.encode() for key in KEYS}
WAVES = 4


class LyingServer(InMemoryStorageServer):
    """Drops write batch number ``drop`` (counted from 0), and once
    ``rollback`` is set serves each slot's previous version instead."""

    def __init__(self, drop=None):
        super().__init__()
        self.drop = drop
        self.rollback = ""          # "oram/", "ckpt/": which reads get older versions
        self.edit_valid_map = None  # bytes -> bytes, applied to valid maps read
        self.write_batches = 0
        self.manifest_writes = []
        self.kept = {}

    def write_batch(self, items, record_batch=True):
        index = self.write_batches
        self.write_batches += 1
        if MANIFEST_KEY in items:
            self.manifest_writes.append(index)
        if index != self.drop:
            super().write_batch(items, record_batch)

    def delete_batch(self, keys):
        self.kept.update((key, self._data[key]) for key in keys if key in self._data)
        super().delete_batch(keys)

    def read_batch(self, keys, record_batch=True):
        values = super().read_batch(keys, record_batch)
        if self.rollback:
            held = {**self._data, **self.kept}
            for key in keys:
                older = self.older_version(key, held)
                if older is not None:
                    values[key] = held[older]
        if self.edit_valid_map is not None:
            for key in keys:
                if key.endswith("valid_map") and values[key]:
                    values[key] = self.edit_valid_map(values[key])
        return values

    def older_version(self, key, held):
        """The key of an older authentic version of ``key`` the server holds:
        a slot's previous bucket version, or the same checkpoint component
        of the oldest other checkpoint."""
        if "oram/" in key and "oram/" in self.rollback:
            head, _, tail = key.partition("oram/")
            bucket, version, rest = tail.split("/", 2)
            older = f"{head}oram/{bucket}/v{int(version[1:]) - 1}/{rest}"
            return older if older in held else None
        if key.startswith("ckpt/") and key != MANIFEST_KEY and "ckpt/" in self.rollback:
            name = key.split("/", 3)[3]
            others = sorted((int(other.split("/")[1]), other) for other in held
                            if other.startswith("ckpt/") and other != key
                            and other != MANIFEST_KEY and other.split("/", 3)[3] == name)
            return others[0][1] if others else None
        return None


def rewrite(key, value):
    def program():
        yield Read(key)
        yield Write(key, value)
        return True
    return program


def reader(key):
    def program():
        return (yield Read(key))
    return program


def engine_over(server):
    config = (EngineConfig()
              .with_oram(num_blocks=16, z_real=2, s_dummies=2, evict_rate=4, block_size=32)
              .with_batching(read_batches=1, read_batch_size=2, write_batch_size=2)
              .with_backend("server")
              .with_sharding(2)
              .with_durability(True, checkpoint_frequency=2)
              .with_seed(13))
    # The lying server is the tier's one node: it hosts both partitions and
    # the WAL and checkpoint chain.
    tier = StorageCluster()
    tier.servers[0] = server
    engine = create_engine("obladi", config, storage=tier)
    engine.load_initial_data(LOADED)
    return engine


def run(server, crash, rollback_from=None):
    """Waves, an optional crash and recovery, and a read-back of every key.

    Returns ``"integrity"`` if any step raised ``IntegrityError``, else
    whether every key read back as its last acknowledged value.
    """
    engine = engine_over(server)
    acknowledged = dict(LOADED)
    try:
        for wave in range(WAVES):
            if rollback_from is not None and wave >= rollback_from:
                server.rollback = "oram/"
            writes = [(KEYS[(2 * wave + i) % len(KEYS)], b"%d.%d" % (wave, i))
                      for i in range(2)]
            results = engine.submit_many([rewrite(key, value) for key, value in writes])
            acknowledged.update((key, value) for (key, value), result
                                in zip(writes, results) if result.committed)
        if crash:
            engine.crash()
            engine.recover()
        delivered = {}
        for key in KEYS:
            for _ in range(10):
                result = engine.submit(reader(key))
                if result.committed:
                    delivered[key] = result.return_value
                    break
    except IntegrityError:
        return "integrity"
    return delivered == acknowledged


def write_batches_of_a_run(crash):
    server = LyingServer()
    assert run(server, crash) is True
    return server.write_batches


@pytest.mark.parametrize("crash", [False, True], ids=["running", "recovered"])
def test_a_dropped_write_batch_is_caught_or_harmless(crash):
    batches = write_batches_of_a_run(crash)
    outcomes = [run(LyingServer(drop=index), crash) for index in range(2, batches)]
    assert False not in outcomes
    assert "integrity" in outcomes


@pytest.mark.parametrize("crash", [False, True], ids=["running", "recovered"])
def test_an_older_authentic_version_is_rejected(crash):
    outcomes = [run(LyingServer(), crash, rollback_from=wave) for wave in range(1, WAVES)]
    assert False not in outcomes
    assert "integrity" in outcomes


def test_an_older_checkpoint_component_fails_recovery():
    """Each component is bound to its storage key: answering for the latest
    full checkpoint with the one before it is caught, not restored."""
    server = LyingServer()
    engine = engine_over(server)
    for wave in range(4):
        engine.submit_many([rewrite(KEYS[wave], b"w%d" % wave)])
    engine.crash()
    server.rollback = "ckpt/"
    with pytest.raises(IntegrityError):
        engine.recover()


def test_a_rolled_back_manifest_fails_recovery():
    """Dropping the last manifest write rolls the chain back an epoch; the
    proxy's trusted epoch counter catches it."""
    def two_waves(server):
        engine = engine_over(server)
        engine.submit_many([rewrite("k0", b"first")])
        engine.submit_many([rewrite("k1", b"second")])
        return engine

    honest = LyingServer()
    two_waves(honest)
    engine = two_waves(LyingServer(drop=honest.manifest_writes[-1]))
    engine.crash()
    with pytest.raises(IntegrityError, match="rolled it back"):
        engine.recover()


@pytest.mark.parametrize("edit", [lambda blob: blob[:-1], lambda blob: blob + b"\x00"],
                         ids=["truncated", "lengthened"])
def test_a_valid_map_of_another_length_fails_recovery(edit):
    """The valid map is stored in the clear and not authenticated, so its
    decoder checks that it is a whole number of fixed-width records."""
    server = LyingServer()
    engine = engine_over(server)
    for wave in range(3):
        engine.submit_many([rewrite(KEYS[wave], b"w%d" % wave)])
    engine.crash()
    server.edit_valid_map = edit
    with pytest.raises(ValueError, match="not a whole number"):
        engine.recover()
