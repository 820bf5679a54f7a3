"""One storage node of a cluster fails in the middle of an epoch.

The proxy must surface the outage, not mask it: the wave that reaches the
failed node raises ``ConnectionError`` and the proxy is crashed.  Once the
node is back, crash-recovery
from what the servers hold must deliver every loaded key as its last committed
write, and the history must stay serializable.
"""

import pytest

from repro.api import EngineConfig, create_engine
from repro.concurrency import check_serializable
from repro.core.client import Read, Write

KEYS = 24


def append(key, stamp):
    def program():
        value = yield Read(key)
        yield Write(key, value + stamp)
        return value
    return program


def test_a_failed_node_fails_the_wave_and_recovery_restores_every_key():
    config = (EngineConfig()
              .with_oram(num_blocks=128, z_real=4, s_dummies=3, evict_rate=3,
                         block_size=96)
              .with_batching(read_batches=2, read_batch_size=8, write_batch_size=8)
              .with_backend("server")
              .with_sharding(2)
              .with_storage_servers(2)
              .with_durability(True, checkpoint_frequency=3)
              .with_encryption(True)
              .with_seed(5))
    engine = create_engine("obladi", config)
    loaded = {f"k{i}": f"v{i}".encode() for i in range(KEYS)}
    engine.load_initial_data(loaded)
    for epoch in range(4):
        engine.submit_many([append(f"k{(epoch * 5 + i) % KEYS}", b"|%d" % epoch)
                            for i in range(4)])
    assert engine.stats().committed > 0

    servers = engine.storage.servers
    servers[1].fail()
    with pytest.raises(ConnectionError):
        engine.submit_many([append("k0", b"|lost"), append("k1", b"|lost")])
    assert engine.proxy.crashed         # an outage is a crash
    servers[1].recover()
    engine.recover()

    expected = dict(loaded)
    for txn in sorted(engine.committed_history, key=lambda t: t.timestamp):
        expected.update(txn.write_set)
    for key, value in sorted(expected.items()):
        assert engine.read(key) == value, key
    ok, cycle = check_serializable(engine.committed_history)
    assert ok, cycle
