"""Shared fixtures for the test suite.

The fixtures deliberately use tiny ORAM trees and small batches so that unit
and integration tests run quickly while still exercising evictions, early
reshuffles and multi-epoch behaviour.
"""

from __future__ import annotations

import pytest

from repro.core.client import Read, Write
from repro.core.config import ObladiConfig, RingOramConfig
from repro.core.proxy import ObladiProxy
from repro.oram import path_math
from repro.oram.batch_executor import EpochBatchExecutor
from repro.oram.crypto import CipherSuite
from repro.oram.parameters import RingOramParameters
from repro.oram.ring_oram import RingOram, slot_key_prefix
from repro.sim.clock import SimClock
from repro.storage.memory import InMemoryStorageServer


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def closed_loop():
    """``run(engine, factories, clients, max_retries)``: the shared closed
    loop over a fixed list of program factories, in list order."""

    def run(engine, factories, clients=32, max_retries=3):
        supply = iter(factories)
        return engine.run_closed_loop(lambda: next(supply), len(factories),
                                      clients=clients, max_retries=max_retries)

    return run


@pytest.fixture
def storage(clock):
    """In-memory storage with the LAN ``server`` latency model."""
    return InMemoryStorageServer(clock=clock)


@pytest.fixture
def small_config():
    """A small Obladi proxy configuration used by core/integration tests."""
    return ObladiConfig(
        oram=RingOramConfig(num_blocks=256, z_real=4, block_size=128),
        read_batches=3,
        read_batch_size=8,
        write_batch_size=8,
        batch_interval_ms=5.0,
        backend="server",
        durability=False,
        seed=7,
    )


@pytest.fixture
def durable_config():
    """Like ``small_config`` but with durability (WAL + checkpoints) enabled."""
    return ObladiConfig(
        oram=RingOramConfig(num_blocks=256, z_real=4, block_size=128),
        read_batches=3,
        read_batch_size=8,
        write_batch_size=8,
        batch_interval_ms=5.0,
        backend="server",
        durability=True,
        checkpoint_frequency=2,
        seed=7,
    )


@pytest.fixture
def proxy(small_config):
    """An Obladi proxy preloaded with 30 keys ``k0..k29`` -> ``value-i``."""
    proxy = ObladiProxy(small_config)
    proxy.load_initial_data({f"k{i}": f"value-{i}".encode() for i in range(30)})
    return proxy


@pytest.fixture
def durable_proxy(durable_config):
    proxy = ObladiProxy(durable_config)
    proxy.load_initial_data({f"k{i}": f"value-{i}".encode() for i in range(30)})
    return proxy


def read_program(key):
    """A transaction program that reads one key and returns its value."""

    def program():
        value = yield Read(key)
        return value

    return program


def write_program(key, value):
    """A transaction program that writes one key."""

    def program():
        yield Write(key, value)
        return True

    return program


def read_write_program(read_key, write_key, value):
    """Read one key, then write another; returns the read value."""

    def program():
        observed = yield Read(read_key)
        yield Write(write_key, value)
        return observed

    return program


class OneOpPerEpoch:
    """A tiny Ring ORAM driven by the epoch executor, one logical operation
    per epoch: Figure 10a's sequential baseline, used as a test oracle.

    A write is ``execute_write_batch``, ``flush_epoch``, ``collect``; a read
    is ``execute_read_batch([b], batch_size=1)``, ``flush_epoch``,
    ``collect``.  Writes are dummiless, the only kind the executor has.
    ``executor``, ``oram`` and ``storage`` are there to drive or inspect by
    hand.
    """

    def __init__(self, seed=0, depth=4, z=4, s=6, a=3, backend="dummy",
                 parallelism=1, buffer_writes=True, cipher=None):
        clock = SimClock()
        self.storage = InMemoryStorageServer(clock=clock)
        params = RingOramParameters(num_blocks=z << depth, z_real=z, s_dummies=s,
                                    evict_rate=a, depth=depth, block_size=64)
        self.oram = RingOram(params, self.storage,
                             cipher=cipher if cipher is not None else CipherSuite(block_size=72),
                             clock=clock, seed=seed)
        self.executor = EpochBatchExecutor(self.oram, latency=backend,
                                           parallelism=parallelism,
                                           buffer_writes=buffer_writes)

    def _epoch(self, operation):
        self.executor.begin_epoch()
        result = operation()
        self.executor.flush_epoch()
        self.executor.collect()
        return result

    def read(self, block_id):
        """Read ``block_id`` in an epoch of its own; ``None`` if never written."""
        return self._epoch(lambda: self.executor.execute_read_batch(
            [block_id], batch_size=1))[block_id]

    def write(self, block_id, value):
        """Write ``value`` to ``block_id`` in an epoch of its own."""
        self._epoch(lambda: self.executor.execute_write_batch({block_id: value}))


def valid_slot(meta, block_id):
    """Physical index of the valid slot of bucket ``meta`` holding ``block_id``, if any."""
    if block_id in meta.blocks and meta.valid[meta.blocks.index(block_id)]:
        return meta.blocks.index(block_id)
    return None


def valid_blocks(meta):
    """Block ids of the real blocks whose slots in bucket ``meta`` are still unread."""
    return [block for block, valid in zip(meta.blocks, meta.valid)
            if valid and block is not None]


def slot_storage_key(bucket, version, slot):
    """Storage key of one slot of one bucket version of a tree with no namespace."""
    return slot_key_prefix(bucket, version) + str(slot)


def tree_slot_key(oram, block_id):
    """Storage key of the valid tree slot that holds ``block_id``."""
    for bucket in path_math.path_buckets(oram.position_map.lookup(block_id),
                                         oram.params.depth):
        meta = oram.metadata.bucket(bucket)
        slot = valid_slot(meta, block_id)
        if slot is not None:
            return slot_storage_key(bucket, meta.version, slot)
    raise AssertionError(f"block {block_id} is not in the tree")


def stored_data(server):
    """Copy of every ``{key: bytes}`` an in-memory server holds, read untraced."""
    return dict(server._data)


def stored_versions(server, prefix=""):
    """``{bucket: {version: slots stored}}`` over the slot keys ``server`` holds
    for the tree whose keys start with ``prefix`` (its ``oram.key_prefix``)."""
    versions = {}
    for key in server.keys():
        if key.startswith(prefix + "oram/"):
            _, bucket, version, _ = key[len(prefix):].split("/", 3)
            per_bucket = versions.setdefault(int(bucket), {})
            per_bucket[int(version[1:])] = per_bucket.get(int(version[1:]), 0) + 1
    return versions


#: Far more mutations than any test run makes: ``fail(NEVER)`` is an outage
#: that never starts, armed to count a run's mutations.
NEVER = 10 ** 9


def outage_left(tier):
    """How many more keys ``tier`` writes or deletes before its outage starts."""
    return tier.servers[0]._outage.left


def live_versions(oram):
    """What :func:`stored_versions` holds when only live versions are stored:
    every written bucket's current version, all ``Z + S`` slots of it."""
    slots = oram.params.slots_per_bucket
    current = {bucket: oram.metadata.bucket(bucket).version
               for bucket in oram.metadata.buckets_present()}
    return {bucket: {version: slots} for bucket, version in current.items() if version}
