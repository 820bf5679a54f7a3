"""The storage adversary's view, pinned as golden hashes.

A representation or performance change to the ORAM client must not move a
single request the untrusted servers observe.  Two tiny fixed-seed engines
are driven through fixed programs — a durable single tree that crashes
mid-epoch, recovers (WAL path replay included) and keeps serving, and a
``shards=2`` layer hosted on two storage servers — and every server's trace
rows ``(seq, time_ms, op, key, size_bytes, batch_id)`` plus its
``batch_shape()`` are hashed.  The constants were recorded at the commit
*before* the columnar metadata landed and re-recorded once when the proxy
began deleting superseded bucket versions and checkpoint chains: that added
``DELETE`` rows and ``"delete"`` batches, and left every other row and
batch as it was.  The durable tree's constant was re-recorded once more
when crashes became storage outages: the crash now comes before the crashed
epoch's second read batch reaches the server (a failed request), not after
it, so those 81 slot reads are gone and every later row is stamped earlier;
every other row's op, key, size and batch id is unchanged.  All three were
re-recorded when checkpoints became fixed-width binary records: only the
checkpoint rows' sizes and the time stamps moved (checkpoint bytes feed the
simulated clock); every op, key, batch id and slot size is unchanged.  A change
that moves them changes what the adversary sees
(an RNG draw moved, a slot choice or a version changed, a checkpoint grew)
and must say so and re-record them in its own PR.

A third engine runs with ``buffer_writes=False`` — two durable partitions
sharing one server, so one trace — where every eviction writes its buckets
in the middle of the batch that triggered it: the one configuration in which
the executor's slot reads and its writes interleave inside a batch.  Its
constant was recorded at the commit *before* the executor began holding back
the reads it does not open.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from repro.api import EngineConfig, create_engine
from repro.core.client import Read, Write

KEYS = 48

GOLDEN_SINGLE_DURABLE = [
    "28e78ff853f713db1e3a28899ddf986fcc54f16e4044456b01be57cc3e9de90a",
]
GOLDEN_SHARDED_TWO_SERVERS = [
    "6cb7ee66e3b8f397c26a852bfa5f5089f57809765434f282a368bb6d28fa855b",
    "0be3e210b67068e8e2cdfcddc61f1d022e52bd4d67cc5da662a90db3b7511815",
]
GOLDEN_IMMEDIATE_WRITES = [
    "120e3aa1dd078dfd8af0beddda8c173e5a01b09943374599fc661a984148c976",
]


def trace_hash(trace) -> str:
    """sha256 over one server's trace rows and batch shape."""
    digest = hashlib.sha256()
    for e in trace.events:
        digest.update(repr((e.seq, e.time_ms, e.op.value, e.key, e.size_bytes,
                            e.batch_id)).encode())
    digest.update(repr(trace.batch_shape()).encode())
    return digest.hexdigest()


def server_hashes(engine):
    return [trace_hash(server.trace) for server in engine.storage.servers]


def base_config(seed):
    # Small Z and S so a few waves reach every planner branch: real slots
    # found in the tree, stash hits, early reshuffles, evictions, reads of
    # buckets rewritten inside their own epoch.
    return (EngineConfig()
            .with_oram(num_blocks=128, z_real=4, s_dummies=3, evict_rate=3,
                       block_size=96)
            .with_batching(read_batches=2, read_batch_size=8, write_batch_size=8)
            .with_backend("server")
            .with_seed(seed))


def read_maybe_write(key, stamp):
    value = yield Read(key)
    if stamp is not None:
        yield Write(key, (value or b"")[:40] + stamp)
    return value


def run_waves(engine, rng, waves, hot=KEYS):
    """``waves`` epochs of six seeded programs each, on keys ``k0..k<hot-1>``."""
    for wave in range(waves):
        programs = []
        for i in range(6):
            key = f"k{rng.randrange(hot)}"
            stamp = f"|{wave}.{i}".encode() if rng.random() < 0.6 else None
            programs.append(lambda key=key, stamp=stamp: read_maybe_write(key, stamp))
        engine.submit_many(programs)


def test_single_tree_durable_with_crash_and_recover():
    engine = create_engine("obladi", base_config(5).with_durability(
        True, checkpoint_frequency=3))
    engine.load_initial_data({f"k{i}": f"v{i}".encode() for i in range(KEYS)})
    rng = random.Random(77)
    run_waves(engine, rng, waves=7)

    # The storage tier goes down once the epoch has logged both read
    # batches: the second batch's slot reads fail and the proxy crashes.
    engine.storage.fail(after=2)
    with pytest.raises(ConnectionError):
        run_waves(engine, rng, waves=1, hot=8)
    engine.storage.recover()
    report = engine.recover()
    assert report.paths_replayed > 0            # the WAL replay planned path reads
    run_waves(engine, rng, waves=5)

    assert server_hashes(engine) == GOLDEN_SINGLE_DURABLE


def test_two_shards_on_two_storage_servers():
    engine = create_engine("obladi", base_config(6).with_sharding(2)
                           .with_storage_servers(2))
    engine.load_initial_data({f"k{i}": f"v{i}".encode() for i in range(KEYS)})
    run_waves(engine, random.Random(78), waves=10)

    assert server_hashes(engine) == GOLDEN_SHARDED_TWO_SERVERS


def test_immediate_writes_interleave_with_reads_inside_a_batch():
    config = replace(base_config(7).with_sharding(2).with_durability(
        True, checkpoint_frequency=3), buffer_writes=False)
    engine = create_engine("obladi", config)
    engine.load_initial_data({f"k{i}": f"v{i}".encode() for i in range(KEYS)})
    run_waves(engine, random.Random(79), waves=10)

    # Far more read-to-write switches than epochs: the writes are not one
    # flush per epoch, they sit between the slot reads of the batches.
    ops = [event.op.value for event in engine.storage.servers[0].trace.events
           if event.key.startswith("p0/oram/")]
    assert sum(before == "read" and after == "write"
               for before, after in zip(ops, ops[1:])) > 20
    assert server_hashes(engine) == GOLDEN_IMMEDIATE_WRITES
