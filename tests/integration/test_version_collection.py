"""The server keeps what somebody can read, and nothing else.

Every bucket rewrite goes to a new versioned key (shadow paging); once the
epoch commits, the version it replaced is deleted, and a new full checkpoint
deletes the chain before it.  Checked on what the storage servers hold:

* after every epoch, each bucket ever written has exactly one stored version
  — all ``Z + S`` slots of the version its metadata names — over every
  topology, with durability on and off;
* a crash before the checkpoint leaves every previous version in place, a
  crash between the commit and the collect leaves garbage, never a hole:
  recovery reads back every committed value and its sweep leaves one
  version per bucket (a hole would be a lost-real-slot ``IntegrityError``,
  garbage a wrong version count);
* a reshard cutover deletes the retiring generation.

``tests/integration/test_crash_matrix.py`` crashes a smaller run at every
storage mutation.
"""

import pytest

from repro.api import EngineConfig, create_engine
from repro.core.client import Read, Write
from repro.elasticity import ReshardPlan
from repro.recovery.checkpoint import MANIFEST_KEY

from tests.conftest import NEVER, live_versions, outage_left, stored_versions

KEYS = 32


def config(shards=1, servers=1, workers=1, durable=False):
    return (EngineConfig()
            .with_oram(num_blocks=128, z_real=4, s_dummies=3, evict_rate=3,
                       block_size=96)
            .with_batching(read_batches=2, read_batch_size=8, write_batch_size=8)
            .with_backend("server")
            .with_sharding(shards)
            .with_storage_servers(servers)
            .with_proxy_workers(workers)
            .with_durability(durable, checkpoint_frequency=3)
            .with_seed(9))


def engine_for(cfg):
    engine = create_engine("obladi", cfg)
    engine.load_initial_data({f"k{i}": f"v{i}".encode() for i in range(KEYS)})
    return engine


def append(key, stamp):
    def program():
        value = yield Read(key)
        yield Write(key, (value or b"")[:40] + stamp)
        return value
    return program


def blind_write(key, value):
    def program():
        yield Write(key, value)
        return True
    return program


def wave(engine, epoch):
    """Six read-modify-writes on distinct keys, rotating over the keyspace."""
    return engine.submit_many([append(f"k{(epoch * 5 + i) % KEYS}", b"|%d" % epoch)
                               for i in range(6)])


def assert_one_version_per_bucket(proxy):
    for part in proxy.data_layer.partitions:
        assert stored_versions(part.storage, part.oram.key_prefix) == live_versions(part.oram), \
            f"partition {part.index}"


def assert_no_hole(partitions, live):
    """Every slot of every version in ``live`` (one map per partition) is stored."""
    for part, versions in zip(partitions, live):
        stored = stored_versions(part.storage, part.oram.key_prefix)
        for bucket, version in versions.items():
            assert stored[bucket].items() >= version.items(), (part.index, bucket)


def expected_state(engine):
    state = {f"k{i}": f"v{i}".encode() for i in range(KEYS)}
    for txn in sorted(engine.committed_history, key=lambda t: t.timestamp):
        state.update(txn.write_set)
    return state


def assert_reads_back(engine, expected):
    for key, value in sorted(expected.items()):
        assert engine.read(key) == value, key


def checkpoint_keys(storage):
    servers = getattr(storage, "servers", None) or [storage]
    return sorted(key for key in servers[0].keys()
                  if key.startswith("ckpt/") and key != MANIFEST_KEY)


def chain_entries(proxy):
    manifest = proxy.recovery.checkpoints.manifest
    chain = [(manifest.last_full_epoch, "full")] + [
        (epoch, "delta") for epoch in manifest.delta_epochs]
    return {(epoch, kind) for epoch, kind in chain}


#: (shards, storage_servers): a single tree lives on one server.
LAYOUTS = [(1, 1), (4, 1), (4, 2)]


@pytest.mark.parametrize("durable", [False, True], ids=["volatile", "durable"])
@pytest.mark.parametrize("workers", [1, 2], ids=["workers1", "workers2"])
@pytest.mark.parametrize("shards,servers", LAYOUTS,
                         ids=[f"shards{s}-servers{m}" for s, m in LAYOUTS])
def test_every_epoch_leaves_one_version_per_written_bucket(shards, servers, workers,
                                                           durable):
    engine = engine_for(config(shards, servers, workers, durable))
    assert_one_version_per_bucket(engine.proxy)
    for epoch in range(8):
        wave(engine, epoch)
        assert_one_version_per_bucket(engine.proxy)
        if durable:
            stored = {(int(key.split("/")[1]), key.split("/")[2])
                      for key in checkpoint_keys(engine.storage)}
            assert stored == chain_entries(engine.proxy)
    assert_reads_back(engine, expected_state(engine))


class CheckpointWrites:
    """A checkpoint store's storage that notes how many keys the tier has
    written or deleted since ``fail(NEVER)``: before each batch of
    components and after each manifest."""

    def __init__(self, tier):
        self.tier = tier
        self.before_components = []
        self.after_manifest = []

    def __getattr__(self, name):
        return getattr(self.tier, name)

    def write_batch(self, items, record_batch=True):
        self.before_components.append(NEVER - outage_left(self.tier))
        self.tier.write_batch(items, record_batch)

    def write(self, key, value):
        self.tier.write(key, value)
        self.after_manifest.append(NEVER - outage_left(self.tier))


def run_four_waves(shards, servers):
    engine = engine_for(config(shards, servers, durable=True))
    for epoch in range(4):
        wave(engine, epoch)
    return engine


@pytest.mark.parametrize("shards,servers", [(1, 1), (4, 2)],
                         ids=["single-tree", "shards4-servers2"])
@pytest.mark.parametrize("point", ["before_checkpoint", "after_checkpoint"], ids=str)
def test_a_crash_at_the_commit_leaves_garbage_never_a_hole(point, shards, servers):
    # Two keys: no partition's write quota can overflow and shed one.
    crashing = {"k0": b"crash-0", "k1": b"crash-1"}
    programs = [blind_write(key, value) for key, value in crashing.items()]

    # A fault-free run of the same epoch finds the crash point: the keys
    # written or deleted before its checkpoint's first write, or up to and
    # including its manifest.
    probe = run_four_waves(shards, servers)
    probe.storage.fail(NEVER)
    writes = probe.proxy.recovery.checkpoints.storage = CheckpointWrites(probe.storage)
    probe.submit_many(programs)
    assert len(writes.before_components) == len(writes.after_manifest) == 1
    after = (writes.before_components if point == "before_checkpoint"
             else writes.after_manifest)[0]

    engine = run_four_waves(shards, servers)
    proxy = engine.proxy
    committed = [live_versions(part.oram) for part in proxy.data_layer.partitions]
    expected = expected_state(engine)
    engine.storage.fail(after)
    with pytest.raises(ConnectionError):
        engine.submit_many(programs)
    assert proxy.crashed
    # The flush ran, and no delete did: every version the last commit named
    # is still stored, next to the crashed epoch's newer ones.
    assert_no_hole(proxy.data_layer.partitions, committed)
    assert any(stored_versions(part.storage, part.oram.key_prefix) != versions
               for part, versions in zip(proxy.data_layer.partitions, committed))

    engine.storage.recover()
    engine.recover()
    assert_one_version_per_bucket(engine.proxy)
    # Past the manifest the epoch is durable; before it, it never happened.
    if point == "after_checkpoint":
        expected.update(crashing)
    assert_reads_back(engine, expected)
    assert_one_version_per_bucket(engine.proxy)


@pytest.mark.parametrize("durable", [False, True], ids=["volatile", "durable"])
def test_cutover_deletes_the_retiring_generation(durable):
    engine = engine_for(config(durable=durable)
                        .with_batching(read_batches=3, read_batch_size=8,
                                       write_batch_size=8))
    engine.reshard(ReshardPlan(shards=4, storage_servers=2))
    epoch = 0
    while engine.reshard_in_flight or epoch < 2:
        wave(engine, epoch)
        epoch += 1
        assert epoch < 40, "migration never completed"
        if engine.reshard_in_flight:
            # A copy step's flush waits for the next epoch's collect: garbage
            # may outlive a barrier, a live version never goes missing.
            partitions = engine.proxy.data_layer.partitions
            assert_no_hole(partitions, [live_versions(part.oram) for part in partitions])
    assert engine.proxy.config.generation == 1
    for server in engine.storage.servers:
        assert [key for key in server.keys() if key.startswith("oram/")] == []
    assert_one_version_per_bucket(engine.proxy)
    if durable:
        assert all(key.split("/", 3)[3].startswith("g1/")
                   for key in checkpoint_keys(engine.storage))
    assert_reads_back(engine, expected_state(engine))


def test_a_crash_mid_migration_finds_every_version_the_checkpoint_names():
    """A copy step flushes the retiring layer after the epoch's checkpoint:
    what it superseded is deleted only after the next one commits."""
    engine = engine_for(config(durable=True)
                        .with_batching(read_batches=3, read_batch_size=8,
                                       write_batch_size=8))
    wave(engine, 0)
    engine.reshard(ReshardPlan(shards=4, storage_servers=2))
    wave(engine, 1)                     # starts the migration: one copy step
    assert engine.reshard_in_flight
    assert any(part.executor._superseded for part in engine.proxy.data_layer.partitions)
    expected = expected_state(engine)
    engine.crash()
    engine.recover()
    assert engine.proxy.config.generation == 0
    assert_one_version_per_bucket(engine.proxy)
    assert_reads_back(engine, expected)
