"""A proxy crash at every storage mutation, judged by what an outsider sees.

The storage tier has one fault switch: ``fail(after=k)`` starts an outage
once ``k`` more keys have been written or deleted, and the write or delete
batch that crosses that point is torn.  The engine crashes its proxy when a
request fails, so enumerating ``k`` over a short run crashes the proxy right
after every storage mutation it makes: inside a flush, part-way through a
checkpoint chain, before and after a WAL append, between an epoch's commit
and the deletes that follow it, in a migration's copy steps (on servers it
adds to the tier, too), at its cutover fence and while the cutover retires
the old generation.  Armed again before
``recover()``, the same switch crashes recovery itself, whose sweep deletes.

The oracle knows only what the client submitted and what it was told.  A
fault-free run of the same programs gives the state after every wave; after
the crash and ``recover()``:

* every key reads back, through ordinary read transactions, as it stood
  after the last wave the client saw commit or after the wave the crash cut
  short — all of that wave or none of it;
* the history the engine reports is serializable;
* the servers hold exactly one version of every bucket the recovered layer
  has written, the checkpoint chain its manifest names, and nothing of any
  other generation.
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, create_engine
from repro.concurrency import check_serializable
from repro.core.client import Read, Write
from repro.elasticity import ReshardPlan
from repro.recovery.checkpoint import MANIFEST_KEY
from repro.storage.backend import StorageOp

from tests.conftest import NEVER, live_versions, outage_left, stored_versions

KEYS = [f"k{i}" for i in range(6)]
LOADED = {key: b"v-" + key.encode() for key in KEYS}
WAVES = 3

#: (shards, storage_servers, proxy_workers, checkpoint_frequency, migrate).
#: ``migrate`` is ``None`` or what a reshard at the first wave does:
#: ``"shards"`` doubles the shards, ``"shards+server"`` also adds a storage
#: server.  In the first six rows every pair of values of any two axes but
#: ``"shards+server"`` appears; the last two add a server to a single one
#: (which becomes a cluster's metadata server) and to a cluster (which grows
#: in place, so recovery from a crash before the cutover must sweep a server
#: no partition is on).
MATRIX = [
    (1, 1, 1, 2, None),
    (1, 1, 2, 1, "shards"),
    (2, 1, 1, 1, "shards"),
    (2, 1, 2, 2, None),
    (2, 2, 2, 2, "shards"),
    (2, 2, 1, 1, None),
    (2, 1, 1, 2, "shards+server"),
    (2, 2, 2, 1, "shards+server"),
]
#: The test id suffix of each ``migrate`` value.
MIGRATE_IDS = {None: "", "shards": "-migrating", "shards+server": "-migrating-to-a-new-server"}


def config(shards, servers, workers, frequency, small=True):
    """A tree small enough to crash at each of its few hundred mutations."""
    if small:
        oram = dict(num_blocks=16, z_real=2, s_dummies=2, evict_rate=4, block_size=32)
        batching = dict(read_batches=1, read_batch_size=2, write_batch_size=2)
    else:
        oram = dict(num_blocks=64, z_real=3, s_dummies=3, evict_rate=3, block_size=48)
        batching = dict(read_batches=2, read_batch_size=4, write_batch_size=4)
    return (EngineConfig()
            .with_oram(**oram)
            .with_batching(**batching)
            .with_backend("server")
            .with_sharding(shards)
            .with_storage_servers(servers)
            .with_proxy_workers(workers)
            .with_durability(True, checkpoint_frequency=frequency)
            .with_seed(11))


def wave_writes(wave, width):
    """``(key, value)`` of each program of ``wave``: distinct keys, fresh values."""
    return [(KEYS[(wave * width + i) % len(KEYS)], f"{wave}.{i}".encode())
            for i in range(width)]


def rewrite(key, value):
    def program():
        seen = yield Read(key)
        yield Write(key, value)
        return seen
    return program


def reader(key):
    def program():
        return (yield Read(key))
    return program


def run(cfg, migrate, after):
    """Load, arm ``fail(after)`` and run the waves until one raises.

    Returns ``(engine, acknowledged, mutations)``: the results of every wave
    that returned, and — when no wave raised — how many keys the run wrote
    or deleted (``None`` after a crash).
    """
    engine = create_engine("obladi", cfg)
    engine.load_initial_data(LOADED)
    tier = engine.storage
    tier.fail(after)
    loaded = keys_written_or_deleted(tier)
    width = cfg.read_batch_size
    acknowledged = []
    try:
        for wave in range(WAVES):
            if migrate == "shards" and wave == 0:
                engine.reshard(ReshardPlan(shards=2 * cfg.shards))
            elif migrate == "shards+server" and wave == 0:
                engine.reshard(ReshardPlan(shards=2 * cfg.shards,
                                           storage_servers=cfg.storage_servers + 1))
            acknowledged.append(engine.submit_many(
                [rewrite(key, value) for key, value in wave_writes(wave, width)]))
    except ConnectionError:
        return engine, acknowledged, None
    mutations = after - outage_left(tier)
    # The outage counted every key any server wrote or deleted, on servers
    # a migration added to the tier too.
    assert mutations == keys_written_or_deleted(engine.storage) - loaded
    return engine, acknowledged, mutations


def keys_written_or_deleted(tier):
    """How many keys the servers of ``tier`` have written or deleted, by their traces."""
    servers = getattr(tier, "servers", None) or [tier]
    return sum(count for server in servers
               for op, count in server.trace.ops_by_kind().items() if op is not StorageOp.READ)


def recovery_mutations(cfg, migrate, after):
    """How many keys ``recover()`` writes or deletes after a crash at ``after``."""
    engine, _, _ = run(cfg, migrate, after)
    engine.storage.fail(NEVER)
    engine.recover()
    return NEVER - outage_left(engine.storage)


@lru_cache(maxsize=None)
def reference(cfg, migrate):
    """The fault-free run: ``(results per wave, state after each wave, mutations)``."""
    _, acknowledged, mutations = run(cfg, migrate, NEVER)
    width = cfg.read_batch_size
    state = dict(LOADED)
    states = [dict(state)]
    for wave, results in enumerate(acknowledged):
        for (key, value), result in zip(wave_writes(wave, width), results):
            if result.committed:
                state[key] = value
        states.append(dict(state))
    return acknowledged, states, mutations


def read_back(engine):
    """Every key through ordinary read transactions, retrying any that abort."""
    wave_size = engine.proxy.config.partition_read_batch_size
    delivered, pending = {}, list(KEYS)
    for _ in range(20):
        for offset in range(0, len(pending), wave_size):
            keys = pending[offset:offset + wave_size]
            for key, result in zip(keys, engine.submit_many([reader(key) for key in keys])):
                if result.committed:
                    delivered[key] = result.return_value
        pending = [key for key in KEYS if key not in delivered]
        if not pending:
            return delivered
    raise AssertionError(f"keys never read back: {pending}")


def assert_clean(engine):
    """One version of every written bucket, the manifest's chain, nothing else."""
    proxy = engine.proxy
    servers = getattr(engine.storage, "servers", None) or [engine.storage]
    slots = 0
    for part in proxy.data_layer.partitions:
        live = live_versions(part.oram)
        assert stored_versions(part.storage, part.oram.key_prefix) == live, \
            f"partition {part.index}"
        slots += sum(count for versions in live.values() for count in versions.values())
    assert sum("oram/" in key for server in servers for key in server.keys()) == slots
    manifest = proxy.recovery.checkpoints.manifest
    chain = {(manifest.last_full_epoch, "full")} | {
        (epoch, "delta") for epoch in manifest.delta_epochs}
    stored = {(int(key.split("/")[1]), key.split("/")[2]) for key in servers[0].keys()
              if key.startswith("ckpt/") and key != MANIFEST_KEY}
    assert stored == chain


def crash_and_check(cfg, migrate, after, recovery_after=NEVER):
    """Crash at ``after``; crash recovery at ``recovery_after``; check the outcome.

    Returns what the keys read back as, or ``None`` if the run made fewer
    than ``after`` mutations and never crashed.
    """
    expected_results, states, _ = reference(cfg, migrate)
    engine, acknowledged, mutations = run(cfg, migrate, after)
    if mutations is not None:
        return None
    assert engine.proxy.crashed
    cut = len(acknowledged)
    assert acknowledged == expected_results[:cut]

    tier = engine.storage
    tier.fail(recovery_after)
    try:
        engine.recover()
    except ConnectionError:
        tier.recover()
        engine.recover()
    tier.recover()
    assert_clean(engine)

    delivered = read_back(engine)
    assert delivered in (states[cut], states[cut + 1]), (after, cut, delivered)
    # The history the engine reports is what the reads delivered: each
    # committed transaction once, the epoch the crash cut short in it
    # exactly when it survived.
    history = engine.committed_history
    assert len({txn.txn_id for txn in history}) == len(history)
    folded = dict(LOADED)
    for txn in sorted(history, key=lambda txn: txn.timestamp):
        folded.update(txn.write_set)
    assert delivered == folded
    ok, cycle = check_serializable(history)
    assert ok, cycle
    assert_clean(engine)
    return delivered


@pytest.mark.parametrize("half", [0, 1], ids=["even", "odd"])
@pytest.mark.parametrize("shards,servers,workers,frequency,migrate", MATRIX,
                         ids=[f"shards{s}-servers{m}-workers{w}-ckpt{f}"
                              + MIGRATE_IDS[mig]
                              for s, m, w, f, mig in MATRIX])
def test_a_crash_after_any_storage_mutation_recovers_what_was_acknowledged(
        shards, servers, workers, frequency, migrate, half):
    """Every k (the even or the odd ones), each with a second crash inside
    recovery at ``k % 5`` mutations — none when recovery makes fewer."""
    cfg = config(shards, servers, workers, frequency)
    _, states, mutations = reference(cfg, migrate)
    assert mutations > 100
    outcomes = [crash_and_check(cfg, migrate, after, recovery_after=after % 5)
                for after in range(half, mutations, 2)]
    assert None not in outcomes
    # Crashes land on both sides of some commit, and of the last one.
    assert states[-1] in outcomes or half == 1
    assert states[0] in outcomes


@pytest.mark.parametrize("shards,servers,workers,frequency,migrate",
                         [MATRIX[1], MATRIX[4]], ids=["single-tree", "shards2-servers2"])
def test_a_crash_inside_recovery_ends_the_same_way(shards, servers, workers,
                                                   frequency, migrate):
    """Recovery is idempotent: for five crash points spread over the run, a
    second crash after any of recovery's own mutations reads back the same."""
    cfg = config(shards, servers, workers, frequency)
    _, _, mutations = reference(cfg, migrate)
    swept = 0
    for after in range(mutations // 7, mutations, mutations // 5):
        once = crash_and_check(cfg, migrate, after)
        inside = recovery_mutations(cfg, migrate, after)
        swept += inside
        for recovery_after in range(inside):
            assert crash_and_check(cfg, migrate, after, recovery_after) == once
    assert swept > 50


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(MATRIX), st.floats(0.0, 1.0, exclude_max=True))
def test_larger_trees_recover_from_a_crash_anywhere(row, where):
    shards, servers, workers, frequency, migrate = row
    cfg = config(shards, servers, workers, frequency, small=False)
    _, _, mutations = reference(cfg, migrate)
    assert crash_and_check(cfg, migrate, int(where * mutations),
                           recovery_after=int(where * 97) % 11) is not None


@pytest.mark.parametrize("shards,servers,workers,frequency,migrate",
                         [MATRIX[2], MATRIX[7]], ids=["shards2", "shards2-servers2"])
def test_the_ledger_holds_an_epoch_from_its_commit_on(shards, servers, workers,
                                                      frequency, migrate):
    """Crash at every mutation from the checkpoint manifest of a reshard's
    last wave to the end of its cutover: the deletes that follow the commit,
    the migration's last copy step, the cutover fence and the retiring
    generation's deletes.  A crash at the manifest loses the wave's epoch;
    from the next mutation on the epoch has committed, so although
    ``submit_many`` raises, its results are in the engine's ledger, before
    and after ``recover()``: ``stats()`` counts exactly the committed
    history."""
    cfg = config(shards, servers, workers, frequency)
    width = cfg.read_batch_size

    def run_until_cutover(engine):
        """Reshard, then write waves until the cutover; returns its wave."""
        engine.reshard(ReshardPlan(shards=2 * shards,
                                   storage_servers=servers + (migrate == "shards+server")))
        for wave in range(20):
            engine.submit_many([rewrite(key, value)
                                for key, value in wave_writes(wave, width)])
            if not engine.reshard_in_flight:
                return wave
        raise AssertionError("the migration never cut over")

    # The fault-free run: which wave cuts over, and where each epoch
    # commits (the mutations stored before it enters the history).
    engine = create_engine("obladi", cfg)
    engine.load_initial_data(LOADED)
    engine.storage.fail(NEVER)
    commits = []

    def counted_commit(*args, record_commits=engine.proxy._record_commits):
        commits.append(NEVER - outage_left(engine.storage))
        return record_commits(*args)

    engine.proxy._record_commits = counted_commit
    last = run_until_cutover(engine)
    assert len(commits) == last + 1
    committed_at = commits[-1]
    end = NEVER - outage_left(engine.storage)
    assert end - committed_at > 10

    for after in range(committed_at - 1, end):
        engine = create_engine("obladi", cfg)
        engine.load_initial_data(LOADED)
        engine.storage.fail(after)
        with pytest.raises(ConnectionError):
            run_until_cutover(engine)
        assert engine.stats().epochs == last + (after >= committed_at), after
        assert engine.stats().committed == len(engine.committed_history), after
        engine.storage.recover()
        engine.recover()
        assert engine.stats().committed == len(engine.committed_history), after
