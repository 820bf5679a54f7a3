"""Tests for the recovery manager: checkpoints, crash recovery, WAL replay."""

import pytest

from repro.analysis import check_bucket_invariant
from repro.api import ObladiEngine
from repro.core.client import Read, ReadMany, Write
from repro.core.config import ObladiConfig, RingOramConfig
from repro.core.errors import ProxyCrashedError
from repro.core.proxy import ObladiProxy
from repro.oram.crypto import IntegrityError
from repro.recovery.manager import derive_key, recover_proxy
from repro.storage.backend import StorageOp

from tests.conftest import read_program, tree_slot_key, write_program


def recover(proxy, config=None, master_key=None):
    """Recover crashed ``proxy``: its chain must reach the last epoch it saw commit."""
    committed = (proxy.recovery.checkpoints.committed_epoch
                 if proxy.recovery is not None else None)
    return recover_proxy(proxy.storage, config or proxy.config,
                         master_key=master_key or proxy.master_key,
                         committed_epoch=committed)


def crash_after_mutations(proxy, mutations, program):
    """Crash ``proxy`` in the epoch running ``program``: the storage tier goes
    down once ``mutations`` more keys have been written or deleted (the epoch's
    first WAL records), then comes back for recovery."""
    proxy.storage.fail(after=mutations)
    with pytest.raises(ConnectionError):
        ObladiEngine(proxy).submit(program)
    assert proxy.crashed
    proxy.storage.recover()


@pytest.fixture
def durable_proxy_with_history(durable_config):
    """A durable proxy that has committed three epochs of writes."""
    proxy = ObladiProxy(durable_config)
    proxy.load_initial_data({f"k{i}": f"value-{i}".encode() for i in range(30)})
    for epoch in range(3):
        for i in range(4):
            proxy.submit(write_program(f"k{i}", f"epoch{epoch}-{i}".encode()))
        proxy.run_epoch()
    return proxy


class TestKeyDerivation:
    def test_derive_key_is_deterministic(self):
        assert derive_key(b"m" * 32, "oram") == derive_key(b"m" * 32, "oram")

    def test_derive_key_differs_by_purpose(self):
        assert derive_key(b"m" * 32, "oram") != derive_key(b"m" * 32, "wal")


class TestNormalOperationHooks:
    def test_checkpoints_written_each_epoch(self, durable_proxy_with_history):
        manager = durable_proxy_with_history.recovery
        assert manager.stats_checkpoints >= 3

    def test_wal_logged_per_read_batch(self, durable_proxy):
        durable_proxy.submit(read_program("k1"))
        durable_proxy.run_epoch()
        assert durable_proxy.recovery.wal.records_written >= 1

    def test_durability_traffic_charged_to_clock(self, durable_config, small_config):
        durable = ObladiProxy(durable_config)
        plain = ObladiProxy(small_config)
        data = {f"k{i}": b"v" for i in range(10)}
        durable.load_initial_data(data)
        plain.load_initial_data(data)
        for proxy in (durable, plain):
            proxy.submit(write_program("k1", b"x"))
            proxy.run_epoch()
        assert durable.clock.now_ms > plain.clock.now_ms


class TestRecovery:
    def test_recovery_restores_committed_state(self, durable_proxy_with_history):
        proxy = durable_proxy_with_history
        proxy.crash()
        recovered, result = recover(proxy)
        assert result.recovered_epoch >= 2
        engine = ObladiEngine(recovered)
        for i in range(4):
            assert engine.read(f"k{i}") == f"epoch2-{i}".encode()
        # Untouched keys still hold their initial values.
        assert engine.read("k20") == b"value-20"

    def test_aborted_epoch_writes_do_not_survive(self, durable_proxy_with_history):
        proxy = durable_proxy_with_history

        def doomed():
            yield Read("k0")
            yield Write("k0", b"MUST-NOT-SURVIVE")
            return True

        crash_after_mutations(proxy, 1, doomed)
        recovered, _ = recover(proxy)
        assert ObladiEngine(recovered).read("k0") == b"epoch2-0"

    def test_a_storage_outage_crashes_the_proxy(self, durable_proxy_with_history):
        proxy = durable_proxy_with_history
        engine = ObladiEngine(proxy)
        proxy.storage.fail()
        with pytest.raises(ConnectionError):
            engine.submit(read_program("k1"))
        assert proxy.crashed
        proxy.storage.recover()
        with pytest.raises(ProxyCrashedError):
            engine.submit(read_program("k1"))
        engine.recover()
        assert engine.read("k1") == b"epoch2-1"

    def test_recovered_proxy_continues_serving(self, durable_proxy_with_history):
        proxy = durable_proxy_with_history
        proxy.crash()
        recovered, _ = recover(proxy)
        engine = ObladiEngine(recovered)
        result = engine.submit(write_program("k9", b"after-recovery"))
        assert result.committed
        assert engine.read("k9") == b"after-recovery"

    def test_recovery_reports_component_times(self, durable_proxy_with_history):
        proxy = durable_proxy_with_history
        proxy.crash()
        _, result = recover(proxy)
        assert result.total_ms > 0
        assert result.position_ms >= 0
        assert result.permutation_ms >= 0
        assert result.bytes_read > 0

    def test_recovery_replays_aborted_epoch_paths(self, durable_proxy_with_history):
        proxy = durable_proxy_with_history
        crash_after_mutations(proxy, 2, read_program("k3"))
        _, result = recover(proxy)
        assert result.paths_replayed >= 1
        assert result.paths_ms > 0

    def test_replay_over_a_real_slot_the_store_lost_is_rejected(
            self, durable_proxy_with_history):
        proxy = durable_proxy_with_history
        part = proxy.data_layer.partitions[0]
        # A key whose block the last checkpoint records in the tree: the
        # replay of the aborted epoch's logged path will open that slot.
        key = next(key for key in (f"k{i}" for i in range(10, 30))
                   if part.directory.block_id(key) not in part.oram.stash)
        lost = tree_slot_key(part.oram, part.directory.block_id(key))
        crash_after_mutations(proxy, 2, read_program(key))
        proxy.storage.delete_batch([lost])
        with pytest.raises(IntegrityError, match=lost):
            recover(proxy)

    def test_wrong_master_key_cannot_recover(self, durable_proxy_with_history):
        proxy = durable_proxy_with_history
        proxy.crash()
        with pytest.raises(IntegrityError):
            recover(proxy, master_key=b"wrong" * 8)

    def test_recovery_requires_durability(self, small_config, proxy):
        proxy.crash()
        with pytest.raises((ValueError, Exception)):
            recover(proxy, config=small_config)

    def test_epoch_counter_continues_after_recovery(self, durable_proxy_with_history):
        proxy = durable_proxy_with_history
        epochs_before = proxy._epoch_counter
        proxy.crash()
        recovered, _ = recover(proxy)
        recovered.submit(read_program("k1"))
        [result] = recovered.run_epoch()
        assert result.epoch >= epochs_before - 1


def recovery_slot_reads(real_reads):
    """ORAM slots ``recover()`` reads after a crash at the first WAL append of
    an epoch whose one transaction reads ``real_reads`` distinct keys."""
    config = ObladiConfig(oram=RingOramConfig(num_blocks=64, z_real=4, block_size=64),
                          read_batches=2, read_batch_size=8, write_batch_size=8,
                          backend="server", durability=True, seed=5)
    proxy = ObladiProxy(config)
    proxy.load_initial_data({f"k{i}": b"v" for i in range(16)})

    def program():
        return (yield ReadMany([f"k{i}" for i in range(real_reads)]))

    crash_after_mutations(proxy, 1, program)
    proxy.storage.trace.clear()
    recover(proxy)
    return sum("oram/" in e.key for e in proxy.storage.trace.events if e.op is StorageOp.READ)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "replay reads one path per logged real key, not the padded batch the "
    "server saw (ROADMAP item 12 (i)); the fix pads replay to the "
    "logged padded_size and re-records the durable goldens"))
def test_replay_reads_do_not_reveal_the_aborted_epochs_real_reads():
    """Both worlds logged one padded read batch of ``b_read`` rows before the
    crash; an observer of recovery must not tell one real read from six."""
    assert recovery_slot_reads(1) == recovery_slot_reads(6)


def replayed_paths_and_double_reads(seed):
    """``(paths replayed, slots read twice)`` of ``recover()`` after a crash at
    the second WAL append of an epoch whose one transaction reads ``k0``..``k15``
    across both of its read batches."""
    config = ObladiConfig(oram=RingOramConfig(num_blocks=64, z_real=4, block_size=64),
                          read_batches=2, read_batch_size=8, write_batch_size=8,
                          backend="server", durability=True, seed=seed)
    proxy = ObladiProxy(config)
    proxy.load_initial_data({f"k{i}": b"v" for i in range(16)})

    def program():
        return (yield ReadMany([f"k{i}" for i in range(16)]))

    crash_after_mutations(proxy, 2, program)
    proxy.storage.trace.clear()
    _, report = recover(proxy)
    return report.paths_replayed, check_bucket_invariant(proxy.storage.trace)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "replay runs no early reshuffle: once the root has no unread slot left, "
    "plan_path_read's fallback re-reads slot 0 (ROADMAP item 12 (i))"))
def test_recovery_reads_no_oram_slot_twice():
    """Ring ORAM reads a slot at most once per bucket version, replay included.

    Recovery replays the 16 logged paths over a tree whose root has S = 6
    dummy slots and reads ``oram/0/v0/s/0`` seven times, at every seed.
    """
    seeds = range(1, 6)
    assert {seed: replayed_paths_and_double_reads(seed) for seed in seeds} == \
        {seed: (16, []) for seed in seeds}
