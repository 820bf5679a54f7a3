"""Tests for the recovery manager: checkpoints, crash recovery, WAL replay."""

import pytest

from repro.api import ObladiEngine
from repro.core.client import Read, Write
from repro.core.errors import ProxyCrashedError
from repro.core.proxy import ObladiProxy
from repro.oram.crypto import IntegrityError
from repro.recovery.crash import CrashInjector, CrashPoint
from repro.recovery.manager import derive_key, recover_proxy

from tests.conftest import read_program, tree_slot_key, write_program


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
        config = proxy.config
        proxy.crash()
        recovered, result = recover_proxy(proxy.storage, config, master_key=proxy.master_key)
        assert result.recovered_epoch >= 2
        engine = ObladiEngine(recovered)
        for i in range(4):
            assert engine.read(f"k{i}") == f"epoch2-{i}".encode()
        # Untouched keys still hold their initial values.
        assert engine.read("k20") == b"value-20"

    def test_aborted_epoch_writes_do_not_survive(self, durable_proxy_with_history):
        proxy = durable_proxy_with_history
        injector = CrashInjector(proxy, crash_after_batches=0,
                                 point=CrashPoint.BEFORE_READ_BATCH)
        injector.arm()

        def doomed():
            yield Read("k0")
            yield Write("k0", b"MUST-NOT-SURVIVE")
            return True

        proxy.submit(doomed)
        with pytest.raises(ProxyCrashedError):
            proxy.run_epoch()
        recovered, _ = recover_proxy(proxy.storage, proxy.config, master_key=proxy.master_key)
        assert ObladiEngine(recovered).read("k0") == b"epoch2-0"

    def test_recovered_proxy_continues_serving(self, durable_proxy_with_history):
        proxy = durable_proxy_with_history
        proxy.crash()
        recovered, _ = recover_proxy(proxy.storage, proxy.config, master_key=proxy.master_key)
        engine = ObladiEngine(recovered)
        result = engine.submit(write_program("k9", b"after-recovery"))
        assert result.committed
        assert engine.read("k9") == b"after-recovery"

    def test_recovery_reports_component_times(self, durable_proxy_with_history):
        proxy = durable_proxy_with_history
        proxy.crash()
        _, result = recover_proxy(proxy.storage, proxy.config, master_key=proxy.master_key)
        assert result.total_ms > 0
        assert result.position_ms >= 0
        assert result.permutation_ms >= 0
        assert result.bytes_read > 0

    def test_recovery_replays_aborted_epoch_paths(self, durable_proxy_with_history):
        proxy = durable_proxy_with_history
        injector = CrashInjector(proxy, crash_after_batches=1,
                                 point=CrashPoint.AFTER_READ_BATCH)
        injector.arm()
        proxy.submit(read_program("k3"))
        with pytest.raises(ProxyCrashedError):
            proxy.run_epoch()
        _, result = recover_proxy(proxy.storage, proxy.config, master_key=proxy.master_key)
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
        injector = CrashInjector(proxy, crash_after_batches=1,
                                 point=CrashPoint.AFTER_READ_BATCH)
        injector.arm()
        proxy.submit(read_program(key))
        with pytest.raises(ProxyCrashedError):
            proxy.run_epoch()
        proxy.storage.delete_batch([lost])
        with pytest.raises(IntegrityError, match=lost):
            recover_proxy(proxy.storage, proxy.config, master_key=proxy.master_key)

    def test_wrong_master_key_cannot_recover(self, durable_proxy_with_history):
        proxy = durable_proxy_with_history
        proxy.crash()
        with pytest.raises(IntegrityError):
            recover_proxy(proxy.storage, proxy.config, master_key=b"wrong" * 8)

    def test_recovery_requires_durability(self, small_config, proxy):
        proxy.crash()
        with pytest.raises((ValueError, Exception)):
            recover_proxy(proxy.storage, small_config, master_key=proxy.master_key)

    def test_epoch_counter_continues_after_recovery(self, durable_proxy_with_history):
        proxy = durable_proxy_with_history
        epochs_before = proxy._epoch_counter
        proxy.crash()
        recovered, _ = recover_proxy(proxy.storage, proxy.config, master_key=proxy.master_key)
        recovered.submit(read_program("k1"))
        summary = recovered.run_epoch()
        assert summary.epoch_id >= epochs_before - 1
