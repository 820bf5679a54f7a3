"""Tests for the NoPriv baseline, driven the way production drives it:
``NoPrivEngine`` under the shared closed loop."""

import pytest

from repro.api import NoPrivEngine
from repro.concurrency.serializability import check_serializable
from repro.core.client import AbortRequest, Read, ReadMany, Write
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload


def simple_read(key):
    def factory():
        def program():
            value = yield Read(key)
            return value
        return program()
    return factory


def simple_write(key, value):
    def factory():
        def program():
            yield Write(key, value)
            return True
        return program()
    return factory


def transfer(src, dst):
    def factory():
        def program():
            balances = yield ReadMany([src, dst])
            yield Write(src, (balances[src] or b"0") + b"-")
            yield Write(dst, (balances[dst] or b"0") + b"+")
            return True
        return program()
    return factory


@pytest.fixture
def nopriv():
    engine = NoPrivEngine(backend="server")
    engine.load_initial_data({f"acct{i}": b"100" for i in range(20)})
    return engine


class TestCorrectness:
    def test_reads_see_loaded_data(self, nopriv, closed_loop):
        result = closed_loop(nopriv, [simple_read("acct3")], clients=2)
        assert result.committed == 1
        assert result.results[0].return_value == b"100"

    def test_writes_become_durable(self, nopriv, closed_loop):
        closed_loop(nopriv, [simple_write("acct1", b"250")], clients=2)
        result = closed_loop(nopriv, [simple_read("acct1")], clients=2)
        assert result.results[-1].return_value == b"250"

    def test_user_abort_counts_as_aborted(self, nopriv, closed_loop):
        def factory():
            def program():
                yield AbortRequest()
                return None
            return program()

        result = closed_loop(nopriv, [factory], clients=1, max_retries=0)
        assert result.aborted == 1
        assert result.committed == 0

    def test_many_transactions_all_resolve(self, nopriv, closed_loop):
        factories = [transfer(f"acct{i % 10}", f"acct{(i + 1) % 10}") for i in range(60)]
        result = closed_loop(nopriv, factories, clients=8)
        assert result.committed + result.aborted >= 60
        assert result.committed > 0

    def test_committed_history_serializable(self, nopriv, closed_loop):
        factories = [transfer(f"acct{i % 6}", f"acct{(i + 3) % 6}") for i in range(40)]
        closed_loop(nopriv, factories, clients=8)
        ok, cycle = check_serializable(nopriv.committed_history)
        assert ok, cycle

    def test_retry_of_aborted_transactions(self, nopriv, closed_loop):
        factories = [transfer("acct0", "acct1") for _ in range(30)]
        result = closed_loop(nopriv, factories, clients=10, max_retries=3)
        # Heavy contention on two keys forces conflicts; retries happen.
        assert result.retries >= 0
        assert result.committed > 0


class TestPerformanceModel:
    def test_throughput_positive(self, nopriv, closed_loop):
        result = closed_loop(nopriv, [simple_read(f"acct{i % 10}") for i in range(40)],
                             clients=8)
        assert result.throughput_tps > 0
        assert result.elapsed_ms > 0

    def test_wan_slower_than_lan(self, closed_loop):
        data = {f"k{i}": b"v" for i in range(20)}
        lan = NoPrivEngine(backend="server")
        wan = NoPrivEngine(backend="server_wan")
        lan.load_initial_data(data)
        wan.load_initial_data(data)
        factories = [simple_read(f"k{i % 20}") for i in range(60)]
        lan_result = closed_loop(lan, list(factories), clients=8)
        wan_result = closed_loop(wan, list(factories), clients=8)
        assert wan_result.average_latency_ms > lan_result.average_latency_ms
        assert wan_result.throughput_tps < lan_result.throughput_tps

    def test_more_clients_do_not_reduce_committed_count(self, nopriv, closed_loop):
        factories = [simple_read(f"acct{i % 20}") for i in range(40)]
        few = closed_loop(nopriv, list(factories), clients=2)
        many = closed_loop(nopriv, list(factories), clients=16)
        assert few.committed == many.committed == 40

    def test_latency_percentiles_available(self, nopriv, closed_loop):
        result = closed_loop(nopriv, [simple_read("acct1") for _ in range(20)], clients=4)
        assert result.p95_total_latency_ms >= result.average_latency_ms * 0.5
        assert result.abort_rate == 0.0


class TestBoundedState:
    """The MVTSO state a NoPriv engine keeps is one wave's records and one
    committed version per key written, however long it runs."""

    CLIENTS = 16
    OFFERED = 1400

    def run(self):
        workload = SmallBankWorkload(SmallBankConfig(num_accounts=40, seed=17))
        engine = NoPrivEngine(backend="server")
        engine.load_initial_data(workload.initial_data())
        stats = engine.run_closed_loop(workload.transaction_factory, self.OFFERED,
                                       clients=self.CLIENTS)
        return engine, stats

    def test_each_wave_end_keeps_one_committed_version_per_written_key(self, monkeypatch):
        settle = NoPrivEngine._settle_wave
        waves = []

        def checked(engine):
            wave = len(engine.mvtso.transactions)
            assert 0 < wave <= self.CLIENTS
            settle(engine)
            written = {key for txn in engine.committed_history for key in txn.write_set}
            chains = engine.mvtso.store._chains
            assert engine.mvtso.transactions == {}
            assert set(chains) <= written
            assert all(len(chain.versions) == 1 and chain.versions[0].committed
                       for chain in chains.values())
            waves.append(wave)

        monkeypatch.setattr(NoPrivEngine, "_settle_wave", checked)
        engine, stats = self.run()
        assert sum(waves) >= self.OFFERED and len(waves) == stats.epochs
        assert 0 < len(engine.mvtso.store._chains) <= 80    # two keys an account

    def test_settling_changes_no_number(self, monkeypatch):
        settled, stats = self.run()
        monkeypatch.setattr(NoPrivEngine, "_settle_wave", lambda engine: None)
        kept, unsettled = self.run()
        assert repr(unsettled) == repr(stats)
        assert len(kept.mvtso.transactions) > self.OFFERED > len(settled.mvtso.transactions)

    def test_an_unresolved_transaction_fails_the_wave(self, nopriv):
        nopriv.mvtso.begin(epoch=0)
        with pytest.raises(RuntimeError, match="unresolved"):
            nopriv.submit_many([simple_read("acct0")])
