"""Tests for the NoPriv baseline."""

import pytest

from repro.baseline.nopriv import NoPrivProxy
from repro.concurrency.serializability import check_serializable
from repro.core.client import AbortRequest, Read, ReadMany, Write


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
    proxy = NoPrivProxy(backend="server")
    proxy.load_initial_data({f"acct{i}": b"100" for i in range(20)})
    return proxy


class TestCorrectness:
    def test_reads_see_loaded_data(self, nopriv):
        result = nopriv.run_transactions([simple_read("acct3")], clients=2)
        assert result.committed == 1
        assert result.results[0].return_value == b"100"

    def test_writes_become_durable(self, nopriv):
        nopriv.run_transactions([simple_write("acct1", b"250")], clients=2)
        result = nopriv.run_transactions([simple_read("acct1")], clients=2)
        assert result.results[-1].return_value == b"250"

    def test_user_abort_counts_as_aborted(self, nopriv):
        def factory():
            def program():
                yield AbortRequest()
                return None
            return program()

        result = nopriv.run_transactions([factory], clients=1, retry_aborted=False)
        assert result.aborted == 1
        assert result.committed == 0

    def test_many_transactions_all_resolve(self, nopriv):
        factories = [transfer(f"acct{i % 10}", f"acct{(i + 1) % 10}") for i in range(60)]
        result = nopriv.run_transactions(factories, clients=8)
        assert result.committed + result.aborted >= 60
        assert result.committed > 0

    def test_committed_history_serializable(self, nopriv):
        factories = [transfer(f"acct{i % 6}", f"acct{(i + 3) % 6}") for i in range(40)]
        nopriv.run_transactions(factories, clients=8)
        ok, cycle = check_serializable(nopriv.committed_history)
        assert ok, cycle

    def test_retry_of_aborted_transactions(self, nopriv):
        factories = [transfer("acct0", "acct1") for _ in range(30)]
        result = nopriv.run_transactions(factories, clients=10, max_retries=3)
        # Heavy contention on two keys forces conflicts; retries happen.
        assert result.retries >= 0
        assert result.committed > 0


class TestPerformanceModel:
    def test_throughput_positive(self, nopriv):
        result = nopriv.run_transactions([simple_read(f"acct{i % 10}") for i in range(40)],
                                         clients=8)
        assert result.throughput_tps > 0
        assert result.elapsed_ms > 0

    def test_wan_slower_than_lan(self):
        data = {f"k{i}": b"v" for i in range(20)}
        lan, wan = NoPrivProxy(backend="server"), NoPrivProxy(backend="server_wan")
        lan.load_initial_data(data)
        wan.load_initial_data(data)
        factories = [simple_read(f"k{i % 20}") for i in range(60)]
        lan_result = lan.run_transactions(list(factories), clients=8)
        wan_result = wan.run_transactions(list(factories), clients=8)
        assert wan_result.average_latency_ms > lan_result.average_latency_ms
        assert wan_result.throughput_tps < lan_result.throughput_tps

    def test_more_clients_do_not_reduce_committed_count(self, nopriv):
        factories = [simple_read(f"acct{i % 20}") for i in range(40)]
        few = nopriv.run_transactions(list(factories), clients=2)
        many = nopriv.run_transactions(list(factories), clients=16)
        assert few.committed == many.committed == 40

    def test_latency_percentiles_available(self, nopriv):
        result = nopriv.run_transactions([simple_read("acct1") for _ in range(20)], clients=4)
        assert result.p95_latency_ms >= result.average_latency_ms * 0.5
        assert result.abort_rate == 0.0
