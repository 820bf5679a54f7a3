"""Tests for the NoPriv baseline, driven the way production drives it:
``NoPrivEngine`` under the shared closed loop."""

import pytest

from repro.api import NoPrivEngine
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
