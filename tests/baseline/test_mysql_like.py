"""Tests for the strict-2PL (MySQL-like) baseline, driven the way production
drives it: ``MySQLEngine`` under the shared closed loop."""

import pytest

from repro.api import MySQLEngine
from repro.concurrency.serializability import check_serializable
from repro.core.client import AbortRequest, Read, ReadMany, Write


def read_factory(key):
    def factory():
        def program():
            value = yield Read(key)
            return value
        return program()
    return factory


def write_factory(key, value):
    def factory():
        def program():
            yield Write(key, value)
            return True
        return program()
    return factory


def read_modify_write(key):
    def factory():
        def program():
            value = yield Read(key)
            yield Write(key, (value or b"") + b"x")
            return True
        return program()
    return factory


def crossing_pair(a, b):
    """Two factories that lock a/b in opposite orders (deadlock prone)."""

    def first():
        def program():
            yield Write(a, b"1")
            yield Write(b, b"1")
            return True
        return program()

    def second():
        def program():
            yield Write(b, b"2")
            yield Write(a, b"2")
            return True
        return program()

    return first, second


@pytest.fixture
def store():
    store = MySQLEngine()
    store.load_initial_data({f"row{i}": b"0" for i in range(20)})
    return store


class TestCorrectness:
    def test_read_loaded_data(self, store, closed_loop):
        result = closed_loop(store, [read_factory("row5")], clients=2)
        assert result.results[0].return_value == b"0"

    def test_write_then_read(self, store, closed_loop):
        closed_loop(store, [write_factory("row1", b"42")], clients=1)
        result = closed_loop(store, [read_factory("row1")], clients=1)
        assert result.results[-1].return_value == b"42"

    def test_read_many(self, store, closed_loop):
        def factory():
            def program():
                values = yield ReadMany(["row1", "row2"])
                return values
            return program()

        result = closed_loop(store, [factory], clients=1)
        assert result.results[0].return_value == {"row1": b"0", "row2": b"0"}

    def test_user_abort(self, store, closed_loop):
        def factory():
            def program():
                yield Write("row1", b"no")
                yield AbortRequest()
                return None
            return program()

        result = closed_loop(store, [factory], clients=1, max_retries=0)
        assert result.aborted == 1
        check = closed_loop(store, [read_factory("row1")], clients=1)
        assert check.results[-1].return_value == b"0"

    def test_contended_counter_serialises(self, store, closed_loop):
        factories = [read_modify_write("row0") for _ in range(20)]
        result = closed_loop(store, factories, clients=8, max_retries=5)
        assert result.committed >= 18
        final = closed_loop(store, [read_factory("row0")], clients=1)
        # The initial value is b"0"; every committed increment appended one byte.
        assert len(final.results[-1].return_value) == result.committed + 1

    def test_history_serializable_under_contention(self, store, closed_loop):
        factories = [read_modify_write(f"row{i % 4}") for i in range(40)]
        closed_loop(store, factories, clients=8, max_retries=4)
        ok, cycle = check_serializable(store.committed_history)
        assert ok, cycle

    def test_deadlock_is_broken_and_work_completes(self, store, closed_loop):
        # Opposite lock orders on purpose: deadlocks must be detected and the
        # run must terminate with most transactions eventually committing.
        first, second = crossing_pair("row1", "row2")
        result = closed_loop(store, [first, second] * 8, clients=8, max_retries=8)
        assert result.committed >= 8
        # Deadlock victims may appear as aborted, but nothing hangs.
        assert result.committed + result.aborted >= 16
        final = closed_loop(store, [read_factory("row1")], clients=1)
        assert final.results[-1].return_value in (b"1", b"2")


class TestPerformanceModel:
    def test_lock_waits_increase_latency_under_contention(self, closed_loop):
        data = {f"row{i}": b"0" for i in range(32)}
        contended = MySQLEngine()
        spread = MySQLEngine()
        contended.load_initial_data(data)
        spread.load_initial_data(data)
        hot = closed_loop(contended, [read_modify_write("row0") for _ in range(40)],
                          clients=8, max_retries=5)
        cold = closed_loop(spread, [read_modify_write(f"row{i % 32}") for i in range(40)],
                           clients=8, max_retries=5)
        assert hot.average_latency_ms >= cold.average_latency_ms

    def test_throughput_positive(self, store, closed_loop):
        result = closed_loop(store, [read_factory(f"row{i % 20}") for i in range(30)],
                             clients=4)
        assert result.throughput_tps > 0
