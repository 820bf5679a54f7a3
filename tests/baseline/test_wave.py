"""The baselines' primitive: ``submit_many`` runs one wave, one client slot
per program.

Both engines share one event loop (:class:`repro.baseline.common.
BaselineEngine`); these tests pin its contract on each of them directly:
every program's fate is reported exactly once and in submission order — an
abort is reported, never retried, because retrying belongs to the loop
drivers — and consecutive waves accumulate on the shared clock.
"""

import pytest

from repro.baseline import MySQLEngine, NoPrivEngine
from repro.core.client import AbortRequest, Read, Write
from repro.sim.clock import SimClock


def increment(key):
    def factory():
        def program():
            value = yield Read(key)
            yield Write(key, (value or b"") + b"x")
            return key
        return program()
    return factory


def give_up():
    def program():
        yield AbortRequest()
    return program()


def write_both(first, second):
    def factory():
        def program():
            yield Write(first, b"1")
            yield Write(second, b"1")
            return True
        return program()
    return factory


def read_in_turn(*keys):
    def factory():
        def program():
            for key in keys:
                yield Read(key)
            return keys
        return program()
    return factory


def writer_and_reader_wave(writer_commits):
    """A NoPriv wave of a slow writer of ``k`` and a reader that sees its write."""
    engine = NoPrivEngine(backend="server")
    engine.load_initial_data({"k": b"0"})

    def slow_writer():
        yield Write("k", b"1")
        yield Read("elsewhere")        # a storage round trip after the write
        if not writer_commits:
            yield AbortRequest()
        return "writer"

    def reader():
        return (yield Read("k"))       # sees the uncommitted b"1"

    return engine.submit_many([slow_writer, reader])


@pytest.fixture(params=[NoPrivEngine, MySQLEngine], ids=["nopriv", "mysql"])
def engine(request):
    engine = request.param(backend="server", clock=SimClock())
    engine.load_initial_data({f"k{i}": b"0" for i in range(8)})
    return engine


class TestOneWave:
    def test_every_program_resolves_exactly_once(self, engine):
        factories = [increment("k0") for _ in range(6)] + [give_up]
        results = engine.submit_many(factories)
        assert len(results) == len(factories)
        assert not results[-1].committed                 # give_up
        assert len({result.txn_id for result in results}) == len(factories)
        committed = sum(result.committed for result in results)
        assert len(engine.committed_history) == committed
        stats = engine.stats()
        assert (stats.committed, stats.aborted, stats.retries) == \
            (committed, len(factories) - committed, 0)

    def test_results_come_back_in_submission_order(self, engine):
        # The first program makes three reads, the second one: the second
        # finishes first, and is still reported second.
        results = engine.submit_many([read_in_turn("k1", "k2", "k3"),
                                      read_in_turn("k4")])
        assert [result.return_value for result in results] == \
            [("k1", "k2", "k3"), ("k4",)]
        assert results[0].latency_ms > results[1].latency_ms
        assert results[0].txn_id < results[1].txn_id

    def test_consecutive_waves_accumulate_on_the_shared_clock(self, engine):
        start = engine.clock.now_ms
        first = engine.submit_many([increment(f"k{i}") for i in range(4)])
        between, cpu_ms = engine.clock.now_ms, engine.counters().cpu_ms
        second = engine.submit_many([increment(f"k{i}") for i in range(4)])
        elapsed_ms = between - start
        assert cpu_ms > 0
        assert elapsed_ms >= cpu_ms                    # makespan covers the CPU demanded
        assert elapsed_ms >= max(result.latency_ms for result in first)
        # Slot times are wave-local: the second wave's latencies start over.
        assert max(result.latency_ms for result in second) <= \
            engine.clock.now_ms - between

    def test_an_empty_wave_takes_no_time(self, engine):
        start = engine.clock.now_ms
        assert engine.submit_many([]) == []
        assert (engine.clock.now_ms, engine.counters().cpu_ms) == (start, 0.0)


class TestWhatEachBaselineAdds:
    def test_2pl_reports_the_deadlock_victim_and_commits_the_rest(self):
        engine = MySQLEngine()
        engine.load_initial_data({"a": b"0", "b": b"0"})
        results = engine.submit_many([write_both("a", "b"), write_both("b", "a")])
        assert [result.committed for result in results].count(True) == 1
        victim = next(result for result in results if not result.committed)
        assert victim.abort_reason == "deadlock"

    @pytest.mark.parametrize("writer_commits", [True, False])
    def test_nopriv_parks_a_reader_until_its_writer_resolves(self, writer_commits):
        # The reader runs out of operations first, but its fate is decided
        # by the writer it depends on.
        writer_result, reader_result = writer_and_reader_wave(writer_commits)
        assert writer_result.txn_id < reader_result.txn_id
        if writer_commits:
            assert (writer_result.committed, reader_result.committed,
                    reader_result.return_value) == (True, True, b"1")
        else:
            assert (writer_result.abort_reason, reader_result.abort_reason) == \
                ("user", "cascade")

    @pytest.mark.xfail(strict=True, reason=(
        "NoPriv commits a parked reader at its own slot time, not at the "
        "commit of the writer it waited on; fixing it re-baselines Figure 9's "
        "NoPriv rows (ROADMAP item 4)"))
    def test_nopriv_charges_the_dependency_wait(self):
        writer_result, reader_result = writer_and_reader_wave(writer_commits=True)
        assert reader_result.committed and writer_result.committed
        # The reader committed only after its writer did.
        assert reader_result.latency_ms >= writer_result.latency_ms

    def test_nopriv_unparks_a_reader_whose_writer_was_itself_parked(self, monkeypatch):
        # P2 parks behind P, then P parks behind Q.  Q's commit resolves P
        # but not P2 (already passed over in that resolve pass), so the
        # loop has nothing runnable and must unpark P2.
        engine = NoPrivEngine(backend="server")
        engine.load_initial_data({})
        unparks = []
        unpark = engine._unpark
        monkeypatch.setattr(engine, "_unpark", lambda: (unparks.append(1), unpark()))

        def q():
            yield Write("k1", b"q")
            yield Read("x")
            yield Read("y")
            return "Q"

        def p():
            value = yield Read("k1")
            yield Write("k2", b"p")
            yield Read("z")
            return value

        def p2():
            yield Write("k3", b"p2")
            return (yield Read("k2"))

        results = engine.submit_many([q, p, p2])
        assert [(result.committed, result.return_value) for result in results] == \
            [(True, "Q"), (True, b"q"), (True, b"p")]
        assert unparks
