"""The baselines' primitive: run one wave, one client slot per program.

Both executors share one event loop (:class:`repro.baseline.common.
WaveExecutor`); these tests pin its contract on each of them directly:
every program's fate is reported exactly once — an abort is reported, never
retried, because retrying belongs to the engine layer's wave loop — and
consecutive waves accumulate on the shared clock.
"""

import pytest

from repro.baseline import NoPrivProxy, TwoPhaseLockingStore
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


@pytest.fixture(params=[NoPrivProxy, TwoPhaseLockingStore],
                ids=["nopriv", "mysql"])
def executor(request):
    impl = request.param(backend="server", clock=SimClock())
    impl.load_initial_data({f"k{i}": b"0" for i in range(8)})
    return impl


class TestOneWave:
    def test_every_program_resolves_exactly_once(self, executor):
        factories = [increment("k0") for _ in range(6)] + [give_up]
        wave = executor.run_transactions(factories)
        assert len(wave.results) == len(factories)
        assert wave.committed + wave.aborted == len(factories)
        assert wave.retries == 0
        assert wave.aborted >= 1                       # give_up, at least
        assert len({result.txn_id for result in wave.results}) == len(factories)
        assert len(executor.committed_history) == wave.committed

    def test_programs_start_in_submission_order(self, executor):
        wave = executor.run_transactions([increment(f"k{i}") for i in range(5)])
        by_id = sorted(wave.results, key=lambda result: result.txn_id)
        assert [result.return_value for result in by_id] == [f"k{i}" for i in range(5)]

    def test_consecutive_waves_accumulate_on_the_shared_clock(self, executor):
        start = executor.clock.now_ms
        first = executor.run_transactions([increment(f"k{i}") for i in range(4)])
        second = executor.run_transactions([increment(f"k{i}") for i in range(4)])
        assert first.elapsed_ms > 0
        assert first.elapsed_ms >= first.cpu_ms       # makespan covers the CPU demanded
        assert executor.clock.now_ms == start + first.elapsed_ms + second.elapsed_ms
        # Slot times are wave-local: the second wave's latencies start over.
        assert max(second.latencies_ms) <= second.elapsed_ms

    def test_an_empty_wave_takes_no_time(self, executor):
        wave = executor.run_transactions([])
        assert (wave.results, wave.elapsed_ms) == ([], 0.0)


class TestWhatEachBaselineAdds:
    def test_2pl_reports_the_deadlock_victim_and_commits_the_rest(self):
        store = TwoPhaseLockingStore()
        store.load_initial_data({"a": b"0", "b": b"0"})
        wave = store.run_transactions([write_both("a", "b"), write_both("b", "a")])
        assert (wave.committed, wave.aborted) == (1, 1)
        victim = next(result for result in wave.results if not result.committed)
        assert victim.abort_reason == "deadlock"

    @pytest.mark.parametrize("writer_commits", [True, False])
    def test_nopriv_parks_a_reader_until_its_writer_resolves(self, writer_commits):
        proxy = NoPrivProxy(backend="server")
        proxy.load_initial_data({"k": b"0"})

        def slow_writer():
            yield Write("k", b"1")
            yield Read("elsewhere")        # a storage round trip after the write
            if not writer_commits:
                yield AbortRequest()
            return "writer"

        def reader():
            return (yield Read("k"))       # sees the uncommitted b"1"

        wave = proxy.run_transactions([slow_writer, reader])
        # The reader runs out of operations first, but its fate is decided
        # by, and reported after, the writer it depends on.
        writer_result, reader_result = wave.results
        assert writer_result.txn_id < reader_result.txn_id
        if writer_commits:
            assert (wave.committed, reader_result.return_value) == (2, b"1")
        else:
            assert wave.committed == 0
            assert (writer_result.abort_reason, reader_result.abort_reason) == \
                ("user", "cascade")
