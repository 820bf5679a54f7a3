"""Adversarial conformance: the buggy engine must not fool the auditor."""

import pytest

from repro.api import ENGINE_KINDS, EngineConfig, create_engine
from repro.audit import AuditingObserver
from repro.concurrency import check_serializable
from repro.concurrency.serializability import build_serialization_graph
from repro.core.client import ReadMany, Write
from tests.buggy_engine import FAULT_KINDS, BuggyEngine

NUM_KEYS = 8


def _config(seed=3):
    return (EngineConfig()
            .with_oram(num_blocks=256, z_real=8, block_size=128)
            .with_batching(read_batches=3, read_batch_size=16, write_batch_size=16)
            .with_durability(False)
            .with_encryption(False)
            .with_seed(seed))


def mixed_source(seed=11):
    import random
    rng = random.Random(seed)

    def source():
        a, b = rng.sample(range(NUM_KEYS), 2)

        def program():
            values = yield ReadMany([f"k{a}", f"k{b}"])
            yield Write(f"k{a}", (values[f"k{a}"] or b"") + b"+")
            return True

        return program

    return source


def _buggy(kinds=None, period=3, seed=3, config=None):
    config = config if config is not None else _config(seed)
    engine = BuggyEngine(create_engine("obladi", config), kinds=kinds,
                         period=period)
    engine.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
    return engine


class TestConstruction:
    def test_create_engine_does_not_build_a_lying_engine(self):
        with pytest.raises(KeyError) as err:
            create_engine("buggy", _config())
        valid = err.value.args[0].split("valid: ", 1)[1]
        assert tuple(valid.split(", ")) == ENGINE_KINDS

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            BuggyEngine(create_engine("obladi", _config()), kinds=("phantom",))

    def test_fault_plan_defaults_to_every_kind(self):
        engine = _buggy(period=7)
        assert engine.name == "buggy"
        assert engine.kinds == FAULT_KINDS
        assert engine.period == 7


class TestDelegation:
    def test_execution_is_untouched_only_the_report_lies(self):
        """The wrapper corrupts the reported history, not the run: results,
        timing and final state match a plain Obladi engine bit for bit."""
        plain = create_engine("obladi", _config())
        plain.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        honest = plain.run_closed_loop(mixed_source(seed=11), 24, clients=8)

        buggy = _buggy()
        lied = buggy.run_closed_loop(mixed_source(seed=11), 24, clients=8)

        assert (honest.committed, honest.aborted, honest.elapsed_ms,
                honest.latencies_ms) == \
            (lied.committed, lied.aborted, lied.elapsed_ms, lied.latencies_ms)
        assert [plain.read(f"k{i}") for i in range(NUM_KEYS)] == \
            [buggy.read(f"k{i}") for i in range(NUM_KEYS)]
        assert buggy.stats().engine == "buggy"
        assert buggy.injected                       # but the report lies
        honest_ok, _ = check_serializable(plain.committed_history)
        lied_ok, _ = check_serializable(buggy.committed_history)
        assert honest_ok and not lied_ok

    def test_crash_recover_delegates(self):
        engine = _buggy(period=2, config=_config().with_durability(True))
        assert engine.supports_crash_recovery
        engine.run_closed_loop(mixed_source(seed=5), 8, clients=4)
        history_before = len(engine.committed_history)
        engine.crash()
        engine.recover()
        engine.run_closed_loop(mixed_source(seed=6), 8, clients=4)
        assert len(engine.committed_history) > history_before


class TestDetection:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_every_injection_is_detected_by_auditor_and_offline(self, kind):
        engine = _buggy(kinds=(kind,))
        auditor = engine.attach_observer(AuditingObserver(settle_lag=2))
        stats = engine.run_closed_loop(mixed_source(seed=5), 48, clients=8)

        assert engine.injected, f"no {kind} injection opportunity arose"
        assert all(inj.kind == kind for inj in engine.injected)

        # The streaming auditor flags the corrupted history...
        report = stats.audit
        assert not report.ok
        # ...and so does the offline checker (ground truth).
        offline_ok, offline_cycle = check_serializable(engine.committed_history)
        assert not offline_ok and offline_cycle

        # Every single injection has a concrete witness: a violation whose
        # txn/cycle mentions one of the corrupted transactions, or a
        # stale-read/time-travel witness on one of them.
        flagged = set()
        for violation in report.violations:
            flagged.add(violation.txn_id)
            if violation.cycle:
                flagged.update(violation.cycle)
        for injection in engine.injected:
            assert set(injection.txn_ids) & flagged, \
                f"injection {injection} escaped the auditor"

    def test_reported_cycles_are_genuine_offline_cycles(self):
        engine = _buggy()
        auditor = engine.attach_observer(AuditingObserver(settle_lag=4))
        engine.run_closed_loop(mixed_source(seed=7), 48, clients=8)
        report = auditor.report()
        assert not report.ok
        offline = build_serialization_graph(engine.committed_history)
        cycles = [v.cycle for v in report.violations if v.cycle]
        assert cycles, "expected at least one cycle witness"
        for cycle in cycles:
            # Each hop of the witness path (including the closing hop) is an
            # edge of the offline DSG over the full corrupted history.
            for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
                assert dst in offline.edges[src], \
                    f"witness hop {src}->{dst} missing offline"

    def test_clean_periods_stay_clean(self):
        # With a period longer than the run, nothing is injected and the
        # buggy engine is indistinguishable from a correct one.
        engine = _buggy(period=10_000)
        engine.attach_observer(AuditingObserver())
        stats = engine.run_closed_loop(mixed_source(seed=5), 16, clients=4)
        assert not engine.injected
        assert stats.audit.ok
        offline_ok, _ = check_serializable(engine.committed_history)
        assert offline_ok
