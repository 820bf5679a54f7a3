"""Tests for the engine observer seam and the auditing observer."""

import pytest

from repro.api import EngineConfig, create_engine
from repro.audit import AuditingObserver, EngineObserver
from repro.concurrency import check_serializable
from repro.core.client import Read, Write

NUM_KEYS = 8


def _config(seed=3):
    return (EngineConfig()
            .with_oram(num_blocks=256, z_real=8, block_size=128)
            .with_batching(read_batches=3, read_batch_size=16, write_batch_size=16)
            .with_durability(False)
            .with_encryption(False)
            .with_seed(seed))


def _engine(kind="obladi", seed=3):
    engine = create_engine(kind, _config(seed))
    engine.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
    return engine


def append_program(key):
    def program():
        value = yield Read(key)
        yield Write(key, (value or b"") + b"x")
        return value
    return program


def rmw_source(seed=11):
    import random
    rng = random.Random(seed)

    def source():
        key = f"k{rng.randrange(NUM_KEYS)}"
        return append_program(key)

    return source


class RecordingObserver(EngineObserver):
    """Counts callbacks; used to test the seam itself."""

    def __init__(self):
        self.attached_to = None
        self.waves = 0
        self.wave_results = 0
        self.run_ends = 0

    def on_attach(self, engine):
        self.attached_to = engine

    def on_wave(self, engine, results):
        self.waves += 1
        self.wave_results += len(results)

    def on_run_end(self, engine, stats):
        self.run_ends += 1


class TestObserverSeam:
    def test_attach_returns_observer_and_notifies_it(self):
        engine = _engine()
        observer = RecordingObserver()
        assert engine.attach_observer(observer) is observer
        assert observer.attached_to is engine
        engine.submit(append_program("k1"))
        assert observer.waves == 1

    @pytest.mark.parametrize("kind", ["obladi", "nopriv", "mysql"])
    def test_every_engine_notifies_waves_and_run_end(self, kind):
        engine = _engine(kind)
        observer = engine.attach_observer(RecordingObserver())
        stats = engine.run_closed_loop(rmw_source(), 12, clients=4)
        assert observer.waves == stats.epochs
        assert observer.wave_results == len(stats.results)
        assert observer.run_ends == 1

    def test_base_observer_callbacks_are_noops(self):
        engine = _engine()
        engine.attach_observer(EngineObserver())
        result = engine.submit(append_program("k1"))
        assert result.committed


class TestAuditingObserver:
    @pytest.mark.parametrize("kind", ["obladi", "nopriv", "mysql"])
    def test_closed_loop_publishes_audit_report(self, kind):
        engine = _engine(kind)
        auditor = engine.attach_observer(AuditingObserver())
        stats = engine.run_closed_loop(rmw_source(), 16, clients=4)
        report = stats.audit
        assert report is not None and report.ok
        assert report.txns_ingested == len(engine.committed_history)
        offline_ok, _ = check_serializable(engine.committed_history)
        assert report.ok == offline_ok
        assert auditor.graph.ok

    def test_open_loop_publishes_audit_report(self):
        from repro.api import PoissonArrivals
        engine = _engine()
        engine.attach_observer(AuditingObserver())
        stats = engine.run_open_loop(rmw_source(), 16,
                                     arrivals=PoissonArrivals(400.0, seed=7),
                                     clients=4)
        assert stats.audit is not None and stats.audit.ok
        assert stats.audit.txns_ingested == len(engine.committed_history)

    def test_double_notification_is_idempotent(self):
        # The engine notifies per wave AND the loop notifies at run end;
        # the cursor must prevent double ingestion.
        engine = _engine()
        auditor = engine.attach_observer(AuditingObserver())
        engine.submit(append_program("k1"))
        auditor.ingest_pending(engine)      # explicit extra notification
        auditor.ingest_pending(engine)
        assert auditor.graph.txns_ingested == 1

    def test_cursor_survives_crash_recover(self):
        engine = create_engine("obladi", _config().with_durability(True))
        engine.load_initial_data({f"k{i}": b"0" for i in range(NUM_KEYS)})
        auditor = engine.attach_observer(AuditingObserver())
        engine.submit(append_program("k1"))
        engine.crash()
        engine.recover()
        engine.submit(append_program("k2"))
        assert auditor.graph.ok
        assert auditor.graph.txns_ingested == len(engine.committed_history) == 2

    def test_attach_midstream_audits_only_the_suffix(self):
        engine = _engine()
        engine.submit(append_program("k1"))
        auditor = engine.attach_observer(AuditingObserver())
        engine.submit(append_program("k2"))
        assert auditor.graph.txns_ingested == 1

    def test_a_cycle_in_the_ingested_history_is_a_violation(self):
        from repro.concurrency import CommittedTransaction

        class FakeEngine:
            committed_history = [
                CommittedTransaction(txn_id=1, timestamp=1, epoch=0,
                                     read_set={"b": -1}, write_set={"a": b"x"}),
                CommittedTransaction(txn_id=2, timestamp=2, epoch=0,
                                     read_set={"a": -1}, write_set={"b": b"y"}),
            ]

        auditor = AuditingObserver()
        auditor.ingest_pending(FakeEngine())
        assert not auditor.graph.ok
        assert [(v.kind, sorted(v.cycle)) for v in auditor.graph.violations] == \
            [("cycle", [1, 2])]


class TestByteIdentity:
    """Attaching an auditor must not perturb the run: fixed-seed RunStats
    stay byte-identical (repr) with and without the observer — the audit
    field is excluded from repr/compare — and so does the final state."""

    @pytest.mark.parametrize("kind", ["obladi", "nopriv", "mysql"])
    def test_closed_loop_runstats_repr_unchanged(self, kind):
        plain = _engine(kind)
        bare = plain.run_closed_loop(rmw_source(seed=11), 16, clients=4)
        audited_engine = _engine(kind)
        audited_engine.attach_observer(AuditingObserver())
        audited = audited_engine.run_closed_loop(rmw_source(seed=11), 16, clients=4)
        assert audited.audit is not None and bare.audit is None
        assert repr(bare) == repr(audited)
        assert [plain.read(f"k{i}") for i in range(NUM_KEYS)] == \
            [audited_engine.read(f"k{i}") for i in range(NUM_KEYS)]

    def test_open_loop_runstats_repr_unchanged(self):
        from repro.api import PoissonArrivals
        runs = []
        for with_auditor in (False, True):
            engine = _engine()
            if with_auditor:
                engine.attach_observer(AuditingObserver())
            runs.append(engine.run_open_loop(
                rmw_source(seed=11), 16,
                arrivals=PoissonArrivals(300.0, seed=5), clients=4))
        assert repr(runs[0]) == repr(runs[1])
