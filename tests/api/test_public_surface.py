"""The public surface does not grow by accident.

The ``__all__`` of every package ``scripts/check_docstrings.py`` covers —
``repro.api``, ``repro.core``, ``repro.sharding``, ``repro.proxytier``,
``repro.audit``, ``repro.concurrency``, ``repro.elasticity``,
``repro.storage``, ``repro.oram``, ``repro.recovery``, ``repro.harness`` and
``repro.analysis`` — is compared with the literal lists below, so exporting
one more name (or dropping one) is a deliberate edit of this file, made in
the PR that argues for it.
"""

import repro.analysis
import repro.api
import repro.audit
import repro.concurrency
import repro.core
import repro.elasticity
import repro.harness
import repro.oram
import repro.proxytier
import repro.recovery
import repro.sharding
import repro.storage

API = [
    "TransactionEngine",
    "EngineFeatureUnavailable",
    "RunStats",
    "EngineConfig",
    "create_engine",
    "ENGINE_KINDS",
    "run_closed_loop",
    "run_open_loop",
    "ArrivalProcess",
    "DeterministicArrivals",
    "PoissonArrivals",
    "ObladiEngine",
    "NoPrivEngine",
    "MySQLEngine",
    "ProgramFactory",
    "FactorySource",
]

CONCURRENCY = [
    "TransactionRecord",
    "TransactionStatus",
    "CommittedTransaction",
    "MVTSOManager",
    "WriteConflictError",
    "Version",
    "VersionChain",
    "VersionStore",
    "check_serializable",
    "LockManager",
    "DeadlockError",
]


PROXYTIER = [
    "ProxyWorker",
    "BarrierStats",
]


STORAGE = [
    "StorageServer",
    "StorageOp",
    "InMemoryStorageServer",
    "StorageCluster",
    "build_storage",
    "NamespacedStorage",
    "partition_prefix",
    "AccessTrace",
    "TraceEvent",
]


CORE = [
    "ObladiConfig",
    "RingOramConfig",
    "ObladiProxy",
    "Transaction",
    "TransactionAborted",
    "Read",
    "ReadMany",
    "Write",
    "BatchFullError",
]


ORAM = [
    "RingOramParameters",
    "derive_parameters",
    "RingOram",
    "EpochBatchExecutor",
    "CipherSuite",
]


RECOVERY = [
    "WriteAheadLog",
    "WalRecord",
    "CheckpointStore",
    "CheckpointManifest",
    "RecoveryManager",
    "RecoveryResult",
    "recover_proxy",
]


HARNESS = [
    "OramRow",
    "RunRow",
    "RecoveryRow",
    "run_end_to_end",
    "run_parallelism",
    "run_batch_size_sweep",
    "run_delayed_visibility",
    "run_epoch_size_oram",
    "run_epoch_size_proxy",
    "run_saturation_sweep",
    "run_repair_comparison",
    "run_checkpoint_frequency",
    "run_recovery_table",
    "render_table",
    "rows_to_dicts",
]

AUDIT = [
    "AuditReport",
    "AuditViolation",
    "AuditingObserver",
    "EngineObserver",
    "KeyFrontier",
    "StreamingSerializationGraph",
]


ELASTICITY = [
    "MigrationReport",
    "ReshardPlan",
    "TopologyMigration",
    "prepare_storage",
]


SHARDING = [
    "OramPartition",
    "PartitionedDataLayer",
    "key_partition",
]


ANALYSIS = [
    "Leakage",
    "check_bucket_invariant",
    "distinguish",
    "leakage",
    "simulate_view",
    "views",
]


def test_api_exports_are_the_recorded_list():
    assert repro.api.__all__ == API


def test_concurrency_exports_are_the_recorded_list():
    assert repro.concurrency.__all__ == CONCURRENCY


def test_proxytier_exports_are_the_recorded_list():
    assert repro.proxytier.__all__ == PROXYTIER


def test_storage_exports_are_the_recorded_list():
    assert repro.storage.__all__ == STORAGE


def test_core_exports_are_the_recorded_list():
    assert repro.core.__all__ == CORE


def test_oram_exports_are_the_recorded_list():
    assert repro.oram.__all__ == ORAM


def test_recovery_exports_are_the_recorded_list():
    assert repro.recovery.__all__ == RECOVERY


def test_harness_exports_are_the_recorded_list():
    assert repro.harness.__all__ == HARNESS


def test_analysis_exports_are_the_recorded_list():
    assert repro.analysis.__all__ == ANALYSIS


def test_audit_exports_are_the_recorded_list():
    assert repro.audit.__all__ == AUDIT


def test_elasticity_exports_are_the_recorded_list():
    assert repro.elasticity.__all__ == ELASTICITY


def test_sharding_exports_are_the_recorded_list():
    assert repro.sharding.__all__ == SHARDING
