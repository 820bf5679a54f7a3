"""The public surface does not grow by accident.

``repro.api.__all__``, ``repro.concurrency.__all__``,
``repro.proxytier.__all__``, ``repro.storage.__all__``,
``repro.core.__all__``, ``repro.oram.__all__``, ``repro.recovery.__all__``,
``repro.harness.__all__`` and ``repro.analysis.__all__`` are compared with the
literal lists below, so
exporting one more name (or dropping one) is a deliberate edit of this file,
made in the PR that argues for it.
"""

import repro.analysis
import repro.api
import repro.concurrency
import repro.core
import repro.harness
import repro.oram
import repro.proxytier
import repro.recovery
import repro.storage

API = [
    "TransactionEngine",
    "EngineFeatureUnavailable",
    "RunStats",
    "EngineConfig",
    "create_engine",
    "ENGINE_KINDS",
    "DIAGNOSTIC_KINDS",
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
    "SerializationGraph",
    "build_serialization_graph",
    "check_recoverable",
    "check_serializable",
    "LockManager",
    "LockMode",
    "DeadlockError",
    "ConflictWitness",
]


PROXYTIER = [
    "ProxyWorker",
    "ProxyCoordinator",
    "ShardedMVTSOManager",
    "BarrierStats",
    "CcLaneStats",
    "build_proxy",
    "worker_for_key",
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
    "ElasticityRow",
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
    "run_elasticity_comparison",
    "render_table",
    "rows_to_dicts",
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
