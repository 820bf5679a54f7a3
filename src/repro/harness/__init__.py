"""Experiment harness.

One function per figure/table of the paper's evaluation (§11).  Each function
returns plain data rows; :mod:`repro.harness.report` renders them as text
tables, and the ``benchmarks/`` suite wraps them in pytest-benchmark targets.
All results are in *simulated* time (see ``docs/ARCHITECTURE.md``,
"Simulation substrate").
"""

from repro.harness.experiments import (EndToEndRow, ParallelismRow, BatchSizeRow,
                                       DelayedVisibilityRow, EpochSizeOramRow,
                                       EpochSizeProxyRow, CheckpointFrequencyRow,
                                       RecoveryRow, ElasticityRow,
                                       run_end_to_end, run_parallelism,
                                       run_batch_size_sweep, run_delayed_visibility,
                                       run_epoch_size_oram, run_epoch_size_proxy,
                                       run_checkpoint_frequency, run_recovery_table,
                                       run_elasticity_comparison)
from repro.harness.report import render_table, rows_to_dicts

__all__ = [
    "EndToEndRow",
    "ParallelismRow",
    "BatchSizeRow",
    "DelayedVisibilityRow",
    "EpochSizeOramRow",
    "EpochSizeProxyRow",
    "CheckpointFrequencyRow",
    "RecoveryRow",
    "ElasticityRow",
    "run_end_to_end",
    "run_parallelism",
    "run_batch_size_sweep",
    "run_delayed_visibility",
    "run_epoch_size_oram",
    "run_epoch_size_proxy",
    "run_checkpoint_frequency",
    "run_recovery_table",
    "run_elasticity_comparison",
    "render_table",
    "rows_to_dicts",
]
