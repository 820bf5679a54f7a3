"""Obladi's trusted proxy: the paper's primary contribution.

The proxy partitions time into fixed-length epochs, executes transactions
with MVTSO concurrency control, groups their ORAM reads into ``R``
fixed-size read batches and their final writes into one fixed-size write
batch, and delays commit notifications (and durability) to epoch boundaries
— *delayed visibility*.  The adversary-visible behaviour (number, size and
timing of physical batches) is a function of the configuration only, never
of the workload.
"""

from repro.core.config import ObladiConfig, RingOramConfig
from repro.core.client import Transaction, TransactionAborted, Read, ReadMany, Write
from repro.core.proxy import ObladiProxy
from repro.core.errors import BatchFullError

__all__ = [
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
