"""Reproduction of *Obladi: Oblivious Serializable Transactions in the Cloud*.

Obladi (Crooks et al., OSDI 2018) is a cloud key-value store that provides
serializable ACID transactions while hiding access patterns from the storage
provider.  This package re-implements the full system described in the paper:

* a Ring ORAM substrate (:mod:`repro.oram`),
* an untrusted storage server with pluggable latency models
  (:mod:`repro.storage`, :mod:`repro.sim`),
* multiversion timestamp-ordering concurrency control
  (:mod:`repro.concurrency`),
* the epoch-based Obladi proxy — batching, deduplication, delayed visibility,
  parallel execution (:mod:`repro.core`),
* oblivious durability and crash recovery (:mod:`repro.recovery`),
* the non-private baselines used in the evaluation (:mod:`repro.baseline`),
* the paper's workloads: TPC-C, SmallBank, FreeHealth and YCSB
  (:mod:`repro.workloads`),
* obliviousness / serializability analysis tools (:mod:`repro.analysis`), and
* the experiment harness that regenerates every figure and table of the
  evaluation section (:mod:`repro.harness`).

All of these sit behind the unified engine layer (:mod:`repro.api`): one
:class:`~repro.api.engine.TransactionEngine` interface over the proxy and
both baselines, created with :func:`~repro.api.factory.create_engine`.

The public, stable entry points are re-exported here.
"""

from repro.api import (EngineConfig, RunStats, TransactionEngine, create_engine,
                       run_closed_loop)
from repro.core.config import ObladiConfig, RingOramConfig
from repro.core.client import Transaction, TransactionAborted
from repro.core.proxy import ObladiProxy
from repro.sim.latency import LatencyModel, BACKENDS
from repro.storage.memory import InMemoryStorageServer

__version__ = "0.2.0"

__all__ = [
    "create_engine",
    "EngineConfig",
    "TransactionEngine",
    "RunStats",
    "run_closed_loop",
    "ObladiConfig",
    "RingOramConfig",
    "ObladiProxy",
    "Transaction",
    "TransactionAborted",
    "LatencyModel",
    "BACKENDS",
    "InMemoryStorageServer",
    "__version__",
]
