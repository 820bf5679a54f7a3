"""Workloads used by the paper's evaluation.

* :mod:`repro.workloads.tpcc` — TPC-C (10 warehouses in the paper): the
  de-facto OLTP benchmark, with heterogeneous transaction sizes and heavy
  contention on the district rows.
* :mod:`repro.workloads.smallbank` — SmallBank: short, homogeneous banking
  transactions over checking/savings accounts.
* :mod:`repro.workloads.freehealth` — FreeHealth: a cloud EHR application
  (Figure 8's schema) with read-mostly transactions and contention on
  episode creation.
* :mod:`repro.workloads.ycsb` — YCSB-style key-value microbenchmark used for
  the ORAM-level experiments of Figure 10.

The loop drivers live in :mod:`repro.api.loop` / :mod:`repro.api.openloop`
and run any workload against any
:class:`~repro.api.engine.TransactionEngine`.
"""

from repro.workloads.records import encode_record, decode_record
from repro.workloads.ycsb import YCSBWorkload, YCSBConfig
from repro.workloads.tpcc import TPCCWorkload, TPCCConfig
from repro.workloads.smallbank import SmallBankWorkload, SmallBankConfig
from repro.workloads.freehealth import FreeHealthWorkload, FreeHealthConfig

__all__ = [
    "encode_record",
    "decode_record",
    "YCSBWorkload",
    "YCSBConfig",
    "TPCCWorkload",
    "TPCCConfig",
    "SmallBankWorkload",
    "SmallBankConfig",
    "FreeHealthWorkload",
    "FreeHealthConfig",
]
