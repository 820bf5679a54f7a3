"""The repo benchmark's tracer records each data-layer call once.

``bench/trace.py`` wraps five methods of ``SingleOramDataLayer`` and of
``PartitionedDataLayer``, each by its entry in the class ``__dict__``.  The
single tree is the partitioned layer with one partition and the subclass only
holds the parent's function objects, so a run must record one
``sharding.partitioned.*`` span per call, no ``sharding.single.*`` span, and
no data-layer span nested in another.  This runs a few waves of a tiny
durable single tree and of a two-partition layer under the tracer.
"""

import importlib.util
import os
import sys

import pytest

from repro.api import create_engine
from repro.core.config import ObladiConfig, RingOramConfig
from repro.sharding.data_layer import SingleOramDataLayer
from repro.sharding.partitioned import PartitionedDataLayer
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TRACED = ("begin_epoch", "execute_read_batch", "execute_write_batch", "flush",
          "bulk_load")


def _bench_trace():
    """``bench/trace.py`` (it imports only ``repro``), loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "bench_trace", os.path.join(ROOT, "bench", "trace.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE = _bench_trace()


def test_the_subclass_holds_the_parents_functions():
    for method in TRACED:
        assert SingleOramDataLayer.__dict__[method] is PartitionedDataLayer.__dict__[method]
    assert not [name for name, value in vars(SingleOramDataLayer).items()
                if callable(value) and name not in TRACED]


@pytest.mark.parametrize("shards", [1, 2])
def test_each_data_layer_call_is_one_span(shards):
    originals = {method: PartitionedDataLayer.__dict__[method] for method in TRACED}
    workload = SmallBankWorkload(SmallBankConfig(num_accounts=30, seed=4))
    config = ObladiConfig(oram=RingOramConfig(num_blocks=128, z_real=4, block_size=64),
                          read_batches=2, read_batch_size=8, write_batch_size=8,
                          shards=shards, durability=True, seed=4)
    tracer = TRACE.Tracer()
    tracer.install()
    try:
        with tracer.phase("bench.run"):
            engine = create_engine("obladi", config)
            engine.load_initial_data(workload.initial_data())
            run = engine.run_closed_loop(workload.transaction_factory, 12, clients=4)
    finally:
        tracer.uninstall()

    for method in TRACED:
        assert PartitionedDataLayer.__dict__[method] is originals[method]
        assert SingleOramDataLayer.__dict__[method] is originals[method]

    names, records = tracer.names, tracer.records
    spans = [names[record[0]] for record in records]
    assert not [name for name in spans if name.startswith("sharding.single.")]
    for record, name in zip(records, spans):
        parent = record[1]
        if name.startswith("sharding.") and parent >= 0:
            assert not spans[parent].startswith("sharding."), (name, spans[parent])

    phase = tracer.summarize()["bench.run"]
    assert run.epochs > 0
    assert phase.calls("sharding.partitioned.begin_epoch") == run.epochs
    assert phase.calls("sharding.partitioned.bulk_load") == 1
    # Each layer call runs one handler call per partition.
    for layer_span, handler_span in (("read_batch", "read_batch"),
                                     ("write_batch", "write_batch"),
                                     ("flush", "flush")):
        layer_calls = phase.calls(f"sharding.partitioned.{layer_span}")
        assert layer_calls > 0
        assert phase.calls(f"core.handler.{handler_span}") == shards * layer_calls
