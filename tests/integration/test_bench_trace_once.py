"""The repo benchmark's tracer records each data-layer, epoch and CC call once.

``bench/trace.py`` wraps five methods of ``SingleOramDataLayer`` and of
``PartitionedDataLayer``, each by its entry in the class ``__dict__``.  The
single tree is the partitioned layer with one partition and the subclass only
holds the parent's function objects, so a run must record one
``sharding.partitioned.*`` span per call, no ``sharding.single.*`` span, and
no data-layer span nested in another.  This runs a few waves of a tiny
durable single tree and of a two-partition layer under the tracer.

The same holds for the proxy: ``ProxyCoordinator`` and ``ShardedMVTSOManager``
are empty subclasses of the one proxy and the one MVTSO manager, so a
two-worker engine records no ``core.coordinator.*`` or
``concurrency.sharded.*`` span, and its ``concurrency.read`` and
``concurrency.write`` calls are exactly the operations its lanes counted.
"""

import importlib.util
import os
import sys

import pytest

from repro.api import create_engine
from repro.concurrency.mvtso import MVTSOManager
from repro.core.config import ObladiConfig, RingOramConfig
from repro.core.proxy import ObladiProxy
from repro.proxytier.coordinator import ProxyCoordinator
from repro.proxytier.sharded import ShardedMVTSOManager
from repro.sharding.data_layer import SingleOramDataLayer
from repro.sharding.partitioned import PartitionedDataLayer
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TRACED = ("begin_epoch", "execute_read_batch", "execute_write_batch", "flush",
          "bulk_load")
CC_TRACED = ("read", "write", "can_commit", "prepare_epoch")


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


def test_the_proxy_shims_hold_the_parents_functions():
    assert ProxyCoordinator.__dict__["run_epoch"] is ObladiProxy.__dict__["run_epoch"]
    for method in CC_TRACED:
        assert ShardedMVTSOManager.__dict__[method] is MVTSOManager.__dict__[method]
    for shim, own in ((ProxyCoordinator, ("run_epoch",)), (ShardedMVTSOManager, CC_TRACED)):
        assert not [name for name, value in vars(shim).items()
                    if callable(value) and name not in own]


def test_lanes_are_traced_once():
    originals = {(target.owner, target.method): target.owner.__dict__[target.method]
                 for target in TRACE._targets()}
    workload = SmallBankWorkload(SmallBankConfig(num_accounts=30, seed=4))
    config = ObladiConfig(oram=RingOramConfig(num_blocks=128, z_real=4, block_size=64),
                          read_batches=2, read_batch_size=8, write_batch_size=8,
                          shards=2, proxy_workers=2, durability=False, seed=4)
    tracer = TRACE.Tracer()
    tracer.install()
    try:
        with tracer.phase("bench.run"):
            engine = create_engine("obladi", config)
            engine.load_initial_data(workload.initial_data())
            run = engine.run_closed_loop(workload.transaction_factory, 12, clients=4)
    finally:
        tracer.uninstall()

    assert all(owner.__dict__[method] is function
               for (owner, method), function in originals.items())
    spans = {tracer.names[record[0]] for record in tracer.records}
    assert not [name for name in spans
                if name.startswith(("core.coordinator.", "concurrency.sharded."))]
    phase = tracer.summarize()["bench.run"]
    assert phase.calls("core.run_epoch") == run.epochs > 0
    totals = engine.proxy.worker_op_totals()
    assert len(totals) == 2 and all(reads + writes for reads, writes in totals)
    assert (phase.calls("concurrency.read") + phase.calls("concurrency.write")
            == sum(reads + writes for reads, writes in totals))
