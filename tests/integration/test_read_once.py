"""Every server sees each slot of a bucket version read at most once.

The epoch executor keeps no read cache: Ring ORAM reads a slot at most once
per bucket version (a read invalidates it, and only a rewrite under a new
version makes it valid again), so no key it sends was read before.  This
runs the ``--smoke`` configuration of each of the repo benchmark's four
workloads (``bench/workloads.py``): a partitioned layer on one server, a
durable single tree that crashes and recovers, a durable open loop, and a
two-server cluster resharded live into generation ``g1/``.  Every server's
adversary trace must pass :func:`repro.analysis.check_bucket_invariant`,
every tree must address its host server itself, its namespace leading each
slot key, and every tree's client state must pass
:meth:`repro.oram.ring_oram.RingOram.check_invariants` at the end.
"""

import importlib.util
import os
import sys

import pytest

from repro.analysis import check_bucket_invariant
from repro.api import create_engine

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _bench_workloads():
    """``bench/workloads.py`` (it imports only ``repro``), loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BY_NAME


WORKLOADS = _bench_workloads()


def assert_trees_address_their_hosts(engine):
    servers = engine.storage.servers
    config = engine.proxy.config
    for part in engine.proxy.data_layer.partitions:
        oram = part.oram
        assert part.storage is oram.storage is servers[part.index % config.storage_servers]
        assert oram.key_prefix == part.component_prefix
        live = [key for bucket, keys in oram.server_keys.items()
                if oram.metadata.bucket(bucket).version for key in keys]
        assert live, f"partition {part.index} kept no key of a stored version"
        for key in live:
            assert key.startswith(part.component_prefix + "oram/"), key
            assert part.storage.contains(key), key


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_workload_reads_each_slot_version_once(name):
    workload = WORKLOADS[name].smoke()
    generator = workload.make_generator(17)
    data = generator.initial_data()
    engine = create_engine("obladi", workload.engine_config(17, len(data)))
    engine.load_initial_data(data)
    workload.attach_observers(engine)
    stats = workload.drive(engine, generator.transaction_factory, 17)
    assert stats.committed > 0
    assert (engine.proxy.config.shards, engine.proxy.config.storage_servers,
            engine.proxy.config.proxy_workers) == workload.final_topology
    if workload.reshard_after_wave:
        assert engine.proxy.config.generation_prefix == "g1/"
    if workload.durable:
        state = dict(data)
        for txn in sorted(engine.committed_history, key=lambda txn: txn.timestamp):
            state.update(txn.write_set)
        engine.crash()
        engine.recover()
        for key in sorted(state)[:8]:
            assert engine.read(key) == state[key], key
    assert_trees_address_their_hosts(engine)
    for part in engine.proxy.data_layer.partitions:
        assert part.oram.check_invariants() == [], f"partition {part.index}"
    for index, server in enumerate(engine.storage.servers):
        assert check_bucket_invariant(server.trace) == [], f"server {index}"
