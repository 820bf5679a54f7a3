"""End-to-end integration tests: applications on Obladi and the baselines."""

import pytest

from repro.api import ObladiEngine, create_engine
from repro.concurrency.serializability import check_serializable
from repro.core.config import ObladiConfig
from repro.core.proxy import ObladiProxy
from repro.workloads.freehealth import FreeHealthConfig, FreeHealthWorkload
from repro.workloads.records import record_field
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload
from repro.workloads.tpcc import TPCCConfig, TPCCWorkload


def obladi_for(data, profile, seed=3):
    config = (ObladiConfig().with_workload(profile).with_backend("server")
              .with_oram(num_blocks=max(2 * len(data), 1024), z_real=8, block_size=320)
              .with_batching(read_batch_size=48, write_batch_size=64)
              .with_durability(False))
    proxy = ObladiProxy(config)
    proxy.load_initial_data(data)
    return proxy


class TestSmallBankEndToEnd:
    def test_smallbank_on_all_three_systems(self):
        workload_args = dict(num_accounts=80, seed=13)
        results = {}
        for system in ("obladi", "nopriv", "mysql"):
            workload = SmallBankWorkload(SmallBankConfig(**workload_args))
            data = workload.initial_data()
            if system == "obladi":
                engine = ObladiEngine(obladi_for(data, "smallbank"))
            else:
                engine = create_engine(system)
                engine.load_initial_data(data)
            run = engine.run_closed_loop(workload.transaction_factory,
                                         total_transactions=40, clients=8)
            ok, cycle = check_serializable(engine.committed_history)
            assert run.committed > 0, system
            assert ok, f"{system}: {cycle}"
            results[system] = run
        # Obladi pays for obliviousness: lower throughput, higher latency.
        assert results["obladi"].throughput_tps < results["nopriv"].throughput_tps
        assert results["obladi"].average_latency_ms > results["nopriv"].average_latency_ms

    def test_money_is_conserved_on_obladi(self):
        workload = SmallBankWorkload(SmallBankConfig(num_accounts=40, seed=7))
        data = workload.initial_data()
        total_before = sum(record_field(v, "balance", 0.0) for v in data.values())
        engine = ObladiEngine(obladi_for(data, "smallbank"))
        # send_payment and amalgamate move money around but never create it.
        factories = [workload.send_payment_program, workload.amalgamate_program]
        engine.submit_many([factories[i % 2]() for i in range(12)])

        from repro.core.client import ReadMany

        def audit():
            keys = [workload.checking_key(a) for a in range(40)]
            keys += [workload.savings_key(a) for a in range(40)]
            rows = yield ReadMany(keys)
            return sum(record_field(v, "balance", 0.0) for v in rows.values())

        # The audit needs a bigger read batch than the default profile.
        audit_result = None
        for _attempt in range(3):
            result = engine.submit(audit)
            if result.committed:
                audit_result = result.return_value
                break
        if audit_result is not None:
            assert audit_result == pytest.approx(total_before, abs=1.0)


class TestTPCCEndToEnd:
    def test_tpcc_runs_and_preserves_order_ids(self):
        workload = TPCCWorkload(TPCCConfig(warehouses=2, districts_per_warehouse=2,
                                           customers_per_district=4, items=40, seed=5))
        data = workload.initial_data()
        engine = ObladiEngine(obladi_for(data, "tpcc"))
        run = engine.run_closed_loop(workload.transaction_factory,
                                     total_transactions=30, clients=6)
        assert run.committed > 0
        ok, cycle = check_serializable(engine.committed_history)
        assert ok, cycle

    def test_new_order_ids_never_collide_under_contention(self):
        workload = TPCCWorkload(TPCCConfig(warehouses=1, districts_per_warehouse=1,
                                           customers_per_district=4, items=20, seed=9))
        data = workload.initial_data()
        proxy = obladi_for(data, "tpcc")
        order_ids = []
        results = []
        for _ in range(4):
            for _ in range(3):
                proxy.submit(workload.new_order_program(warehouse=0, district=0))
            results += proxy.run_epoch()
        for result in results:
            if result.committed and isinstance(result.return_value, dict):
                order_ids.append(result.return_value["order"])
        assert len(order_ids) == len(set(order_ids)), "duplicate order ids handed out"


class TestFreeHealthEndToEnd:
    def test_freehealth_on_obladi(self):
        workload = FreeHealthWorkload(FreeHealthConfig(num_patients=40, num_drugs=15, seed=3))
        data = workload.initial_data()
        engine = ObladiEngine(obladi_for(data, "freehealth"))
        run = engine.run_closed_loop(workload.transaction_factory,
                                     total_transactions=30, clients=6)
        assert run.committed > 0
        assert run.abort_rate < 0.5
        ok, cycle = check_serializable(engine.committed_history)
        assert ok, cycle

    def test_episode_counter_monotone_under_contention(self):
        workload = FreeHealthWorkload(FreeHealthConfig(num_patients=5, num_drugs=10, seed=3))
        data = workload.initial_data()
        proxy = obladi_for(data, "freehealth")
        results = []
        for _ in range(3):
            for _ in range(4):
                proxy.submit(workload.create_episode_program(patient=1))
            results += proxy.run_epoch()
        committed_episodes = [r.return_value["episode"] for r in results
                              if r.committed and isinstance(r.return_value, dict)
                              and "episode" in r.return_value]
        assert len(committed_episodes) == len(set(committed_episodes))
