"""Tests for the TPC-C workload."""

import pytest

from repro.api import create_engine
from repro.core.client import ABORT, COMMIT, ProgramRun, Write
from repro.workloads.records import decode_record, make_key, record_field
from repro.workloads.tpcc import STANDARD_MIX, TPCCConfig, TPCCWorkload, last_name


@pytest.fixture
def workload():
    return TPCCWorkload(TPCCConfig(warehouses=2, districts_per_warehouse=2,
                                   customers_per_district=4, items=20,
                                   initial_orders_per_district=2, seed=1))


def run_program(program_factory, state):
    """Drive a transaction program against a plain dict state (no concurrency)."""
    run = ProgramRun(program_factory)
    writes = {}
    while True:
        request = run.next()
        if request is COMMIT:
            state.update(writes)
            return run.return_value, writes
        if request is ABORT:
            return None, {}
        if isinstance(request, Write):
            writes[request.key] = request.value
            run.answer()
        else:
            run.answer({key: writes.get(key, state.get(key)) for key in request.keys})


class TestPopulation:
    def test_last_name_generation(self):
        assert last_name(0) == "BARBARBAR"
        assert last_name(371) == "PRICALLYOUGHT"
        assert last_name(999) == "EINGEINGEING"

    def test_initial_data_has_all_tables(self, workload):
        data = workload.initial_data()
        assert make_key("warehouse", 0) in data
        assert make_key("district", 1, 1) in data
        assert make_key("customer", 0, 0, 3) in data
        assert make_key("stock", 1, 19) in data
        assert make_key("item", 19) in data
        assert make_key("order", 0, 0, 1) in data
        assert make_key("new_order", 0, 0, 0) in data

    def test_customer_name_index_consistent(self, workload):
        data = workload.initial_data()
        for c in range(4):
            lname = record_field(data[make_key("customer", 0, 0, c)], "last")
            ids = record_field(data[make_key("cust_name_idx", 0, 0, lname)], "ids")
            assert c in ids

    def test_district_next_order_id_matches_initial_orders(self, workload):
        data = workload.initial_data()
        assert record_field(data[make_key("district", 0, 0)], "next_o_id") == 2

    def test_scale_controls_size(self):
        small = TPCCWorkload(TPCCConfig(warehouses=1, districts_per_warehouse=1,
                                        customers_per_district=2, items=5)).initial_data()
        large = TPCCWorkload(TPCCConfig(warehouses=2, districts_per_warehouse=2,
                                        customers_per_district=4, items=20)).initial_data()
        assert len(large) > len(small)


class TestTransactions:
    def test_new_order_updates_district_and_stock(self, workload):
        state = dict(workload.initial_data())
        result, writes = run_program(workload.new_order_program(warehouse=0, district=0), state)
        assert result["order"] == 2
        assert record_field(state[make_key("district", 0, 0)], "next_o_id") == 3
        assert any(key.startswith("order_line:0:0:2") for key in writes)
        assert any(key.startswith("stock:0:") for key in writes)

    def test_consecutive_new_orders_get_distinct_ids(self, workload):
        state = dict(workload.initial_data())
        first, _ = run_program(workload.new_order_program(warehouse=0, district=0), state)
        second, _ = run_program(workload.new_order_program(warehouse=0, district=0), state)
        assert second["order"] == first["order"] + 1

    def test_payment_updates_balances(self, workload):
        state = dict(workload.initial_data())
        result, writes = run_program(workload.payment_program(warehouse=0, district=1), state)
        warehouse = decode_record(state[make_key("warehouse", 0)])
        assert warehouse["ytd"] == pytest.approx(result["amount"])
        customer_key = make_key("customer", 0, 1, result["customer"])
        assert record_field(state[customer_key], "balance") < 0

    def test_order_status_reads_latest_order(self, workload):
        state = dict(workload.initial_data())
        result, writes = run_program(workload.order_status_program(), state)
        assert writes == {}            # read-only
        assert "customer" in result

    def test_delivery_consumes_new_orders(self, workload):
        state = dict(workload.initial_data())
        result, writes = run_program(workload.delivery_program(), state)
        assert isinstance(result["delivered"], list)
        if result["delivered"]:
            district, order = result["delivered"][0]
            order_key = make_key("order", result["warehouse"], district, order)
            assert record_field(state[order_key], "carrier") >= 1

    def test_stock_level_counts_low_stock(self, workload):
        state = dict(workload.initial_data())
        result, writes = run_program(workload.stock_level_program(), state)
        assert writes == {}
        assert result["low_stock"] >= 0

    def test_mix_respects_weights(self, workload):
        assert sum(STANDARD_MIX.values()) == 100
        factories = workload.transaction_factories(50)
        assert len(factories) == 50

    def test_runs_on_nopriv_baseline(self, workload, closed_loop):
        proxy = create_engine("nopriv", backend="server")
        proxy.load_initial_data(workload.initial_data())
        result = closed_loop(proxy, workload.transaction_factories(40), clients=8)
        assert result.committed > 0
        from repro.concurrency.serializability import check_serializable
        ok, cycle = check_serializable(proxy.committed_history)
        assert ok, cycle
