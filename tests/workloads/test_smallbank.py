"""Tests for the SmallBank workload."""

import pytest

from repro.workloads.records import record_field
from repro.workloads.smallbank import STANDARD_MIX, SmallBankConfig, SmallBankWorkload

from tests.workloads.test_tpcc import run_program


@pytest.fixture
def workload():
    return SmallBankWorkload(SmallBankConfig(num_accounts=50, seed=2))


class TestPopulation:
    def test_initial_data_has_two_rows_per_account(self, workload):
        data = workload.initial_data()
        assert len(data) == 100
        assert record_field(data[workload.checking_key(0)], "balance") == pytest.approx(100.0)
        assert record_field(data[workload.savings_key(0)], "balance") == pytest.approx(500.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SmallBankConfig(num_accounts=1)
        with pytest.raises(ValueError):
            SmallBankConfig(hotspot_fraction=2.0)


class TestTransactions:
    def test_balance_sums_both_accounts(self, workload):
        state = dict(workload.initial_data())
        result, writes = run_program(workload.balance_program(account=3), state)
        assert result["balance"] == pytest.approx(600.0)
        assert writes == {}

    def test_deposit_checking_increases_balance(self, workload):
        state = dict(workload.initial_data())
        result, _ = run_program(workload.deposit_checking_program(account=1, amount=25.0), state)
        assert record_field(state[workload.checking_key(1)], "balance") == pytest.approx(125.0)

    def test_transact_savings_aborts_on_overdraft(self, workload):
        state = dict(workload.initial_data())
        result, writes = run_program(
            workload.transact_savings_program(account=1, amount=-10_000.0), state)
        assert result is None          # aborted
        assert record_field(state[workload.savings_key(1)], "balance") == pytest.approx(500.0)

    def test_amalgamate_moves_all_funds(self, workload):
        state = dict(workload.initial_data())
        result, _ = run_program(workload.amalgamate_program(), state)
        src, dst = result["from"], result["to"]
        assert record_field(state[workload.savings_key(src)], "balance") == 0.0
        assert record_field(state[workload.checking_key(src)], "balance") == 0.0
        assert record_field(state[workload.checking_key(dst)], "balance") == pytest.approx(
            100.0 + result["moved"])

    def test_write_check_applies_overdraft_penalty(self, workload):
        state = dict(workload.initial_data())
        result, _ = run_program(workload.write_check_program(account=2, amount=10_000.0), state)
        assert result["penalty"] == 1.0

    def test_send_payment_preserves_total_money(self, workload):
        state = dict(workload.initial_data())
        total_before = sum(record_field(v, "balance", 0.0) for v in state.values())
        result, _ = run_program(workload.send_payment_program(), state)
        total_after = sum(record_field(v, "balance", 0.0) for v in state.values())
        assert total_after == pytest.approx(total_before)

    def test_mix_weights(self, workload):
        assert sum(STANDARD_MIX.values()) == 100
        assert len([workload.transaction_factory() for _ in range(20)]) == 20

    def test_hotspot_accounts_receive_more_traffic(self):
        workload = SmallBankWorkload(SmallBankConfig(num_accounts=1000, hotspot_fraction=0.01,
                                                     hotspot_probability=0.5, seed=4))
        picks = [workload._random_account() for _ in range(4000)]
        hot = sum(1 for p in picks if p < 10)
        assert hot > 1200
