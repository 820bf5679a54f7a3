"""Tests for the FreeHealth EHR workload."""

import pytest

from repro.workloads.freehealth import (STANDARD_MIX, FreeHealthConfig, FreeHealthWorkload)
from repro.workloads.records import make_key, record_field

from tests.workloads.test_tpcc import run_program


@pytest.fixture
def workload():
    return FreeHealthWorkload(FreeHealthConfig(num_users=4, num_patients=20, num_drugs=10,
                                               seed=3))


class TestPopulation:
    def test_schema_tables_present(self, workload):
        data = workload.initial_data()
        assert make_key("user", 0) in data
        assert make_key("patient", 19) in data
        assert make_key("episode", 5, 0) in data
        assert make_key("prescription", 5, 0) in data
        assert make_key("drug", 9) in data
        assert make_key("pmh", 5, 0) in data

    def test_drug_interactions_reference_valid_drugs(self, workload):
        data = workload.initial_data()
        for d in range(10):
            interactions = record_field(data[make_key("drug", d)], "interactions")
            assert all(0 <= other < 10 for other in interactions)

    def test_mix_is_read_mostly(self):
        read_only = {"lookup_patient", "medical_history", "list_prescriptions",
                     "drug_interactions"}
        read_weight = sum(w for name, w in STANDARD_MIX.items() if name in read_only)
        assert read_weight >= 50


class TestTransactions:
    def test_create_patient_assigns_new_id(self, workload):
        state = dict(workload.initial_data())
        result, _ = run_program(workload.create_patient_program(), state)
        assert result["patient"] == 20
        assert make_key("patient", 20) in state
        assert record_field(state[make_key("patient_count", "global")], "count") == 21

    def test_create_episode_bumps_counter(self, workload):
        state = dict(workload.initial_data())
        result, _ = run_program(workload.create_episode_program(patient=3), state)
        assert result["episode"] == 2
        assert record_field(state[make_key("patient_episode_count", 3)], "count") == 3
        assert make_key("episode", 3, 2) in state

    def test_prescribe_adds_prescription_or_flags_interaction(self, workload):
        state = dict(workload.initial_data())
        result, writes = run_program(workload.prescribe_program(), state)
        if result is not None and "prescription" in result:
            assert make_key("prescription", result["patient"], result["prescription"]) in state
        # Otherwise the transaction aborted because of a drug interaction,
        # which must leave no writes behind.
        else:
            assert writes == {}

    def test_lookup_patient_writes_nothing(self, workload):
        state = dict(workload.initial_data())
        before = dict(state)
        result, writes = run_program(workload.lookup_patient_program(), state)
        assert writes == {}
        assert state == before
        assert "latest_episode" in result

    def test_medical_history_returns_entries(self, workload):
        state = dict(workload.initial_data())
        result, _ = run_program(workload.medical_history_program(), state)
        assert len(result["history"]) >= 1

    def test_list_prescriptions(self, workload):
        state = dict(workload.initial_data())
        result, _ = run_program(workload.list_prescriptions_program(), state)
        assert len(result["drugs"]) >= 1

    def test_drug_interactions_check_is_symmetric_enough(self, workload):
        state = dict(workload.initial_data())
        result, writes = run_program(workload.drug_interactions_program(), state)
        assert writes == {}
        assert isinstance(result["conflict"], bool)

    def test_update_patient_flips_active_flag(self, workload):
        state = dict(workload.initial_data())
        result, _ = run_program(workload.update_patient_program(), state)
        active = record_field(state[make_key("patient", result["patient"])], "active")
        assert active == (1 if result["active"] else 0)

    def test_add_episode_content_targets_latest_episode(self, workload):
        state = dict(workload.initial_data())
        result, writes = run_program(workload.add_episode_content_program(), state)
        if result and "episode" in result and not result.get("aborted"):
            assert any(key.startswith(f"episode_content:{result['patient']}:") for key in writes)

    def test_factories_generate_programs(self, workload):
        assert len([workload.transaction_factory() for _ in range(15)]) == 15
