"""Tests for the YCSB workload generator."""

import pytest

from repro.workloads.ycsb import YCSBConfig, YCSBWorkload, ZipfianGenerator


class TestConfig:
    def test_proportions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            YCSBConfig(read_proportion=0.9, update_proportion=0.5)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            YCSBConfig(distribution="latest")


class TestKeyGeneration:
    def test_initial_data_covers_all_records(self):
        workload = YCSBWorkload(YCSBConfig(num_records=50))
        data = workload.initial_data()
        assert len(data) == 50
        assert "ycsb:0" in data and "ycsb:49" in data

    def test_value_size_approximate(self):
        workload = YCSBWorkload(YCSBConfig(num_records=10, value_size=200))
        assert 150 <= len(workload.value(1)) <= 260

    def test_key_stream_within_population(self):
        workload = YCSBWorkload(YCSBConfig(num_records=100, seed=1))
        keys = [workload.key(workload.next_key_index()) for _ in range(500)]
        assert len(keys) == 500
        assert all(0 <= int(k.split(":")[1]) < 100 for k in keys)

    def test_uniform_distribution_spreads_keys(self):
        workload = YCSBWorkload(YCSBConfig(num_records=10, seed=2))
        indexes = [workload.next_key_index() for _ in range(5000)]
        counts = [indexes.count(i) for i in range(10)]
        assert min(counts) > 300

    def test_zipfian_skews_towards_few_keys(self):
        workload = YCSBWorkload(YCSBConfig(num_records=1000, distribution="zipfian", seed=3))
        indexes = [workload.next_key_index() for _ in range(5000)]
        from collections import Counter
        top = Counter(indexes).most_common(10)
        top_share = sum(count for _idx, count in top) / 5000
        assert top_share > 0.25

    def test_generation_is_deterministic_per_seed(self):
        a, b = (YCSBWorkload(YCSBConfig(num_records=100, seed=9)) for _ in range(2))
        assert [a.next_key_index() for _ in range(50)] == [b.next_key_index() for _ in range(50)]

    def test_zipfian_generator_bounds(self):
        import random
        gen = ZipfianGenerator(50, 0.99, random.Random(1))
        assert all(0 <= gen.next_index() < 50 for _ in range(2000))


class TestOperationsAndTransactions:
    def test_operation_mix_roughly_matches_proportions(self):
        workload = YCSBWorkload(YCSBConfig(num_records=100, read_proportion=0.8,
                                           update_proportion=0.2, seed=5))
        ops = workload.operation_stream(2000)
        reads = sum(1 for op, _k, _v in ops if op == "read")
        assert 0.7 < reads / 2000 < 0.9

    def test_update_operations_carry_values(self):
        workload = YCSBWorkload(YCSBConfig(num_records=10, read_proportion=0.0,
                                           update_proportion=1.0, seed=1))
        ops = workload.operation_stream(10)
        assert all(value is not None for _op, _k, value in ops)

    def test_transaction_factory_program_runs(self):
        workload = YCSBWorkload(YCSBConfig(num_records=20, ops_per_transaction=3, seed=4))
        program = workload.transaction_factory()()
        operation = program.send(None)
        # Either a ReadMany of all read keys, or a Write if the mix chose all
        # updates for this transaction.
        from repro.core.client import ReadMany, Write
        assert isinstance(operation, (ReadMany, Write))

