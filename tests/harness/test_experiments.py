"""Tests for the experiment harness (tiny-scale smoke runs of every figure).

These verify that each experiment function produces rows of the right shape
and that the headline qualitative relationships of the paper hold at reduced
scale.  The benchmark suite runs the same functions at larger scale.
"""

import pytest

from repro.harness import experiments as exp

from tests.conftest import live_versions, stored_versions


pytestmark = pytest.mark.filterwarnings("ignore")


class TestParallelism:
    def test_rows_cover_backends_and_modes(self):
        rows = exp.run_parallelism(backends=("dummy", "server"), batch_size=64,
                                   operations=64, num_blocks=2000)
        assert len(rows) == 6
        assert {r.backend for r in rows} == {"dummy", "server"}

    def test_parallelism_helps_on_remote_but_not_dummy(self):
        rows = exp.run_parallelism(backends=("dummy", "server_wan"), batch_size=96,
                                   operations=96, num_blocks=2000)
        by = {(r.backend, r.mode): r.throughput_ops_per_s for r in rows}
        assert by[("server_wan", "parallel")] > 20 * by[("server_wan", "sequential")]
        # Parallel Ring ORAM is slower on the CPU-bound backend (paper: ~3x).
        assert by[("dummy", "parallel_crypto")] < by[("dummy", "sequential")]

    def test_every_mode_leaves_one_version_per_bucket(self, monkeypatch):
        """The sequential baseline collects superseded versions too."""
        build, built = exp._build_oram, []

        def recording_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(exp, "_build_oram", recording_build)
        exp.run_parallelism(backends=("dummy",), num_blocks=2048, operations=100,
                            batch_size=100)
        assert len(built) == 3
        for oram in built:
            assert stored_versions(oram.storage) == live_versions(oram)

    def test_exact_elapsed_ms(self):
        """Every Figure 10a row, bit for bit.  The sequential rows run the
        epoch executor at batch size 1, parallelism 1 and immediate
        write-back, so a bucket write is one round trip."""
        rows = exp.run_parallelism(num_blocks=2048, operations=100, batch_size=100)
        assert {(r.backend, r.mode): r.elapsed_ms for r in rows} == {
            ("dummy", "sequential"): 1.847999999999998,
            ("dummy", "parallel"): 1.7884,
            ("dummy", "parallel_crypto"): 2.7492,
            ("server", "sequential"): 452.0079999999991,
            ("server", "parallel"): 5.8402,
            ("server", "parallel_crypto"): 6.2372000000000005,
            ("server_wan", "sequential"): 14808.008000000009,
            ("server_wan", "parallel"): 30.112400000000008,
            ("server_wan", "parallel_crypto"): 30.12960000000001,
            ("dynamo", "sequential"): 1600.348000000004,
            ("dynamo", "parallel"): 25.320700000000002,
            ("dynamo", "parallel_crypto"): 25.3371,
        }


class TestBatchSizeSweep:
    def test_throughput_grows_with_batch_size_on_wan(self):
        rows = exp.run_batch_size_sweep(backends=("server_wan",), batch_sizes=(1, 16, 128),
                                        num_blocks=2000, min_operations=128)
        ordered = sorted(rows, key=lambda r: r.batch_size)
        assert ordered[-1].throughput_ops_per_s > ordered[0].throughput_ops_per_s

    def test_latency_grows_with_batch_size(self):
        rows = exp.run_batch_size_sweep(backends=("server",), batch_sizes=(1, 64),
                                        num_blocks=2000, min_operations=64)
        small, large = sorted(rows, key=lambda r: r.batch_size)
        assert large.latency_ms > small.latency_ms


class TestDelayedVisibilityAndEpochSize:
    def test_write_back_buffering_improves_throughput(self):
        rows = exp.run_delayed_visibility(backends=("server",), batch_size=48,
                                          batches_per_epoch=4, num_blocks=2000)
        by = {r.mode: r.throughput_ops_per_s for r in rows}
        assert by["write_back"] > by["normal"]

    def test_larger_epochs_increase_relative_throughput(self):
        rows = exp.run_epoch_size_oram(backends=("server",), batch_counts=(1, 4, 8),
                                       batch_size=32, num_blocks=2000)
        ordered = sorted(rows, key=lambda r: r.batches_per_epoch)
        assert ordered[-1].relative_increase >= ordered[0].relative_increase
        assert ordered[0].relative_increase == pytest.approx(1.0)


class TestEndToEndAndProxyEpochs:
    def test_end_to_end_rows_shape(self):
        rows = exp.run_end_to_end(applications=("smallbank",), systems=("obladi", "nopriv"),
                                  transactions=20, clients=6, scale=0.01)
        assert len(rows) == 2
        by = {r.system: r for r in rows}
        assert by["obladi"].committed > 0
        assert by["nopriv"].throughput_tps > by["obladi"].throughput_tps
        assert by["obladi"].mean_latency_ms > by["nopriv"].mean_latency_ms

    def test_epoch_size_proxy_rows(self):
        rows = exp.run_epoch_size_proxy(applications=("smallbank",),
                                        epoch_sizes_ms=(25, 100), batch_interval_ms=25.0,
                                        transactions=16, clients=4, scale=0.01)
        assert len(rows) == 2
        assert all(r.throughput_tps >= 0 for r in rows)
        assert rows[0].read_batches < rows[1].read_batches


class TestDurabilityExperiments:
    def test_checkpoint_frequency_rows(self):
        rows = exp.run_checkpoint_frequency(frequencies=(1, 8), backends=("server",),
                                            num_records=300, transactions=12, clients=4)
        assert len(rows) == 2
        assert all(r.throughput_ops_per_s > 0 for r in rows)

    def test_recovery_table_rows(self):
        rows = exp.run_recovery_table(sizes=(300,), backend="server", transactions=10,
                                      clients=4)
        assert len(rows) == 1
        row = rows[0]
        assert 0 < row.durability_slowdown <= 1.2
        assert row.recovery_time_ms > 0
        assert row.tree_levels > 0
        assert row.position_ms >= 0 and row.paths_ms >= 0
