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

    def test_speedup_grows_with_latency(self):
        rows = exp.run_parallelism(backends=("server", "server_wan"), batch_size=96,
                                   operations=96, num_blocks=2000,
                                   modes=("sequential", "parallel"))
        by = {(r.backend, r.mode): r.throughput_ops_per_s for r in rows}
        speedup = {backend: by[(backend, "parallel")] / by[(backend, "sequential")]
                   for backend in ("server", "server_wan")}
        assert speedup["server_wan"] > speedup["server"]

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
        assert by["parallel_crypto"] > by["normal"]

    def test_larger_epochs_increase_relative_throughput(self):
        rows = exp.run_epoch_size_oram(backends=("server",), batch_counts=(1, 4, 8),
                                       batch_size=32, num_blocks=2000)
        ordered = sorted(rows, key=lambda r: r.batches_per_epoch)
        relative = [r.throughput_ops_per_s / ordered[0].throughput_ops_per_s
                    for r in ordered]
        assert relative[-1] >= relative[0]
        assert relative[0] == pytest.approx(1.0)


class TestEndToEndAndProxyEpochs:
    def test_end_to_end_rows_shape(self):
        rows = exp.run_end_to_end(applications=("smallbank",), systems=("obladi", "nopriv"),
                                  transactions=20, clients=6, scale=0.01)
        assert len(rows) == 2
        by = {r.series: r.run for r in rows}
        assert by["obladi"].committed > 0
        assert by["nopriv"].throughput_tps > by["obladi"].throughput_tps
        assert by["obladi"].average_latency_ms > by["nopriv"].average_latency_ms

    def test_epoch_size_proxy_rows(self):
        rows = exp.run_epoch_size_proxy(applications=("smallbank",),
                                        epoch_sizes_ms=(25, 100), batch_interval_ms=25.0,
                                        transactions=16, clients=4, scale=0.01)
        assert len(rows) == 2
        assert all(r.run.throughput_tps >= 0 for r in rows)
        # Every epoch pads each of its read batches, so a 100 ms epoch (four
        # batches) reads more paths than a 25 ms one (one batch).
        per_epoch = [r.run.physical_reads / r.run.epochs for r in rows]
        assert per_epoch[0] < per_epoch[1]


class TestDurabilityExperiments:
    def test_checkpoint_frequency_rows(self):
        rows = exp.run_checkpoint_frequency(frequencies=(1, 8), backends=("server",),
                                            num_records=300, transactions=12, clients=4)
        assert len(rows) == 2
        assert all(r.run.throughput_tps > 0 for r in rows)

    def test_recovery_table_rows(self):
        rows = exp.run_recovery_table(sizes=(300,), backend="server", transactions=10,
                                      clients=4)
        assert len(rows) == 1
        row = rows[0]
        assert 0 < row.durability_slowdown <= 1.2
        assert row.recovery.total_ms > 0
        assert row.tree_levels > 0
        assert row.recovery.position_ms >= 0 and row.recovery.paths_ms >= 0


#: Every number each ``run_*`` returns at the scale of :data:`PINNED_RUNS`,
#: recorded when each figure still had its own row type.  A refactor of the
#: harness must not move one of them.  The durable Obladi rows
#: (``run_end_to_end``'s two Obladi series, ``run_checkpoint_frequency``,
#: ``run_recovery_table``) were re-recorded once, when checkpoints became
#: fixed-width binary records: their bytes feed the simulated clock.
PINNED = {
    "run_end_to_end": [
        ("smallbank", "obladi", 173.00638970265973, 17.340094166666667, 12, 1,
         0.07692307692307693),
        ("smallbank", "nopriv", 5279.366476022877, 0.5645833333333333, 12, 1,
         0.07692307692307693),
        ("smallbank", "mysql", 19575.856443719415, 0.11975000000000001, 12, 0, 0.0),
        ("smallbank", "obladi_wan", 33.67751378224186, 89.07605416666667, 12, 1,
         0.07692307692307693),
    ],
    "run_parallelism": [
        ("dummy", "sequential", 333333.33333333326, 0.048000000000000015),
        ("dummy", "parallel", 142857.14285714284, 0.112),
        ("dummy", "parallel_crypto", 111111.11111111112, 0.144),
        ("server_wan", "sequential", 19.994801351648565, 800.2080000000003),
        ("server_wan", "parallel", 1596.10550257372, 10.0244),
        ("server_wan", "parallel_crypto", 1596.0418162955868, 10.0248),
    ],
    "run_batch_size_sweep": [
        ("server", 1, 3291.6392363396976, 0.30379999999999996),
        ("server", 8, 25510.204081632655, 0.3136),
    ],
    "run_delayed_visibility": [
        ("server_wan", "normal", 637.6610592347268),
        ("server_wan", "write_back", 637.8034050729287),
    ],
    "run_epoch_size_oram": [
        ("server", 1, 25510.204081632655, 1.0),
        ("server", 2, 16870.51876845213, 0.6613243357233234),
        ("server", 4, 16340.703671551857, 0.6405555839248327),
    ],
    "run_epoch_size_proxy": [
        ("smallbank", 25, 1, 101.85762849976447, 0.1111111111111111),
        ("smallbank", 50, 2, 51.83327826047519, 0.1111111111111111),
    ],
    "run_checkpoint_frequency": [
        ("server", 1, 1458.8304374029537),
        ("server", 4, 1462.8237068866997),
    ],
    "run_recovery_table": [
        (200, 4, 0.9362130326776599, 3.85984, 3.19584, 0.16, 0.124, 0.38),
    ],
    "run_saturation_sweep": [
        ("obladi", 0.5, 240.34128462416632, 384.88032996033263, 384.88032996033263,
         10.886059604637692, 16.409244217474065, 16.409244217474065, 4.228859604637692, 6,
         0, 0.0, 480.68256924833264, 6.657200000000002, True, 10),
        ("obladi", 2.0, 961.3651384966653, 396.5279928693292, 396.5279928693292,
         18.81045633525705, 32.92492438949802, 32.92492438949802, 12.15325633525705, 13, 0,
         0.1111111111111111, 480.68256924833264, 6.657200000000002, True, 11),
        ("nopriv", 0.5, 2451.7315353968743, 3911.3994279236804, 3911.3994279236804,
         0.9736892301548041, 1.630585107300904, 1.630585107300904, 0.42637673015480404, 6,
         0, 0.0, 4903.463070793749, 0.5473125, True, 10),
        ("nopriv", 2.0, 9806.926141587497, 4040.5041494826187, 4040.5041494826187,
         1.7488615137578492, 3.2320040462336115, 3.2320040462336115, 1.201549013757849, 13,
         0, 0.1111111111111111, 4903.463070793749, 0.5473125, True, 11),
    ],
    "run_repair_comparison": [
        ("retry", 2.0, 557.935125020386, 295.9720573373305, 14, 8, 6, 0, 0, 8,
         0.36363636363636365, 17.8474446446715, 278.967562510193, True),
        ("repair", 2.0, 1201.7064231208315, 476.025671461341, 16, 0, 0, 5, 0, 0, 0.0,
         18.90342692092754, 600.8532115604157, True),
    ],
}


#: ``run_*`` name -> (its tiny-scale keyword arguments, rows -> the tuples
#: :data:`PINNED` records).  The views rebuild the old tuples from today's
#: rows, so Figure 10d's ``parallel_crypto`` reads as ``write_back`` again and
#: Figure 10f's read batches per epoch are derived from its ``x``.
PINNED_RUNS = {
    "run_end_to_end": (
        dict(applications=("smallbank",), systems=("obladi", "nopriv", "mysql", "obladi_wan"),
             transactions=12, clients=4, scale=0.01),
        lambda rows: [(r.x, r.series, r.run.throughput_tps, r.run.average_latency_ms,
                       r.run.committed, r.run.aborted, r.run.abort_rate) for r in rows]),
    "run_parallelism": (
        dict(backends=("dummy", "server_wan"), batch_size=16, operations=16, num_blocks=256),
        lambda rows: [(r.backend, r.mode, r.throughput_ops_per_s, r.elapsed_ms)
                      for r in rows]),
    "run_batch_size_sweep": (
        dict(backends=("server",), batch_sizes=(1, 8), num_blocks=256, min_operations=12),
        lambda rows: [(r.backend, r.batch_size, r.throughput_ops_per_s, r.latency_ms)
                      for r in rows]),
    "run_delayed_visibility": (
        dict(backends=("server_wan",), batch_size=8, batches_per_epoch=4, num_blocks=256),
        lambda rows: [(r.backend, {"parallel_crypto": "write_back"}.get(r.mode, r.mode),
                       r.throughput_ops_per_s) for r in rows]),
    "run_epoch_size_oram": (
        dict(backends=("server",), batch_counts=(1, 2, 4), batch_size=8, num_blocks=256),
        lambda rows: [(r.backend, r.batches_per_epoch, r.throughput_ops_per_s,
                       r.throughput_ops_per_s / rows[0].throughput_ops_per_s)
                      for r in rows]),
    "run_epoch_size_proxy": (
        dict(applications=("smallbank",), epoch_sizes_ms=(25, 50), transactions=8,
             clients=4, scale=0.01),
        lambda rows: [(r.series, r.x, max(1, int(round(r.x / 25.0))),
                       r.run.throughput_tps, r.run.abort_rate) for r in rows]),
    "run_checkpoint_frequency": (
        dict(frequencies=(1, 4), backends=("server",), num_records=200, transactions=8,
             clients=4),
        lambda rows: [(r.series, r.x, r.run.committed * 4 * 1000.0 / r.run.elapsed_ms)
                      for r in rows]),
    "run_recovery_table": (
        dict(sizes=(200,), backend="server", transactions=8, clients=4),
        lambda rows: [(r.num_objects, r.tree_levels, r.durability_slowdown,
                       r.recovery.total_ms, r.recovery.network_ms, r.recovery.position_ms,
                       r.recovery.permutation_ms, r.recovery.paths_ms) for r in rows]),
    "run_saturation_sweep": (
        dict(kinds=("obladi", "nopriv"), rate_multipliers=(0.5, 2.0), transactions=16,
             clients=4, num_accounts=100),
        lambda rows: [(r.run.engine, r.x, r.target_rate_tps, r.run.offered_tps,
                       r.run.achieved_tps, r.run.average_total_latency_ms,
                       r.run.p95_total_latency_ms, r.run.p99_total_latency_ms,
                       r.run.average_queue_delay_ms, r.run.max_queue_depth, r.run.dropped,
                       r.run.abort_rate, r.ceiling.throughput_tps,
                       r.ceiling.average_latency_ms, r.run.audit.ok,
                       r.run.audit.max_retained_nodes) for r in rows]),
    "run_repair_comparison": (
        dict(rate_multipliers=(2.0,), transactions=16, clients=4, num_accounts=60),
        lambda rows: [(r.series, r.x, r.target_rate_tps, r.run.achieved_tps,
                       r.run.committed, r.run.aborted, r.run.retries, r.run.repaired,
                       r.run.repair_failed, r.run.wasted_attempts, r.run.abort_rate,
                       r.run.average_total_latency_ms, r.ceiling.throughput_tps,
                       r.run.audit.ok) for r in rows]),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_every_returned_number_is_pinned(name):
    kwargs, numbers = PINNED_RUNS[name]
    assert numbers(getattr(exp, name)(**kwargs)) == PINNED[name]
