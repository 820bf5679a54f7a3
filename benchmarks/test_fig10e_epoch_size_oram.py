"""Figure 10e: epoch size impact on the ORAM (relative throughput increase).

Larger epochs buffer more buckets at the proxy, serve more reads locally and
deduplicate more writes: the paper observes an almost logarithmic increase
in throughput as the number of batches per epoch grows from 2^1 to 2^7.
"""

from repro.harness.experiments import run_epoch_size_oram
from repro.harness.report import render_table

from .conftest import run_once


BATCH_COUNTS = (1, 2, 4, 8, 16, 32)


def test_fig10e_epoch_size_oram(benchmark, bench_scale):
    rows = run_once(benchmark, lambda: run_epoch_size_oram(
        backends=("server", "server_wan", "dynamo"),
        batch_counts=BATCH_COUNTS,
        batch_size=max(64, bench_scale["batch_operations"] // 4),
        num_blocks=bench_scale["oram_objects"],
    ))
    table = []
    for backend in ("server", "server_wan", "dynamo"):
        series = sorted((r for r in rows if r.backend == backend),
                        key=lambda r: r.batches_per_epoch)
        # Throughput relative to the series' first point (one batch an epoch).
        relative = [r.throughput_ops_per_s / series[0].throughput_ops_per_s
                    for r in series]
        table += [dict(backend=backend, batches_per_epoch=r.batches_per_epoch,
                       throughput_ops_per_s=r.throughput_ops_per_s,
                       relative_increase=increase)
                  for r, increase in zip(series, relative)]
        assert relative[0] == 1.0
        assert relative[-1] > 1.2
        # Monotone non-decreasing within noise.
        for earlier, later in zip(relative, relative[1:]):
            assert later >= earlier * 0.95
    print()
    print(render_table(table, title="Figure 10e — relative throughput vs batches per epoch "
                                    "(simulated)"))
