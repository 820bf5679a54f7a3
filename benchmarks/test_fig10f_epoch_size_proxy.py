"""Figure 10f: epoch size impact on application throughput at the proxy.

Epoch length is a real tuning knob: epochs too short abort transactions that
need more read rounds than the epoch provides; epochs too long leave the
proxy idle.  The paper sweeps epoch sizes from 0 to 150 ms for SmallBank,
FreeHealth and TPC-C.
"""

from repro.harness.experiments import run_epoch_size_proxy
from repro.harness.report import render_table

from .conftest import run_once


EPOCH_SIZES_MS = (25, 50, 75, 100, 125, 150)


def test_fig10f_epoch_size_proxy(benchmark, bench_scale):
    rows = run_once(benchmark, lambda: run_epoch_size_proxy(
        applications=("smallbank", "freehealth", "tpcc"),
        epoch_sizes_ms=EPOCH_SIZES_MS,
        batch_interval_ms=25.0,
        transactions=max(48, bench_scale["transactions"] // 3),
        clients=max(8, bench_scale["clients"] // 3),
        scale=bench_scale["workload_scale"],
    ))
    print()
    print(render_table(rows, title="Figure 10f — application throughput vs epoch size "
                                   "(series: application, x: epoch ms; simulated)",
                       columns=["series", "x", "throughput_tps", "abort_rate"]))
    for app in ("smallbank", "freehealth", "tpcc"):
        series = sorted((r for r in rows if r.series == app), key=lambda r: r.x)
        assert all(r.run.throughput_tps >= 0 for r in series)
        # Applications with multi-round transactions abort heavily when the
        # epoch is too short to fit their dependent reads.
        if app == "tpcc":
            assert series[0].run.abort_rate >= series[-1].run.abort_rate
