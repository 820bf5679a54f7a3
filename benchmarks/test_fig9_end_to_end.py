"""Figure 9: end-to-end application performance.

Regenerates the throughput (9a) and latency (9b) bars for Obladi, NoPriv and
the MySQL-like baseline on TPC-C, FreeHealth and SmallBank, in both the LAN
(0.3 ms) and WAN (10 ms) settings.  The paper's headline numbers are that
Obladi stays within 5x-12x of NoPriv's throughput while paying roughly
20x-70x in latency; the tables printed under ``pytest -s`` show the ratios
this reproduction obtains.
"""

import pytest

from repro.harness.experiments import run_end_to_end
from repro.harness.report import render_table

from .conftest import run_once


@pytest.fixture(scope="module")
def fig9_sweep(bench_scale):
    """The one sweep both panels read, run by whichever panel asks first.

    That panel's benchmark time is the sweep's; the other one's is a lookup.
    """
    rows = []

    def collect():
        if not rows:
            rows.extend(run_end_to_end(
                applications=("tpcc", "freehealth", "smallbank"),
                systems=("obladi", "nopriv", "mysql", "obladi_wan", "nopriv_wan"),
                transactions=bench_scale["transactions"],
                clients=bench_scale["clients"],
                scale=bench_scale["workload_scale"],
            ))
        return rows

    return collect


def test_fig9a_throughput(benchmark, fig9_sweep):
    rows = run_once(benchmark, fig9_sweep)
    print()
    print(render_table(rows, title="Figure 9a — application throughput (simulated)",
                       columns=["x", "series", "throughput_tps", "committed",
                                "aborted", "abort_rate"]))
    by = {(r.x, r.series): r.run for r in rows}
    for app in ("tpcc", "freehealth", "smallbank"):
        obladi = by[(app, "obladi")]
        nopriv = by[(app, "nopriv")]
        assert obladi.committed > 0
        # Obladi pays for obliviousness but stays within two orders of magnitude.
        assert nopriv.throughput_tps > obladi.throughput_tps
        assert nopriv.throughput_tps / max(obladi.throughput_tps, 1e-9) < 150


def test_fig9_smoke(benchmark):
    """Minimal-scale sanity pass over all three engines (the CI smoke target).

    Runs SmallBank through Obladi, NoPriv and the MySQL-like engine at the
    smallest useful scale so ``scripts/ci.sh`` can catch end-to-end
    regressions in seconds rather than re-rendering the full figure.
    """
    rows = run_once(benchmark, lambda: run_end_to_end(
        applications=("smallbank",), systems=("obladi", "nopriv", "mysql"),
        transactions=24, clients=8, scale=0.01))
    by = {r.series: r.run for r in rows}
    assert set(by) == {"obladi", "nopriv", "mysql"}
    for run in by.values():
        assert run.committed > 0
    assert by["nopriv"].throughput_tps > by["obladi"].throughput_tps


def test_fig9b_latency(benchmark, fig9_sweep):
    rows = run_once(benchmark, fig9_sweep)
    print()
    print(render_table(rows, title="Figure 9b — mean transaction latency (simulated ms)",
                       columns=["x", "series", "average_latency_ms"]))
    by = {(r.x, r.series): r.run for r in rows}
    for app in ("tpcc", "freehealth", "smallbank"):
        assert (by[(app, "obladi")].average_latency_ms
                > by[(app, "nopriv")].average_latency_ms)
        # Latency stays in the hundreds of milliseconds even on the WAN.
        assert by[(app, "obladi_wan")].average_latency_ms < 5000
