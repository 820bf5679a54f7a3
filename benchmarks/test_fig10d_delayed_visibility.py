"""Figure 10d: delayed visibility (buffering bucket writes until epoch end).

The paper reports that buffering and deduplicating bucket writes for an
epoch of eight batches yields roughly a 1.5x speedup on the server and
DynamoDB backends, 1.6x on the WAN, and only about 1.1x on the local dummy
backend (where writes are nearly free anyway).  The write-back bars are
the ``parallel_crypto`` rows; ``normal`` writes each bucket back at once.
"""

from repro.harness.experiments import run_delayed_visibility
from repro.harness.report import render_table

from .conftest import run_once


def test_fig10d_delayed_visibility(benchmark, bench_scale):
    rows = run_once(benchmark, lambda: run_delayed_visibility(
        backends=("dummy", "server", "server_wan", "dynamo"),
        batch_size=max(100, bench_scale["batch_operations"] // 2),
        batches_per_epoch=8,
        num_blocks=bench_scale["oram_objects"],
    ))
    print()
    print(render_table(rows, title="Figure 10d — write buffering (ops/s, simulated), "
                                   "8 batches per epoch",
                       columns=["backend", "mode", "throughput_ops_per_s"]))
    by = {(r.backend, r.mode): r.throughput_ops_per_s for r in rows}
    for backend in ("server", "server_wan", "dynamo"):
        speedup = by[(backend, "parallel_crypto")] / by[(backend, "normal")]
        assert speedup > 1.2, f"{backend}: {speedup:.2f}"
    # The effect is much smaller (and need not exceed ~1.6x) on dummy storage.
    dummy_speedup = by[("dummy", "parallel_crypto")] / by[("dummy", "normal")]
    assert dummy_speedup >= 1.0
