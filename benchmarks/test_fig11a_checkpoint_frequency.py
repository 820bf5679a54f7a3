"""Figure 11a: throughput as a function of checkpoint frequency.

Durability requires checkpointing proxy metadata every epoch; writing full
checkpoints every epoch is expensive, so Obladi writes deltas and only
periodically a full checkpoint.  The paper sweeps the full-checkpoint
frequency from 1 to 256 epochs and shows that computing diffs recovers most
of the lost throughput.
"""

from repro.harness.experiments import run_checkpoint_frequency
from repro.harness.report import render_table

from .conftest import run_once


FREQUENCIES = (1, 4, 16, 64)


def test_fig11a_checkpoint_frequency(benchmark, bench_scale):
    rows = run_once(benchmark, lambda: run_checkpoint_frequency(
        frequencies=FREQUENCIES,
        backends=("server", "server_wan", "dynamo"),
        num_records=max(2000, bench_scale["oram_objects"] // 10),
        transactions=max(48, bench_scale["transactions"] // 3),
        clients=max(8, bench_scale["clients"] // 3),
    ))
    print()
    print(render_table(rows, title="Figure 11a — throughput vs full-checkpoint frequency "
                                   "(series: backend, x: epochs; txn/s, simulated)",
                       columns=["series", "x", "throughput_tps"]))
    for backend in ("server", "server_wan", "dynamo"):
        series = sorted((r for r in rows if r.series == backend), key=lambda r: r.x)
        # Checkpointing in full every epoch is the most expensive setting;
        # delta checkpoints (higher frequency values) never do worse.
        assert series[-1].run.throughput_tps >= series[0].run.throughput_tps * 0.95
