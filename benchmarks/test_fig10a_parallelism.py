"""Figure 10a: sequential vs parallel ORAM throughput per storage backend.

The paper's observations: parallelising Ring ORAM *hurts* on the CPU-bound
``dummy`` backend (about 3x slower), while the speedup grows with storage
latency — 12x on the LAN server, 51x on DynamoDB, 510x on the WAN server for
a batch of 500 operations.
"""

from repro.harness.experiments import run_parallelism
from repro.harness.report import render_table

from .conftest import run_once


def test_fig10a_parallelism(benchmark, bench_scale):
    rows = run_once(benchmark, lambda: run_parallelism(
        backends=("dummy", "server", "server_wan", "dynamo"),
        batch_size=bench_scale["batch_operations"],
        operations=bench_scale["batch_operations"],
        num_blocks=bench_scale["oram_objects"],
    ))
    print()
    print(render_table(rows, title="Figure 10a — ORAM throughput (ops/s, simulated), "
                                   f"batch size {bench_scale['batch_operations']}",
                       columns=["backend", "mode", "throughput_ops_per_s", "elapsed_ms"]))

    by = {(r.backend, r.mode): r.throughput_ops_per_s for r in rows}
    # Parallelism is a loss on the zero-latency backend...
    assert by[("dummy", "parallel_crypto")] < by[("dummy", "sequential")]
    # ...but a large win on every remote backend.
    for backend in ("server", "server_wan", "dynamo"):
        assert by[(backend, "parallel_crypto")] > 10 * by[(backend, "sequential")]
    # The speedup grows with the backend's latency (server < WAN).
    speedup_server = by[("server", "parallel_crypto")] / by[("server", "sequential")]
    speedup_wan = by[("server_wan", "parallel_crypto")] / by[("server_wan", "sequential")]
    assert speedup_wan > speedup_server
