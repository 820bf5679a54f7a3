"""Table 11b: durability slowdown and recovery-time breakdown vs ORAM size.

The paper reports, for 10K/100K/1M objects on the WAN backend: a normal-case
slowdown of 0.83x-0.89x from durability, total recovery times growing from
about 1.5 s to 6.1 s, position/permutation map costs growing with the number
of keys, and path-replay costs growing only with the tree depth.
"""

from repro.harness.experiments import run_recovery_table
from repro.harness.report import render_table

from .conftest import run_once


def test_tab11b_recovery(benchmark, bench_scale):
    sizes = bench_scale["recovery_sizes"]
    rows = run_once(benchmark, lambda: run_recovery_table(
        sizes=sizes,
        backend="server_wan",
        transactions=max(32, bench_scale["transactions"] // 4),
        clients=max(8, bench_scale["clients"] // 4),
    ))
    print()
    print(render_table(rows, title="Table 11b — recovery breakdown (simulated ms, WAN)",
                       columns=["num_objects", "tree_levels", "durability_slowdown",
                                "recovery.total_ms", "recovery.network_ms",
                                "recovery.position_ms", "recovery.permutation_ms",
                                "recovery.paths_ms"]))
    ordered = sorted(rows, key=lambda r: r.num_objects)
    for row in ordered:
        # Durability costs some throughput but far from all of it.
        assert 0.3 < row.durability_slowdown <= 1.1
        assert row.recovery.total_ms > 0
    # Metadata-decryption costs grow with the number of objects; recovery
    # time therefore grows with ORAM size.
    first, last = ordered[0].recovery, ordered[-1].recovery
    assert last.position_ms >= first.position_ms
    assert last.permutation_ms >= first.permutation_ms
    assert last.total_ms >= first.total_ms
    # The larger ORAM has at least as many tree levels.
    assert ordered[-1].tree_levels >= ordered[0].tree_levels
