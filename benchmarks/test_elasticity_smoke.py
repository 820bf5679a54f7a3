"""Elastic topologies under a flash crowd: autoscaled vs static.

A bounded admission queue in front of a bottom-rung topology sheds a flash
crowd as drops; the autoscaling control loop (:mod:`repro.elasticity`) sees
the same pressure, live-reshards up its ladder — an oblivious migration
window followed by an epoch-barrier cutover — and serves the remainder of
the spike at the larger topology.

This benchmark runs :func:`repro.harness.experiments.run_elasticity_comparison`
— the identical seeded flash-crowd arrival stream offered twice — and pins
the PR's acceptance bar:

* **The autoscaled engine drops strictly fewer arrivals** than the static
  bottom-rung engine, and sustains at least its achieved throughput.
* **Every row's history is serializable** — both runs carry the streaming
  auditor across their migration windows (``audit_ok``).
* **The control loop actually actuated** — at least one scale-up decision
  and one completed oblivious migration window.
"""

from repro.harness.experiments import run_elasticity_comparison

from .conftest import run_once


def _print_rows(rows):
    print()
    print(f"  {'mode':10s} {'offered':>7s} {'dropped':>7s} {'committed':>9s} "
          f"{'tps':>7s} {'lat_ms':>7s} {'reshards':>8s} {'topology':>10s} "
          f"{'audit':>5s}")
    for row in rows:
        run = row.run
        print(f"  {row.mode:10s} {run.offered:7d} {run.dropped:7d} "
              f"{run.committed:9d} {run.achieved_tps:7.1f} "
              f"{run.average_total_latency_ms:7.1f} {len(run.migrations):8d} "
              f"{str(row.final_topology):>10s} {str(run.audit.ok):>5s}")


def test_autoscaler_beats_static_under_flash_crowd(benchmark, bench_scale):
    """Autoscaled drops strictly fewer and achieves >= static tps.

    The spike must outlast the controller's reaction (patience waves) plus
    the migration window for the larger rung to pay off — shorter spikes
    are exactly the regime where autoscaling cannot help, so the floor here
    keeps the run inside the claim's domain (longer only widens the gap).
    """
    transactions = max(900, 3 * bench_scale["transactions"])

    rows = run_once(
        benchmark, lambda: run_elasticity_comparison(transactions=transactions))
    _print_rows(rows)

    by_mode = {row.mode: row for row in rows}
    assert set(by_mode) == {"static", "autoscaled"}
    static = by_mode["static"]
    autoscaled = by_mode["autoscaled"]

    # Both runs were offered the identical arrival stream.
    assert static.run.offered == autoscaled.run.offered

    # The headline claims: strictly fewer drops, no throughput sacrifice.
    assert autoscaled.run.dropped < static.run.dropped, (
        f"autoscaled dropped {autoscaled.run.dropped} >= static {static.run.dropped}")
    assert autoscaled.run.achieved_tps >= static.run.achieved_tps, (
        f"autoscaled {autoscaled.run.achieved_tps:.1f} tps "
        f"< static {static.run.achieved_tps:.1f} tps")

    # ... earned by actually resharding, not by luck.
    assert autoscaled.decisions("scale_up") >= 1
    assert len(autoscaled.run.migrations) >= 1
    assert len(static.run.migrations) == 0 and static.decisions("scale_up") == 0
    assert static.final_topology == (1, 1, 1)

    # Every row's history passed the streaming auditor, migration included.
    assert all(row.run.audit.ok for row in rows)
