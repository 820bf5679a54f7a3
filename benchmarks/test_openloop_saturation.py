"""Open-loop saturation sweep: offered load vs latency and throughput.

The closed-loop benchmarks measure "N clients in lockstep"; this one
measures *offered load* — the axis the paper's Figure 9 latency/throughput
trade-off is actually about.  Seeded-Poisson arrivals are offered to each
engine at multiples of its measured closed-loop ceiling
(:func:`repro.harness.experiments.run_saturation_sweep`), and four claims
are pinned:

* **Below the knee latency is flat-ish.**  At a genuinely sparse offered
  rate (5% of the ceiling — arrivals usually find the system idle) the
  queue-inclusive open-loop latency stays within 1.5x of the closed-loop
  latency.
* **Past the knee latency grows monotonically.**  Offering 2x and then 4x
  the ceiling only deepens the admission queue: mean queue-inclusive
  latency strictly increases along the sweep.
* **Achieved throughput plateaus at the closed-loop ceiling.**  Offered
  load past the knee cannot buy throughput: the achieved rate at 2x and 4x
  stays at the same plateau (within 5% of each other), never meaningfully
  above the ceiling.
* **A fixed arrival seed is fully reproducible.**  Two runs at the same
  ``arrival_seed`` produce byte-identical ``RunStats`` (``repr`` equality —
  every latency sample, queue delay and counter).
"""

import pytest

from repro.harness.experiments import run_saturation_sweep

from .conftest import run_once

BELOW_KNEE = 0.05
PAST_KNEE = (2.0, 4.0)
MULTIPLIERS = (BELOW_KNEE, 0.5) + PAST_KNEE


def _print_rows(rows):
    print()
    print(f"  {'engine':8s} {'offered':>10s} {'achieved':>10s} {'ceiling':>10s} "
          f"{'mean lat':>9s} {'p95 lat':>9s} {'queue':>8s} {'maxq':>5s} {'drop':>5s}")
    for row in rows:
        run = row.run
        print(f"  {row.series:8s} {run.offered_tps:10.1f} {run.achieved_tps:10.1f} "
              f"{row.ceiling.throughput_tps:10.1f} {run.average_total_latency_ms:9.2f} "
              f"{run.p95_total_latency_ms:9.2f} {run.average_queue_delay_ms:8.2f} "
              f"{run.max_queue_depth:5d} {run.dropped:5d}")


def test_openloop_saturation_knee(benchmark, bench_scale):
    """Latency knee + throughput plateau, per engine, on one sweep."""
    transactions = max(64, bench_scale["transactions"] // 2)

    rows = run_once(benchmark, lambda: run_saturation_sweep(
        kinds=("obladi", "nopriv"), rate_multipliers=MULTIPLIERS,
        transactions=transactions, clients=16))
    _print_rows(rows)

    for kind in ("obladi", "nopriv"):
        points = {row.x: row for row in rows if row.series == kind}
        assert set(points) == set(MULTIPLIERS)
        by_mult = {m: row.run for m, row in points.items()}
        closed_loop = points[BELOW_KNEE].ceiling
        ceiling = closed_loop.throughput_tps
        assert ceiling > 0

        # Below the knee: open-loop latency within 1.5x of closed loop.
        below = by_mult[BELOW_KNEE]
        assert below.average_total_latency_ms <= 1.5 * closed_loop.average_latency_ms, (
            f"{kind}: below-knee latency {below.average_total_latency_ms:.2f} ms "
            f"vs closed-loop {closed_loop.average_latency_ms:.2f} ms")
        assert below.dropped == 0

        # Monotone latency growth along the sweep and past the knee.
        latencies = [by_mult[m].average_total_latency_ms for m in MULTIPLIERS]
        assert latencies == sorted(latencies), f"{kind}: {latencies}"
        assert (by_mult[PAST_KNEE[1]].average_total_latency_ms
                > by_mult[PAST_KNEE[0]].average_total_latency_ms), kind
        assert (by_mult[PAST_KNEE[0]].average_queue_delay_ms
                < by_mult[PAST_KNEE[1]].average_queue_delay_ms), kind

        # Achieved throughput plateaus at the closed-loop ceiling.
        plateau = [by_mult[m].achieved_tps for m in PAST_KNEE]
        for achieved in plateau:
            assert achieved <= 1.10 * ceiling, f"{kind}: {achieved} vs {ceiling}"
            assert achieved >= 0.70 * ceiling, f"{kind}: {achieved} vs {ceiling}"
        assert plateau[1] <= 1.05 * plateau[0], f"{kind}: no plateau {plateau}"
        assert plateau[1] >= 0.95 * plateau[0], f"{kind}: no plateau {plateau}"
        # ... while the *configured* offered rate genuinely doubled (the
        # measured offered_tps is service-bound once a backlog forms, so it
        # plateaus right alongside the achieved rate).
        assert (points[PAST_KNEE[1]].target_rate_tps
                == pytest.approx(2 * points[PAST_KNEE[0]].target_rate_tps)), kind
        assert points[PAST_KNEE[1]].target_rate_tps > ceiling


def test_openloop_fixed_seed_is_byte_identical(benchmark):
    """Two sweeps at the same ``arrival_seed`` agree sample-for-sample."""

    def pair():
        kwargs = dict(kinds=("obladi",), rate_multipliers=(2.0,),
                      transactions=64, clients=16, arrival_seed=23)
        return run_saturation_sweep(**kwargs), run_saturation_sweep(**kwargs)

    first, second = run_once(benchmark, pair)
    assert repr(first) == repr(second)
    print(f"\n  byte-identical across runs: {len(first)} row(s), "
          f"achieved {first[0].run.achieved_tps:.1f} txn/s")
