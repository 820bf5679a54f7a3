#!/usr/bin/env python3
"""Drive Obladi with offered load and find its saturation knee.

The other examples measure "N clients in lockstep" (a closed loop).  This
one asks the question a capacity planner asks: *what happens as the arrival
rate approaches and passes what the system can serve?*  Transactions arrive
according to a seeded Poisson process (``repro.api.PoissonArrivals``), wait
in a bounded admission queue, and are dispatched in epoch-sized waves by the
open-loop driver (``engine.run_open_loop``), which measures queueing delay
separately from service latency.

The sweep offers load at multiples of the measured closed-loop ceiling and
prints the classic saturation curve: flat-ish latency below the knee, a
throughput plateau at the ceiling, and queue-driven latency growth past it.

Run it with::

    python examples/openloop_saturation.py
"""

from repro.harness.experiments import run_saturation_sweep
from repro.harness.report import print_table

MULTIPLIERS = (0.05, 0.25, 0.5, 1.0, 2.0, 4.0)


def main() -> None:
    rows = run_saturation_sweep(kinds=("obladi", "nopriv"),
                                rate_multipliers=MULTIPLIERS,
                                transactions=96, clients=16)

    print_table(rows,
                title="Open-loop saturation sweep (Poisson arrivals, simulated time)",
                columns=["engine", "x", "target_rate_tps",
                         "achieved_tps", "average_total_latency_ms",
                         "p95_total_latency_ms", "average_queue_delay_ms",
                         "max_queue_depth", "dropped"])

    for kind in ("obladi", "nopriv"):
        ceiling = next(r.ceiling.throughput_tps for r in rows if r.series == kind)
        past = [r for r in rows if r.series == kind and r.x > 1]
        plateau = max(r.run.achieved_tps for r in past)
        print(f"\n{kind}: closed-loop ceiling {ceiling:.0f} txn/s; "
              f"past-knee plateau {plateau:.0f} txn/s "
              f"({plateau / ceiling:.0%} of ceiling); "
              f"queueing delay grows {past[0].run.average_queue_delay_ms:.1f} -> "
              f"{past[-1].run.average_queue_delay_ms:.1f} ms from "
              f"{past[0].x:g}x to {past[-1].x:g}x")


if __name__ == "__main__":
    main()
