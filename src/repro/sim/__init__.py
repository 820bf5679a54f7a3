"""Simulated-time substrate.

The Obladi paper evaluates a Java prototype over real EC2 networks; the
throughput and latency numbers it reports are dominated by storage round-trip
times and by how many physical requests can be in flight concurrently.  This
package provides the discrete-event machinery the reproduction uses instead of
real networks:

* :mod:`repro.sim.clock` — a simulated clock, advanced explicitly.
* :mod:`repro.sim.latency` — latency/cost models for the four storage
  backends of the evaluation (``dummy``, ``server``, ``server_wan``,
  ``dynamo``) plus calibrated CPU cost constants.
* :mod:`repro.sim.scheduler` — a small parallel-schedule solver: given a set
  of operations with durations, dependencies and a parallelism cap, it
  computes the simulated makespan (critical-path length under limited
  resources), and :class:`~repro.sim.scheduler.LaneStats`, the lane
  schedule of independent durations.
"""

from repro.sim.clock import SimClock
from repro.sim.latency import LatencyModel, CpuCostModel, BACKENDS, get_latency_model
from repro.sim.scheduler import LaneStats, ParallelScheduler, ScheduledOp

__all__ = [
    "SimClock",
    "LatencyModel",
    "CpuCostModel",
    "BACKENDS",
    "get_latency_model",
    "LaneStats",
    "ParallelScheduler",
    "ScheduledOp",
]
