"""Time-varying arrival processes for elasticity experiments.

The open-loop driver (:func:`repro.api.openloop.run_open_loop`) accepts any
:class:`~repro.api.openloop.ArrivalProcess`; the stationary ones live there.
This module adds the non-stationary shape the autoscaling evaluation
exercises: :class:`FlashCrowdArrivals`, a piecewise-constant base rate with
one rectangular spike (a flash crowd) at a known offset.

It draws exponential gaps at the instantaneous rate (a rate-modulated
renewal process — the standard simulation shorthand for a non-homogeneous
Poisson stream, exact in the piecewise-constant case away from the
boundaries).  It is frozen and restartable: every ``intervals()`` call
re-seeds its own generator, so two engines fed the same process object see
identical arrival times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.api.openloop import ArrivalProcess

__all__ = ["FlashCrowdArrivals"]


@dataclass(frozen=True)
class FlashCrowdArrivals(ArrivalProcess):
    """A steady base rate with one rectangular flash-crowd spike.

    Arrivals run at ``base_tps`` except during
    ``[spike_start_ms, spike_start_ms + spike_duration_ms)``, where they run
    at ``spike_tps``.

    >>> process = FlashCrowdArrivals(base_tps=5.0, spike_tps=80.0,
    ...                              spike_start_ms=1000.0,
    ...                              spike_duration_ms=500.0)
    >>> process.rate_at(0.0), process.rate_at(1200.0), process.rate_at(2000.0)
    (5.0, 80.0, 5.0)
    """

    base_tps: float
    spike_tps: float
    spike_start_ms: float
    spike_duration_ms: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.base_tps > 0 or not self.spike_tps > 0:
            raise ValueError("arrival rates must be positive")
        if self.spike_start_ms < 0 or self.spike_duration_ms < 0:
            raise ValueError("the spike window cannot be negative")

    def rate_at(self, now_ms: float) -> float:
        """Instantaneous arrival rate (tps) at ``now_ms``."""
        in_spike = (self.spike_start_ms <= now_ms
                    < self.spike_start_ms + self.spike_duration_ms)
        return self.spike_tps if in_spike else self.base_tps

    def intervals(self) -> Iterator[float]:
        """Exponential gaps at the instantaneous rate (restartable)."""
        rng = random.Random(self.seed)
        now_ms = 0.0
        while True:
            gap = rng.expovariate(self.rate_at(now_ms) / 1000.0)
            now_ms += gap
            yield gap
