"""A simulated clock.

All performance numbers reported by the reproduction are expressed in
*simulated milliseconds*.  Components that perform work (network round trips,
encryption, dependency tracking) advance the clock explicitly by the cost of
that work.  The clock is deliberately tiny: it is one float, so that every
subsystem can share one instance without coupling.
"""

from __future__ import annotations


class SimClock:
    """Monotonically advancing simulated clock, in milliseconds.

    The clock supports two styles of use:

    * ``advance(delta)`` — move time forward by ``delta`` ms (work performed
      serially on the critical path).
    * ``advance_to(t)`` — move time to an absolute instant if it is later
      than now (used when a parallel schedule reports its makespan).
    """

    def __init__(self, start_ms: float = 0.0) -> None:
        if start_ms < 0:
            raise ValueError("clock cannot start at a negative time")
        self._now_ms = float(start_ms)

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now_ms

    def advance(self, delta_ms: float) -> float:
        """Advance the clock by ``delta_ms`` and return the new time.

        Negative deltas are rejected: simulated time never runs backwards.
        """
        if delta_ms < 0:
            raise ValueError(f"cannot advance clock by negative delta {delta_ms}")
        self._now_ms += delta_ms
        return self._now_ms

    def advance_to(self, t_ms: float) -> float:
        """Advance the clock to the absolute instant ``t_ms`` if it is later.

        Returns the (possibly unchanged) current time.  Advancing to an
        earlier instant is a no-op rather than an error because parallel
        branches may finish before the current critical path.
        """
        if t_ms > self._now_ms:
            self._now_ms = t_ms
        return self._now_ms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now_ms={self._now_ms:.3f})"
