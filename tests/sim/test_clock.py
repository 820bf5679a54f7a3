"""Tests for the simulated clock."""

import pytest

from repro.sim.clock import SimClock


class TestSimClockBasics:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now_ms == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(12.5).now_ms == 12.5

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance_moves_time_forward(self):
        clock = SimClock()
        clock.advance(3.0)
        clock.advance(2.5)
        assert clock.now_ms == pytest.approx(5.5)

    def test_advance_returns_new_time(self):
        clock = SimClock(1.0)
        assert clock.advance(2.0) == pytest.approx(3.0)

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)


class TestAdvanceTo:
    def test_advance_to_later_time(self):
        clock = SimClock(5.0)
        clock.advance_to(9.0)
        assert clock.now_ms == pytest.approx(9.0)

    def test_advance_to_earlier_time_is_noop(self):
        clock = SimClock(5.0)
        clock.advance_to(3.0)
        assert clock.now_ms == pytest.approx(5.0)

    def test_advance_to_same_time_is_noop(self):
        clock = SimClock(5.0)
        clock.advance_to(5.0)
        assert clock.now_ms == pytest.approx(5.0)

