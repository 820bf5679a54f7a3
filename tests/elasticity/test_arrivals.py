"""Unit tests for the flash-crowd arrival process."""

from itertools import islice

import pytest

from repro.elasticity import FlashCrowdArrivals


def _crowd(**overrides):
    fields = dict(base_tps=5.0, spike_tps=500.0, spike_start_ms=2_000.0,
                  spike_duration_ms=1_000.0, seed=3)
    fields.update(overrides)
    return FlashCrowdArrivals(**fields)


def _arrival_times(process, count):
    times, now_ms = [], 0.0
    for gap in islice(process.intervals(), count):
        now_ms += gap
        times.append(now_ms)
    return times


def test_intervals_restart_from_the_seed():
    process = _crowd()
    assert list(islice(process.intervals(), 50)) == \
        list(islice(process.intervals(), 50))
    assert list(islice(process.intervals(), 50)) != \
        list(islice(_crowd(seed=4).intervals(), 50))


def test_arrivals_bunch_inside_the_spike():
    times = _arrival_times(_crowd(), 600)
    assert times[-1] > 3_000.0
    in_spike = sum(2_000.0 <= t < 3_000.0 for t in times)
    before = sum(t < 2_000.0 for t in times)
    # 500 tps for 1 s against 5 tps for 2 s: hundreds against a handful.
    assert in_spike > 300
    assert before < 30


@pytest.mark.parametrize("overrides", [
    {"base_tps": 0.0},
    {"spike_tps": -1.0},
    {"spike_start_ms": -1.0},
    {"spike_duration_ms": -1.0},
])
def test_invalid_shapes_are_rejected(overrides):
    with pytest.raises(ValueError):
        _crowd(**overrides)
