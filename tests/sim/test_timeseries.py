"""Edge-case tests for TimeSeries.time_average (monitor satellite fix).

Pre-fix, ``time_average(until=t)`` with ``t`` at or before the first
sample returned the *last sample's value* (a nonsense answer for an
empty window) because the zero/negative span fell through to a
single-sample shortcut. It must return 0.0.
"""

import pytest

from repro.sim.monitor import TimeSeries


def _series(*samples):
    ts = TimeSeries()
    for t, v in samples:
        ts.record(t, v)
    return ts


def test_empty_series_averages_zero():
    assert TimeSeries().time_average() == 0.0
    assert TimeSeries().time_average(until=5.0) == 0.0


def test_until_before_first_sample_is_zero():
    ts = _series((10.0, 42.0), (20.0, 7.0))
    # The regression: this used to return 7.0 (the last value).
    assert ts.time_average(until=5.0) == 0.0
    assert ts.time_average(until=10.0) == 0.0  # zero-width window


def test_single_sample_zero_span_is_zero():
    ts = _series((3.0, 99.0))
    assert ts.time_average() == 0.0            # until defaults to t0
    assert ts.time_average(until=3.0) == 0.0
    assert ts.time_average(until=1.0) == 0.0


def test_single_sample_extends_to_until():
    ts = _series((3.0, 99.0))
    assert ts.time_average(until=5.0) == pytest.approx(99.0)


def test_step_function_average():
    ts = _series((0.0, 1.0), (1.0, 3.0), (3.0, 0.0))
    # [0,1): 1, [1,3): 3 -> (1*1 + 3*2) / 3
    assert ts.time_average() == pytest.approx(7.0 / 3.0)


def test_until_clips_partial_interval():
    ts = _series((0.0, 2.0), (4.0, 10.0))
    # [0,2) of value 2 -> 4/2 = 2.0; the 10.0 sample is untouched.
    assert ts.time_average(until=2.0) == pytest.approx(2.0)
    # [0,5): 2*4 + 10*1 = 18 over 5.
    assert ts.time_average(until=5.0) == pytest.approx(18.0 / 5.0)


def test_until_before_last_sample_ignores_later_samples():
    ts = _series((0.0, 1.0), (1.0, 100.0), (2.0, 1000.0))
    assert ts.time_average(until=1.0) == pytest.approx(1.0)
    assert ts.time_average(until=1.5) == pytest.approx(
        (1.0 * 1.0 + 100.0 * 0.5) / 1.5)


# ---------------------------------------------------------------------------
# Bounded retention (ISSUE 9 satellite): long runs must not grow the
# raw sample list unboundedly, while whole-run aggregates stay exact.
# ---------------------------------------------------------------------------


def test_long_run_stays_under_sample_cap():
    ts = TimeSeries(max_samples=128)
    for i in range(100_000):
        ts.record(i * 0.001, float(i % 17))
    assert len(ts.samples) <= 128
    assert len(ts.rolled) <= TimeSeries.ROLLED_LIMIT
    # The newest sample and the peak are exact over the whole run.
    assert ts.samples[-1][1] == float(99_999 % 17)
    assert ts.peak == 16.0


def test_time_average_exact_after_compaction():
    """Compaction must not change time_average for the full window."""
    bounded = TimeSeries(max_samples=64)
    unbounded = TimeSeries(max_samples=0)
    import random
    rng = random.Random(7)
    t = 0.0
    for _ in range(5_000):
        t += rng.random()
        v = rng.uniform(-5.0, 50.0)
        bounded.record(t, v)
        unbounded.record(t, v)
    assert len(bounded.samples) <= 64
    assert len(unbounded.samples) == 5_000
    assert bounded.time_average() == pytest.approx(
        unbounded.time_average(), rel=1e-12)
    # Clipping inside the retained raw tail is exact too.
    until = bounded.samples[0][0] + 0.5
    assert bounded.time_average(until=until) == pytest.approx(
        unbounded.time_average(until=until), rel=1e-12)
    assert bounded.peak == unbounded.peak
    assert bounded.samples[-1] == unbounded.samples[-1]


def test_default_cap_applies():
    ts = TimeSeries()
    assert ts.max_samples == TimeSeries.DEFAULT_MAX_SAMPLES
    assert TimeSeries(max_samples=0).max_samples == 0


def test_ring_overflow_folds_into_base():
    """Beyond ROLLED_LIMIT windows the oldest fold into the base
    accumulator; time_average over the whole run stays exact."""
    ts = TimeSeries(max_samples=4)
    ref = TimeSeries(max_samples=0)
    n = 4 * (TimeSeries.ROLLED_LIMIT + 50)
    for i in range(n):
        ts.record(float(i), float(i % 3))
        ref.record(float(i), float(i % 3))
    assert len(ts.rolled) <= TimeSeries.ROLLED_LIMIT
    assert ts.time_average() == pytest.approx(ref.time_average(),
                                              rel=1e-12)
    assert ts.first_time == 0.0


def test_record_out_of_order_still_raises_after_compaction():
    ts = TimeSeries(max_samples=8)
    for i in range(100):
        ts.record(float(i), 1.0)
    with pytest.raises(ValueError):
        ts.record(0.0, 1.0)
