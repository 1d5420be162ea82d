"""Unit tests for Monitor/TimeSeries and the RNG streams."""

import numpy as np
import pytest

from repro.sim import Monitor, Simulator, TimeSeries, rng_stream, spawn_seed


def test_timeseries_peak_and_last():
    ts = TimeSeries()
    ts.record(0.0, 5.0)
    ts.record(1.0, 10.0)
    ts.record(2.0, 3.0)
    assert ts.peak == 10.0
    assert ts.last == 3.0
    assert ts.minimum == 3.0


def test_timeseries_rejects_out_of_order():
    ts = TimeSeries()
    ts.record(5.0, 1.0)
    with pytest.raises(ValueError):
        ts.record(4.0, 1.0)


def test_timeseries_time_average_step_function():
    ts = TimeSeries()
    ts.record(0.0, 0.0)
    ts.record(1.0, 10.0)  # value 0 for [0,1), 10 for [1,2)
    assert ts.time_average(until=2.0) == pytest.approx(5.0)


def test_gauge_tracks_peak_through_adds():
    sim = Simulator()
    mon = Monitor(sim)
    g = mon.gauge("node0.dram")
    g.add(100)
    g.add(50)
    g.sub(120)
    assert g.value == 30
    assert g.peak == 150


def test_monitor_counters_and_summary():
    sim = Simulator()
    mon = Monitor(sim)
    mon.count("faults")
    mon.count("faults")
    mon.count("bytes", 4096)
    g = mon.gauge("mem")
    g.set(7)
    s = mon.summary()
    assert s["faults"] == 2
    assert s["bytes"] == 4096
    assert s["mem.peak"] == 7


def test_monitor_gauge_is_memoized():
    sim = Simulator()
    mon = Monitor(sim)
    assert mon.gauge("a") is mon.gauge("a")


def test_spawn_seed_deterministic_and_distinct():
    s1 = spawn_seed(42, "node", 0)
    s2 = spawn_seed(42, "node", 0)
    s3 = spawn_seed(42, "node", 1)
    s4 = spawn_seed(43, "node", 0)
    assert s1 == s2
    assert len({s1, s3, s4}) == 3


def test_rng_stream_reproducible():
    a = rng_stream(7, "data").normal(size=10)
    b = rng_stream(7, "data").normal(size=10)
    assert np.array_equal(a, b)


def test_rng_stream_independent_keys():
    a = rng_stream(7, "x").normal(size=10)
    b = rng_stream(7, "y").normal(size=10)
    assert not np.array_equal(a, b)


def test_spawn_seed_handles_bytes_keys():
    assert spawn_seed(1, b"raw") == spawn_seed(1, b"raw")
    assert spawn_seed(1, b"raw") != spawn_seed(1, "raw")
