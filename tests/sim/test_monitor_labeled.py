"""Labeled metrics registry + Monitor.summary() edge cases."""

import pytest

from repro.sim import Simulator
from repro.sim.monitor import Monitor
from repro.sim.trace import Tracer


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def monitor(sim):
    return Monitor(sim)


# -- registry semantics -----------------------------------------------------

def test_counter_get_or_create_is_identity(monitor):
    a = monitor.metrics.counter("net.bytes", node=3)
    b = monitor.metrics.counter("net.bytes", node=3)
    assert a is b
    # Label order never matters.
    c = monitor.metrics.counter("x", tier="dram", node=0)
    d = monitor.metrics.counter("x", node=0, tier="dram")
    assert c is d
    # Different labels are different series.
    assert monitor.metrics.counter("net.bytes", node=4) is not a


def test_counter_accumulates(monitor):
    ctr = monitor.metrics.counter("scache.reads", node=1)
    ctr.inc()
    ctr.inc(41.0)
    assert ctr.value == pytest.approx(42.0)


def test_gauge_tracks_peak_and_time_average(sim, monitor):
    g = monitor.metrics.gauge("rt_backlog", node=0)

    def proc():
        g.add(2)
        yield sim.timeout(1.0)
        g.add(2)
        yield sim.timeout(1.0)
        g.sub(3)
        yield sim.timeout(2.0)

    sim.process(proc())
    sim.run()
    assert g.value == pytest.approx(1.0)
    assert g.peak == pytest.approx(4.0)
    # 2 for 1s, 4 for 1s, 1 for 2s over a 4s horizon.
    assert g.time_average() == pytest.approx((2 + 4 + 2) / 4.0)


def test_histogram_single_sample_percentiles_collapse(monitor):
    h = monitor.metrics.histogram("lat", node=0)
    h.observe(0.25)
    assert h.count == 1
    assert h.percentile(50) == h.percentile(95) == h.percentile(99) \
        == pytest.approx(0.25)


# -- Monitor.summary() edge cases ------------------------------------------

def test_summary_disabled_tracer_contributes_no_trace_keys(sim,
                                                           monitor):
    monitor.tracer = Tracer(sim, enabled=False)
    monitor.count("pcache.faults")
    summary = monitor.summary()
    assert not any(k.startswith("trace.") for k in summary)
    assert summary["pcache.faults"] == 1.0


def test_summary_single_sample_trace_percentiles_collapse(sim,
                                                          monitor):
    tr = Tracer(sim, enabled=True)
    monitor.tracer = tr
    tr.record("op", "net", 0, 0.0, 0.5)
    summary = monitor.summary()
    assert summary["trace.net.count"] == 1
    assert summary["trace.net.p50"] == summary["trace.net.p95"] \
        == summary["trace.net.p99"] == pytest.approx(0.5)


def test_summary_sums_labeled_counters_and_skips_labeled_gauges(
        sim, monitor):
    # One store: a labeled counter appears in the summary as the sum
    # over its label sets, a labeled gauge does not appear at all.
    before = set(monitor.summary())
    monitor.metrics.counter("net.bytes", node=0).inc(3)
    monitor.count("net.bytes", 4, node=1)
    monitor.metrics.gauge("rt_backlog", node=0).set(3)
    summary = monitor.summary()
    assert set(summary) == before | {"net.bytes"}
    assert summary["net.bytes"] == 7 == monitor.counter("net.bytes")
