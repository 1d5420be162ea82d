"""Windowed time-series engine (repro.obs.live): exact windowed
quantiles over the registry, scrape-at-tick rollups, bounded
retention, ticker integration."""

import numpy as np
import pytest

from repro.obs.live import LiveObs, WindowStats, WindowedStore
from repro.sim import Monitor, Simulator


def test_window_stats():
    ws = WindowStats(0.0, 1.0, [3.0, 1.0, 2.0])
    assert ws.count == 3
    assert ws.values == [1.0, 2.0, 3.0]
    assert ws.mean == pytest.approx(2.0)


# -- WindowedStore ---------------------------------------------------------

def _store(window=1.0, retention=4):
    sim = Simulator()
    mon = Monitor(sim)
    return sim, mon, WindowedStore(mon, window=window,
                                   retention=retention)


def test_counter_deltas_per_window():
    sim, mon, store = _store()
    mon.count("faults", 3)
    mon.metrics.counter("reads", node=0).inc(10)
    sim._now = 1.0
    store.tick(1.0)
    mon.count("faults", 2)
    sim._now = 2.0
    store.tick(2.0)
    assert store.delta("faults") == 5.0
    assert store.delta("faults", window_s=1.0) == 2.0
    assert store.delta("reads", labels={"node": 0}) == 10.0
    assert store.rate("faults", window_s=1.0) == pytest.approx(2.0)


def test_selector_matches_label_subsets():
    """Labels asked for select every series that carries them: a
    counter named without its labels is the sum over its label sets,
    not "nothing happened" (it was, while matching was exact)."""
    sim, mon, store = _store()
    mon.count("hermes.gets", 5, node=0, tier="dram")
    mon.count("hermes.gets", 2, node=1, tier="nvme")
    for node, depth in ((0, 3.0), (1, 4.0)):
        mon.gauge("rt_backlog", node=node).set(depth)
        mon.metrics.histogram("lat", node=node).observe(float(node))
    sim._now = 1.0
    store.tick(1.0)
    assert store.delta("hermes.gets") == 7.0
    assert store.delta("hermes.gets", {"node": 0}) == 5.0
    assert store.delta("hermes.gets", {"tier": "nvme"}) == 2.0
    assert store.delta("hermes.gets", {"node": 0, "tier": "dram"}) == 5.0
    assert store.delta("hermes.gets", {"node": 2}) == 0.0
    assert store.rate("hermes.gets", window_s=1.0) == pytest.approx(7.0)
    assert store.gauge_last("rt_backlog") == 7.0
    assert store.gauge_last("rt_backlog", {"node": 1}) == 4.0
    merged = store.window_stats("lat")
    assert merged.values == [0.0, 1.0]
    assert store.window_stats("lat", {"node": 1}).count == 1


def test_gauge_point_samples_and_series():
    sim, mon, store = _store()
    g = mon.gauge("backlog")
    g.set(4.0)
    sim._now = 1.0
    store.tick(1.0)
    assert store.gauge_last("backlog") == 4.0
    g.set(7.0)
    sim._now = 2.0
    store.tick(2.0)
    assert store.gauge_last("backlog") == 7.0
    assert list(store.gauges[("backlog", ())]) == [(0.0, 1.0, 4.0),
                                                  (1.0, 2.0, 7.0)]
    assert store.gauge_last("missing") is None


def test_histogram_windows_and_quantiles():
    sim, mon, store = _store()
    h = mon.metrics.histogram("lat", tenant="a")
    for v in (1.0, 2.0, 3.0):
        h.observe(v)
    sim._now = 1.0
    store.tick(1.0)
    for v in (10.0, 20.0):
        h.observe(v)
    sim._now = 2.0
    store.tick(2.0)
    labels = {"tenant": "a"}
    assert store.window_stats("lat", labels).count == 5
    assert store.window_stats("lat", labels, window_s=1.0).count == 2
    frac, n = store.frac_above("lat", 5.0, labels)
    assert n == 5 and frac == pytest.approx(2 / 5)
    assert store.quantile("lat", 99, labels) == 20.0


def test_retention_bounds_ring():
    sim, mon, store = _store(retention=4)
    for i in range(20):
        mon.count("c", 1)
        mon.gauge("g").set(float(i))
        sim._now = float(i + 1)
        store.tick(sim._now)
    assert len(store.counters[("c", ())]) == 4
    assert len(store.gauges[("g", ())]) == 4
    # Only the retained windows contribute.
    assert store.delta("c") == 4.0


def test_windowed_quantiles_are_exact_over_large_windows():
    """Windows of thousands of observations answer ``quantile`` and
    ``frac_above`` with NumPy's nearest rank over the raw observations
    the retained windows hold — nothing is compacted."""
    sim, mon, store = _store(retention=3)
    h = mon.metrics.histogram("lat", node=0)
    rng = np.random.default_rng(5)
    for i in range(4):                    # the first window ages out
        for v in rng.lognormal(-6.0, 1.0, 1500 + 100 * i):
            h.observe(float(v))
        sim._now = float(i + 1)
        store.tick(sim._now)
    held = np.array(h.observations[1500:])
    assert store.window_stats("lat").count == len(held) == 5100
    for q in (1, 50, 90, 99, 99.9, 100):
        assert store.quantile("lat", q) == np.percentile(
            held, q, method="inverted_cdf")
    for cut in (np.median(held), np.percentile(held, 99)):
        frac, n = store.frac_above("lat", float(cut))
        assert n == len(held)
        assert frac == np.count_nonzero(held > cut) / len(held)
    last = np.array(h.observations[-1800:])
    assert store.quantile("lat", 99, window_s=1.0) == np.percentile(
        last, 99, method="inverted_cdf")


def test_trace_durations_scraped():
    """Span durations are the ``span_seconds{category}`` histograms of
    the run's registry; the store windows them like any other."""
    from repro.sim.trace import Tracer
    sim = Simulator()
    mon = Monitor(sim)
    tracer = Tracer(sim, enabled=True, metrics=mon.metrics)
    store = WindowedStore(mon, window=1.0, retention=8)
    tracer.record("op", "pcache", 0, 0.0, 0.25)
    tracer.record("op", "pcache", 0, 0.0, 0.5, tenant="a")
    tracer.record("op", "net", 0, 0.0, 0.125)
    sim._now = 1.0
    store.tick(1.0)
    stats = store.window_stats("span_seconds", {"category": "pcache"})
    assert stats.count == 2 and stats.values[-1] == 0.5
    assert store.window_stats("span_seconds").count == 3
    assert set(store.histograms) == {
        ("span_seconds", (("category", "pcache"),)),
        ("span_seconds", (("category", "net"),))}


# -- LiveObs ticker --------------------------------------------------------

def test_ticker_scrapes_on_sim_time():
    sim = Simulator()
    mon = Monitor(sim)
    obs = LiveObs(sim, mon, window=0.5, retention=16).install()

    def work():
        for _ in range(4):
            mon.count("ops", 10)
            yield sim.timeout(1.0)

    proc = sim.process(work(), name="work")
    sim.run(until=proc)
    assert obs.ticks >= 7
    assert obs.store.delta("ops") == pytest.approx(40.0)
    seen = [e for e in obs.on_tick]  # callbacks list exists
    assert seen == []


def test_on_tick_callback():
    sim = Simulator()
    mon = Monitor(sim)
    obs = LiveObs(sim, mon, window=1.0, retention=8).install()
    ticks = []
    obs.on_tick.append(lambda o, now: ticks.append(now))

    def work():
        yield sim.timeout(3.0)

    sim.run(until=sim.process(work(), name="work"))
    # The t=3.0 tick races the until-event (same timestamp, later
    # seq), so only the strictly earlier ticks are guaranteed.
    assert ticks[:2] == [1.0, 2.0]
