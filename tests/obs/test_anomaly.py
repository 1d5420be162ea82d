"""Anomaly detectors: EWMA+MAD scoring, one-event-per-episode
semantics, the standard bank's wiring, and the ReallocLoop backoff
consumer."""

import pytest

from repro.obs.anomaly import EwmaMadDetector, standard_detectors
from repro.obs.live import LiveObs
from repro.sim import Monitor, Simulator


def _steady_then(values, steady=1.0, n=20):
    return [steady] * n + list(values)


def _feed(det, values, dt=1.0):
    events = []
    for i, v in enumerate(values):
        det_source_value[0] = v
        events.extend(det.tick(None, float(i + 1) * dt))
    return events


det_source_value = [None]


def _det(**over):
    kw = dict(name="d", metric="m",
              source=lambda _s, _n: det_source_value[0],
              threshold=4.0, warmup=8)
    kw.update(over)
    return EwmaMadDetector(**kw)


def test_spike_detected_once_per_episode():
    det = _det(direction="up")
    # Steady noise, then a sustained 100x spike, then recovery and a
    # second spike: exactly two events, stamped at each onset.
    values = _steady_then([100.0] * 5 + [1.0] * 10 + [100.0] * 3,
                          steady=1.0)
    # Tiny wiggle so MAD is nonzero but small.
    values = [v + (0.01 if i % 2 else -0.01)
              for i, v in enumerate(values)]
    events = _feed(det, values)
    assert len(events) == 2
    assert events[0]["t"] == 21.0
    assert events[1]["t"] == 36.0
    assert events[0]["direction"] == "up"
    assert events[0]["zscore"] >= 4.0


def test_direction_gating():
    up = _det(direction="up")
    down = _det(direction="down")
    collapse = _steady_then([0.0] * 5, steady=10.0)
    collapse = [v + (0.01 if i % 2 else -0.01)
                for i, v in enumerate(collapse)]
    assert _feed(up, collapse) == []
    assert len(_feed(down, collapse)) == 1


def test_warmup_suppresses_early_alarms():
    det = _det(warmup=10)
    # A spike in the warmup period must not fire.
    events = _feed(det, [1.0, 1.0, 100.0, 1.0, 1.0])
    assert events == []


def test_none_samples_skipped():
    det = _det()
    det_source_value[0] = None
    assert det.tick(None, 1.0) == []
    assert det.seen == 0


def test_anomaly_does_not_poison_baseline():
    det = _det(direction="up")
    values = _steady_then([100.0] * 30, steady=1.0)
    values = [v + (0.01 if i % 2 else -0.01)
              for i, v in enumerate(values)]
    _feed(det, values)
    # 30 anomalous windows later the baseline still reflects normal.
    assert det.ewma < 2.0


def test_standard_bank_names():
    dets = standard_detectors(tenants=["a", "b"], n_nodes=2)
    names = {d.name for d in dets}
    assert names == {"hit_ratio:a", "hit_ratio:b", "rt_backlog",
                     "wal_growth", "realloc_thrash"}


def test_backlog_detector_end_to_end():
    sim = Simulator()
    mon = Monitor(sim)
    obs = LiveObs(sim, mon, window=0.01, retention=64).install()
    obs.detectors.extend(standard_detectors(n_nodes=1, warmup=5))
    g = mon.metrics.gauge("rt_backlog", node=0)

    def work():
        for _ in range(12):
            g.set(2.0)
            yield sim.timeout(0.01)
            g.set(3.0)
            yield sim.timeout(0.01)
        g.set(500.0)
        for _ in range(4):
            yield sim.timeout(0.01)

    sim.run(until=sim.process(work(), name="work"))
    events = obs.events_since(0.0, detector="rt_backlog")
    assert len(events) == 1
    assert events[0]["value"] == 500.0
    # Mirrored into the metrics registry by the tick.
    c = mon.metrics.counter("obs_anomalies", detector="rt_backlog")
    assert c.value == 1.0


def test_hit_ratio_detector_collapse():
    sim = Simulator()
    mon = Monitor(sim)
    obs = LiveObs(sim, mon, window=0.01, retention=64).install()
    obs.detectors.extend(standard_detectors(tenants=["a"], warmup=5))
    fast = mon.metrics.counter("tenant_read_bytes", tenant="a",
                               speed="fast")
    slow = mon.metrics.counter("tenant_read_bytes", tenant="a",
                               speed="slow")

    def work():
        for i in range(15):
            fast.inc(900 + (i % 2))
            slow.inc(100)
            yield sim.timeout(0.01)
        for _ in range(5):
            slow.inc(1000)
            yield sim.timeout(0.01)

    sim.run(until=sim.process(work(), name="work"))
    events = obs.events_since(0.0, detector="hit_ratio:a")
    assert len(events) == 1
    assert events[0]["direction"] == "down"


def test_realloc_backoff_consumes_thrash_events():
    """A thrash event pauses the loop for BACKOFF_SWEEPS sweeps and
    logs the decision; without obs the path is inert."""
    from repro.tenancy.realloc import ReallocLoop

    class _Mgr:
        def __init__(self, system):
            self.system = system
            self.tenants = {}
            self.decisions = []

        def log(self, kind, **kw):
            self.decisions.append({"kind": kind, **kw})

    class _Sys:
        class config:
            realloc_period = 0.01
            realloc_step = 1
        sim = None
        monitor = None
        dmshs = []

    sys_ = _Sys()
    loop = ReallocLoop(_Mgr(sys_))
    # No obs installed: never backs off.
    assert loop._thrash_backoff() is False

    sim = Simulator()
    mon = Monitor(sim)
    obs = LiveObs(sim, mon, window=0.01, retention=8).install()
    sys_.obs = obs
    obs.events.append({"t": 0.0, "detector": "realloc_thrash",
                       "value": 9.0})
    assert loop._thrash_backoff() is True       # trip: sweep 1 skipped
    assert loop._backoff == loop.BACKOFF_SWEEPS - 1
    assert loop.manager.decisions[0]["kind"] == "realloc_backoff"
    assert loop._thrash_backoff() is True       # still backing off
    assert loop._thrash_backoff() is True
    assert loop._thrash_backoff() is False      # resumed
    # The same event is not consumed twice.
    assert len(loop.manager.decisions) == 1
