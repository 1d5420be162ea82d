"""SLO monitor: spec parsing, burn-rate alert lifecycle, exact
compliance reporting."""

import pytest

from repro.obs.live import LiveObs
from repro.obs.slo import Alert, SLOMonitor, SLOSpec, load_slos
from repro.sim import Monitor, Simulator


def _rig(specs, window=0.01):
    sim = Simulator()
    mon = Monitor(sim)
    obs = LiveObs(sim, mon, window=window, retention=64).install()
    slo = SLOMonitor(obs, specs)
    return sim, mon, obs, slo


def _latency_spec(**over):
    base = dict(name="lat", objective="latency_p99", tenant="a",
                threshold_ms=100.0, target=0.9,
                fast_window_s=0.02, slow_window_s=0.1,
                fast_burn=2.0, slow_burn=1.0)
    base.update(over)
    return SLOSpec(**base)


# -- spec parsing ----------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        SLOSpec(name="x", objective="nope")
    with pytest.raises(ValueError):
        SLOSpec(name="x", objective="latency_p99", threshold_ms=0)
    with pytest.raises(ValueError):
        SLOSpec(name="x", objective="availability")
    with pytest.raises(ValueError):
        SLOSpec(name="x", objective="hit_ratio", target=1.5)
    with pytest.raises(ValueError):
        SLOSpec.from_dict({"name": "x", "objective": "hit_ratio",
                           "bogus": 1})
    spec = _latency_spec()
    assert spec.budget == pytest.approx(0.1)


def test_load_slos_yaml():
    specs = load_slos("""
slos:
  - name: victim-lat
    objective: latency_p99
    tenant: km1
    threshold_ms: 120
    target: 0.95
  - name: victim-hits
    objective: hit_ratio
    tenant: km1
    target: 0.6
""")
    assert [s.name for s in specs] == ["victim-lat", "victim-hits"]
    assert specs[0].slow_window_s == pytest.approx(
        5 * specs[0].fast_window_s)
    assert load_slos("- name: a\n  objective: hit_ratio\n")[0].name \
        == "a"
    with pytest.raises(ValueError):
        load_slos("just-a-scalar")


# -- alert lifecycle -------------------------------------------------------

def test_latency_alert_fires_and_resolves():
    sim, mon, obs, slo = _rig([_latency_spec()])
    h = mon.metrics.histogram("tenant_task_latency", tenant="a")

    def work():
        # Healthy phase: everything under threshold.
        for _ in range(10):
            h.observe(0.01)
            yield sim.timeout(0.01)
        # Burn phase: all tasks 5x over threshold.
        for _ in range(10):
            h.observe(0.5)
            yield sim.timeout(0.01)
        # Recovery: healthy again long enough to clear both windows.
        for _ in range(20):
            h.observe(0.01)
            yield sim.timeout(0.01)

    sim.run(until=sim.process(work(), name="work"))
    assert len(slo.history) == 1
    alert = slo.history[0]
    assert not alert.firing
    # Fired during the burn phase, resolved during recovery.
    assert 0.1 <= alert.fired_at <= 0.2
    assert alert.resolved_at > 0.2
    assert not slo.firing
    # Lifecycle reached the metrics registry.
    fires = mon.metrics.counter("slo_alerts", slo="lat", event="fire")
    resolves = mon.metrics.counter("slo_alerts", slo="lat",
                                   event="resolve")
    assert fires.value == 1.0 and resolves.value == 1.0


def test_alert_needs_min_count():
    sim, mon, obs, slo = _rig([_latency_spec(min_count=5)])
    h = mon.metrics.histogram("tenant_task_latency", tenant="a")

    def work():
        # One horrible sample per fast window: burn is 10x but the
        # fast window never holds min_count samples.
        for _ in range(10):
            h.observe(9.9)
            yield sim.timeout(0.02)

    sim.run(until=sim.process(work(), name="work"))
    assert slo.history == []


def test_hit_ratio_alert():
    spec = SLOSpec(name="hits", objective="hit_ratio", tenant="a",
                   target=0.5, fast_window_s=0.02, slow_window_s=0.1)
    sim, mon, obs, slo = _rig([spec])
    fast = mon.metrics.counter("tenant_read_bytes", tenant="a",
                               speed="fast")
    slow = mon.metrics.counter("tenant_read_bytes", tenant="a",
                               speed="slow")

    def work():
        for _ in range(10):
            fast.inc(900)
            slow.inc(100)
            yield sim.timeout(0.01)
        for _ in range(15):
            slow.inc(1000)
            yield sim.timeout(0.01)

    sim.run(until=sim.process(work(), name="work"))
    assert len(slo.history) == 1
    assert slo.history[0].firing  # never resolves: run ends burned


def test_availability_alert_flat_counters():
    spec = SLOSpec(name="avail", objective="availability",
                   target=0.9, good_metric="tasks.ok",
                   bad_metric="tasks.err",
                   fast_window_s=0.02, slow_window_s=0.1)
    sim, mon, obs, slo = _rig([spec])

    def work():
        for _ in range(10):
            mon.count("tasks.ok", 10)
            yield sim.timeout(0.01)
        for _ in range(10):
            mon.count("tasks.ok", 1)
            mon.count("tasks.err", 9)
            yield sim.timeout(0.01)

    sim.run(until=sim.process(work(), name="work"))
    assert len(slo.history) == 1


def test_availability_slo_sums_labels_it_does_not_name():
    """``bad_metric`` carries a ``node`` label the SLO does not name:
    the errors count, windowed (the alert fires) and whole-run (the
    report is violated) — exact label matching read neither."""
    spec = SLOSpec(name="avail", objective="availability",
                   target=0.9, good_metric="tasks.ok",
                   bad_metric="rt_task_failures",
                   fast_window_s=0.02, slow_window_s=0.1)
    sim, mon, obs, slo = _rig([spec])

    def work():
        for i in range(10):
            mon.count("tasks.ok", 1)
            mon.count("rt_task_failures", 9, node=i % 2, kind="read")
            yield sim.timeout(0.01)

    sim.run(until=sim.process(work(), name="work"))
    assert len(slo.history) == 1
    report = slo.report()
    assert report["slos"][0]["samples"] == 100.0
    assert report["slos"][0]["compliance"] == pytest.approx(0.1)
    assert not report["slos"][0]["ok"]


# -- reporting -------------------------------------------------------------

def test_report_exact_compliance_and_violations():
    sim, mon, obs, slo = _rig([_latency_spec(target=0.8)])
    h = mon.metrics.histogram("tenant_task_latency", tenant="a")

    def work():
        for i in range(10):
            h.observe(0.5 if i < 5 else 0.01)  # 50% bad overall
            yield sim.timeout(0.01)

    sim.run(until=sim.process(work(), name="work"))
    rep = slo.report()
    assert rep["violations"] == 1
    slo_row = rep["slos"][0]
    assert slo_row["compliance"] == pytest.approx(0.5)
    assert slo_row["samples"] == 10
    assert not slo_row["ok"]
    assert rep["alerts"] and rep["alerts"][0]["slo"] == "lat"
    # Alert timeline attached to the owning SLO row too.
    assert slo_row["alerts"]


def test_report_no_data_is_ok():
    _sim, _mon, _obs, slo = _rig([_latency_spec()])
    rep = slo.report()
    assert rep["violations"] == 0
    assert rep["slos"][0]["ok"]


def test_alert_spans_recorded_when_tracing():
    from repro.sim.trace import Tracer
    sim = Simulator()
    mon = Monitor(sim)
    tracer = Tracer(sim, enabled=True)
    mon.tracer = tracer
    obs = LiveObs(sim, mon, tracer=tracer, window=0.01,
                  retention=64).install()
    slo = SLOMonitor(obs, [_latency_spec()])
    h = mon.metrics.histogram("tenant_task_latency", tenant="a")

    def work():
        for _ in range(10):
            h.observe(0.5)
            yield sim.timeout(0.01)
        for _ in range(20):
            h.observe(0.001)
            yield sim.timeout(0.01)

    sim.run(until=sim.process(work(), name="work"))
    cats = {s.category for s in tracer.spans}
    assert "alert" in cats
    events = [s.attrs.get("event") for s in tracer.spans
              if s.category == "alert"]
    assert "fire" in events and "episode" in events
