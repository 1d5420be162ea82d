"""Anomaly detectors: EWMA+MAD scoring, one-event-per-episode
semantics, the standard bank's wiring, and that no simulated
component consumes their events."""

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
                     "wal_growth"}


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
    events = [e for e in obs.events if e["detector"] == "rt_backlog"]
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
    events = [e for e in obs.events if e["detector"] == "hit_ratio:a"]
    assert len(events) == 1
    assert events[0]["direction"] == "down"


COLOCATION = """
name: obs-does-not-steer
cluster:
  n_nodes: 2
  procs_per_node: 1
  dram_mb: 8
  nvme_mb: 64
  seed: 11
  realloc_period: 0.002
tenancy:
  realloc: true
jobs:
  - name: km
    app:
      kind: mm_kmeans
      k: 4
      max_iter: 2
    dataset:
      kind: points
      n: 3000
      k: 4
      seed: 3
      path: pts_a.parquet
    procs: 2
    dram_quota_mb: 4
    min_dram_mb: 2
  - name: antag
    app:
      kind: mm_stream
      passes: 2
    dataset:
      kind: points
      n: 8000
      k: 4
      seed: 5
      path: pts_b.parquet
    procs: 1
    arrival: 0.01
    dram_quota_mb: 2
    min_dram_mb: 1
"""


def test_anomaly_events_do_not_steer_realloc(tmp_path):
    """The plane only observes: flooding ``obs.events`` with
    ``realloc_thrash`` (and any other detector's) events every tick
    leaves the reallocation loop's sweeps, its decision log and every
    job row exactly as in the same run with a quiet plane."""
    from repro.tenancy import run_colocation

    def colocate(flood):
        clusters = []

        def hook(cluster):
            clusters.append(cluster)
            obs = LiveObs.attach(cluster, tenants=["km", "antag"])
            if flood:
                obs.on_tick.append(lambda o, now: o.events.extend(
                    {"t": now, "detector": name, "metric": "m",
                     "value": 9.0, "zscore": 9.0, "direction": "up"}
                    for name in ("realloc_thrash", "rt_backlog")))

        res = run_colocation(COLOCATION, workdir=str(tmp_path),
                             on_cluster=hook)
        return res, clusters[0].system.tenancy.loop.sweeps

    quiet, quiet_sweeps = colocate(False)
    loud, loud_sweeps = colocate(True)
    assert quiet_sweeps > 0 and loud_sweeps == quiet_sweeps
    assert loud.decisions == quiet.decisions
    assert loud.rows == quiet.rows
    assert loud.makespan == quiet.makespan
