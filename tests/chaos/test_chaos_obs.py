"""Chaos x observability: injected faults must surface as obs
signals (anomaly events / SLO alert fires) with bounded detection
latency, and attaching the obs plane must not perturb the fault
schedule or the execution it observes."""

import os

import pytest

from repro.chaos import run_case
from repro.chaos.campaign import detection_stats, measure_horizon
from repro.obs import SLOSpec

SMALL_KMEANS = """
name: chaos-obs-small
cluster:
  n_nodes: 2
  procs_per_node: 2
  dram_mb: 16
  nvme_mb: 64
  page_size: 65536
  replication_factor: 2
  integrity_checks: true
dataset:
  kind: points
  n: 4000
  k: 4
  seed: 7
  path: points.parquet
app:
  kind: mm_kmeans
  k: 4
  max_iter: 2
"""


# Blob placement hashes bucket URLs, and those embed the workdir
# string verbatim — so every run here chdirs into a scratch dir and
# uses the same *relative* workdir, making placement (and therefore
# fault impact and detection timing) identical across invocations.
WORKDIR = "wd"


@pytest.fixture(scope="module")
def horizon(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("probe")
    old = os.getcwd()
    os.chdir(scratch)
    try:
        return measure_horizon(SMALL_KMEANS, workdir=WORKDIR)
    finally:
        os.chdir(old)


def test_every_fault_class_detected_with_bounded_latency(
        tmp_path, monkeypatch, horizon):
    """The acceptance shape: across a few seeds, every injected fault
    class produces an obs signal, and the detection latency (onset to
    first anomaly/alert at or after it) stays within the horizon.

    A window fault no transfer or device operation met (``felt``
    False) changed nothing, so nothing can detect it: it stays in the
    stats, and every fault that was felt must be detected. (This run
    moves few bytes between nodes: seed 1's drop at 4.26 ms and delay
    at 4.49 ms meet none, and no partition or stall here meets
    anything.)"""
    monkeypatch.chdir(tmp_path)
    results = [run_case(SMALL_KMEANS, seed, horizon=horizon,
                        workdir=WORKDIR, obs=True)
               for seed in range(3)]
    for res in results:
        assert res.ok, (res.error, res.violations[:3])
        assert res.detections, "obs=True must fill detections"
        assert res.obs_anomalies > 0
    stats = detection_stats(results)
    assert stats, "campaign applied no faults"
    missed = [(res.seed, d["kind"], d["t_fault"]) for res in results
              for d in res.detections
              if d["felt"] and d["detection_s"] is None]
    assert not missed
    for kind, row in sorted(stats.items()):
        assert row["max_s"] <= horizon, (kind, row)


def test_slo_alert_fires_during_injected_faults(tmp_path, monkeypatch,
                                                horizon):
    """An availability SLO on the injector's own fault counters burns
    its budget the moment a network fault bites: the alert lifecycle
    runs under chaos, and alert fires count as detection signals."""
    monkeypatch.chdir(tmp_path)
    window = horizon / 256.0
    slo = SLOSpec(name="no-injected-delays", objective="availability",
                  bad_metric="chaos.delays",
                  target=0.999, fast_window_s=4 * window,
                  slow_window_s=16 * window, min_count=1.0)
    # Seed 6 with the network-fault mix lands delay windows on live
    # transfers (chaos.delays increments), so the SLO has bad events.
    res = run_case(SMALL_KMEANS, 6, horizon=horizon,
                   workdir=WORKDIR, obs=True, slos=[slo],
                   kinds=("delay", "drop", "stall", "partition"),
                   obs_window=window)
    assert res.ok, (res.error, res.violations[:3])
    assert res.faults_applied > 0
    assert res.obs_alerts > 0, "availability SLO never fired"
    assert any(d["signal"] and d["signal"].startswith("alert:")
               for d in res.detections), res.detections


def test_obs_plane_does_not_perturb_chaos_execution(
        tmp_path, monkeypatch, horizon):
    """Scrape-at-tick under fault injection: the same seed with and
    without the obs plane must apply the same faults and produce the
    identical client-boundary history hash."""
    monkeypatch.chdir(tmp_path)
    wd = WORKDIR
    plain = run_case(SMALL_KMEANS, 5, horizon=horizon, workdir=wd)
    observed = run_case(SMALL_KMEANS, 5, horizon=horizon, workdir=wd,
                        obs=True)
    assert plain.ok and observed.ok
    assert observed.trace_hash == plain.trace_hash
    assert observed.events == plain.events
    assert observed.faults_applied == plain.faults_applied
    assert observed.plan.faults == plain.plan.faults
    # And the obs run is itself deterministic.
    again = run_case(SMALL_KMEANS, 5, horizon=horizon, workdir=wd,
                     obs=True)
    assert again.detections == observed.detections
    assert again.obs_anomalies == observed.obs_anomalies


def test_net_p99_detector_samples_the_exact_p99():
    """The traced case's ``net_p99`` detector scores the window's
    nearest-rank 99th percentile of network spans: 99 fast spans and
    one slow one sample the slowest fast span, not the fastest."""
    from repro.chaos.campaign import _attach_case_obs
    from repro.pipeline import build_cluster
    cluster = build_cluster({"n_nodes": 2, "procs_per_node": 1})
    cluster.tracer.enabled = True
    live = _attach_case_obs(cluster, (), 1.0, threshold=4.0, warmup=8)
    (det,) = [d for d in live.detectors if d.name == "net_p99"]
    durations = [i * 1e-3 for i in range(1, 100)] + [1.0]
    for d in durations:
        cluster.tracer.record("xfer", "net", 0, 0.0, d)
    live.store.tick(1.0)
    assert det.source(live.store, 1.0) == sorted(durations)[98] == 0.099
