"""Operator surfaces: ``repro top`` / ``repro slo`` and the SLO
attachment path through ``run_colocation`` (spec-level ``slos:``
lists, per-job ``slo:`` blocks, and the ``slos=`` override)."""

import json

import pytest

from repro.__main__ import main
from repro.obs import SLOSpec
from repro.pipeline import PipelineError
from repro.tenancy import collect_slos, run_colocation
from repro.tenancy.scheduler import load_colocation_spec

SPEC = """
name: Colocate-CLI-Test
cluster:
  n_nodes: 2
  procs_per_node: 1
  dram_mb: 8
  nvme_mb: 64
  seed: 11
tenancy:
  realloc: true
jobs:
  - name: kmA
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
    slo:
      objective: hit_ratio
      target: 0.05
  - name: gsB
    app:
      kind: mm_gray_scott
      L: 16
      steps: 2
    procs: 2
    arrival: 0.05
    dram_quota_mb: 4
    min_dram_mb: 2
"""

SLOS_YAML = """
slos:
  - name: km-latency
    tenant: kmA
    objective: latency_p99
    threshold_ms: 1000.0
    target: 0.5
"""

MINI_PIPELINE = """
name: obs-cli-mini
cluster:
  n_nodes: 2
  procs_per_node: 2
  dram_mb: 16
  nvme_mb: 64
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


# -- collect_slos ------------------------------------------------------------

def test_collect_slos_merges_spec_jobs_and_extra():
    spec = load_colocation_spec(SPEC)
    jobs = spec["_jobs"] if "_jobs" in spec else None
    from repro.tenancy import JobSpec
    jobs = [JobSpec.from_dict(j) for j in spec["jobs"]]
    extra = [SLOSpec(name="extra", objective="availability",
                     bad_metric="chaos.crashes")]
    specs = collect_slos(spec, jobs, extra=extra)
    names = [s.name for s in specs]
    assert names == ["extra", "kmA-hit_ratio"]
    # The job-embedded block defaults tenant and name from the job.
    embedded = specs[-1]
    assert embedded.tenant == "kmA"
    assert embedded.objective == "hit_ratio"


def test_collect_slos_rejects_duplicate_names():
    spec = load_colocation_spec(SPEC)
    from repro.tenancy import JobSpec
    jobs = [JobSpec.from_dict(j) for j in spec["jobs"]]
    dup = [SLOSpec(name="kmA-hit_ratio", objective="availability",
                   bad_metric="x")]
    with pytest.raises(PipelineError, match="duplicate"):
        collect_slos(spec, jobs, extra=dup)


# -- run_colocation SLO attachment ------------------------------------------

def test_run_colocation_attaches_job_embedded_slos(tmp_path):
    res = run_colocation(SPEC, workdir=str(tmp_path))
    assert res.slo is not None
    assert [s["name"] for s in res.slo["slos"]] == ["kmA-hit_ratio"]
    # target 0.05 is below any real hit ratio: compliant.
    assert res.slo["violations"] == 0
    assert isinstance(res.obs_events, list)


def test_run_colocation_slos_do_not_change_results(tmp_path):
    spec_no_slo = SPEC.replace("    slo:\n"
                               "      objective: hit_ratio\n"
                               "      target: 0.05\n", "")
    assert "slo:" not in spec_no_slo
    plain = run_colocation(spec_no_slo, workdir=str(tmp_path))
    observed = run_colocation(
        spec_no_slo, workdir=str(tmp_path),
        slos=[SLOSpec(name="km-hit", tenant="kmA",
                      objective="hit_ratio", target=0.05)])
    assert plain.slo is None
    assert observed.slo is not None
    assert observed.rows == plain.rows
    assert observed.makespan == plain.makespan
    assert observed.decisions == plain.decisions


# -- CLI: repro top ----------------------------------------------------------

def test_cli_top_json_on_colocation_spec(tmp_path, capsys):
    path = tmp_path / "coloc.yaml"
    path.write_text(SPEC)
    rc = main(["top", str(path), "--workdir", str(tmp_path / "wd"),
               "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ticks"] > 0
    assert {"t", "window_s", "retention", "counters", "gauges",
            "histograms", "anomalies", "alerts"} <= set(doc)
    # Tenant task latencies are the operator's first stop.
    assert any(k.startswith("tenant_task_latency")
               for k in doc["histograms"])
    assert any(k.startswith("tenant_read_bytes")
               for k in doc["counters"])


def test_cli_top_human_output_on_pipeline(tmp_path, capsys):
    path = tmp_path / "mini.yaml"
    path.write_text(MINI_PIPELINE)
    rc = main(["top", str(path), "--workdir", str(tmp_path / "wd"),
               "--window", "0.0002"])  # mini makespan << default tick
    assert rc == 0
    out = capsys.readouterr().out
    assert "== top:" in out
    assert "-- counters (retained window) --" in out
    assert "-- gauges (last sample) --" in out


def test_cli_top_closes_the_last_partial_window(tmp_path, capsys):
    """A run shorter than one obs window still shows its counters: the
    final partial window is closed once before rendering, in text and
    JSON alike."""
    path = tmp_path / "mini.yaml"
    path.write_text(MINI_PIPELINE)
    rc = main(["top", str(path), "--workdir", str(tmp_path / "wd"),
               "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0 < doc["t"] < doc["window_s"]
    assert doc["ticks"] == 1
    assert doc["counters"]
    assert all(c["delta"] > 0 for c in doc["counters"].values())
    rc = main(["top", str(path), "--workdir", str(tmp_path / "wd2")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1 ticks) ==" in out
    assert "-- counters (retained window) --" in out


# -- CLI: repro slo ----------------------------------------------------------

def test_cli_slo_exit_codes_and_json(tmp_path, capsys):
    spec_path = tmp_path / "coloc.yaml"
    spec_path.write_text(SPEC)
    slos_path = tmp_path / "slos.yaml"
    slos_path.write_text(SLOS_YAML)

    rc = main(["slo", str(spec_path), "--slos", str(slos_path),
               "--workdir", str(tmp_path / "wd"), "--json"])
    out = capsys.readouterr().out
    assert rc == 0  # both SLOs comfortably met
    doc = json.loads(out)
    assert {"slos", "alerts", "firing", "violations", "t"} <= set(doc)
    assert [s["name"] for s in doc["slos"]] \
        == ["km-latency", "kmA-hit_ratio"]
    assert doc["violations"] == 0

    # An unmeetable target flips the exit code to 1.
    bad = tmp_path / "bad.yaml"
    bad.write_text(SLOS_YAML.replace("threshold_ms: 1000.0",
                                     "threshold_ms: 0.00001"))
    rc = main(["slo", str(spec_path), "--slos", str(bad),
               "--workdir", str(tmp_path / "wd2")])
    capsys.readouterr()
    assert rc == 1


def test_cli_slo_pipeline_target_requires_slos(tmp_path, capsys):
    path = tmp_path / "mini.yaml"
    path.write_text(MINI_PIPELINE)
    rc = main(["slo", str(path), "--workdir", str(tmp_path / "wd")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--slos" in err


def test_repo_colocate_slo_spec_parses():
    """The shipped SLO file for colocate_mixed stays loadable and
    names only objectives the monitor implements."""
    import os
    from repro.obs import load_slos
    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "pipelines", "colocate_slos.yaml")
    specs = load_slos(path)
    assert len(specs) == 5
    assert {s.objective for s in specs} \
        == {"hit_ratio", "latency_p99"}
    assert {s.tenant for s in specs if s.objective == "hit_ratio"} \
        == {"km1", "km2", "km3", "km4"}
