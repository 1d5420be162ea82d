"""Observability surfaces of the serving benchmark: the golden schema
of the ``BENCH_serving.json`` perf-trajectory records, the serving
entries in the CI floor file, and a ``repro report`` smoke over a
traced object-path serving run (the critical-path report must see the
``object`` and ``serving`` span categories)."""

import json
import math
import os

from repro.__main__ import main

REPO = os.path.join(os.path.dirname(__file__), "..", "..")

SERVING_MINI = """
name: serving-report-mini
cluster:
  n_nodes: 2
  procs_per_node: 2
  dram_mb: 16
  nvme_mb: 64
  object_threshold_bytes: 4096
app:
  kind: mm_serving
  n_keys: 4096
  obj_bytes: 64
  queries: 24
  lookups: 8
  zipf_s: 1.2
  write_frac: 0.05
  qps: 5000
  api: object
"""

# Every emit_result record carries exactly this shape (plus an
# optional critical_path breakdown); downstream tooling — the floor
# gate, trajectory diffs — parses on faith, so the committed file is
# the golden copy.
RECORD_KEYS = {"name", "metric", "value", "unit", "sim_config"}
SERVING_METRICS = {"serving.qps", "serving.page_qps",
                   "serving.p99_ms", "serving.object_speedup"}


def test_bench_serving_records_golden_schema():
    path = os.path.join(REPO, "benchmarks", "results",
                        "BENCH_serving.json")
    records = json.load(open(path, encoding="utf-8"))
    assert isinstance(records, list) and records
    for rec in records:
        assert RECORD_KEYS <= set(rec), rec
        assert rec["name"] == "serving"
        assert isinstance(rec["value"], float)
        assert math.isfinite(rec["value"]) and rec["value"] > 0
        assert isinstance(rec["sim_config"], dict)
    by_metric = {r["metric"]: r for r in records}
    assert SERVING_METRICS <= set(by_metric)
    assert by_metric["serving.qps"]["unit"] == "q/s"
    assert by_metric["serving.object_speedup"]["unit"] == "x"
    # The headline cell is pinned in the record's sim_config.
    head = by_metric["serving.object_speedup"]["sim_config"]
    assert head["obj_bytes"] == 64 and head["zipf_s"] == 1.2
    # The committed trajectory itself satisfies the floors it is gated
    # by (floors follow measurements: re-measured when pcache frames
    # became byte-accurate and the page path caught up on residency).
    floors = _floors()
    for metric in ("serving.qps", "serving.page_qps",
                   "serving.object_speedup"):
        assert by_metric[metric]["value"] >= floors[metric], metric


def _floors():
    path = os.path.join(REPO, "benchmarks", "perf_floor.json")
    return json.load(open(path, encoding="utf-8"))["floors"]


def test_repo_floor_file_gates_serving():
    floors = _floors()
    # Vectoring alone must keep the object path ahead of the page path.
    assert floors["serving.object_speedup"] > 1.0
    assert floors["serving.qps"] > floors["serving.page_qps"] > 0


def test_cli_report_on_traced_serving_run(tmp_path, capsys):
    """``repro trace`` + ``repro report --json`` over the mini serving
    pipeline: the analysis is well-formed and the object access path
    actually shows up on the span graph."""
    path = tmp_path / "serving.yaml"
    path.write_text(SERVING_MINI)
    rc = main(["trace", str(path), "--workdir", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()

    out_path = tmp_path / "rep.json"
    rc = main(["report", str(tmp_path / "trace.json"), "--json",
               "--out", str(out_path)])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    saved = json.loads(out_path.read_text())
    assert printed == saved
    cp = saved["critical_path"]
    assert math.isfinite(cp["total"]) and cp["total"] > 0
    # The object RPCs and the per-query serving spans are both on the
    # graph the report analyzed.
    categories = set(cp["by_category"])
    assert "object" in categories, categories
    assert "serving" in categories, categories
