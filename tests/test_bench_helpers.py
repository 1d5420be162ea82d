"""Tests for the benchmark harness helpers and the plot script."""

import csv
import importlib.util
import os
import sys

import pytest

from benchmarks.common import _fmt, print_table, testbed, write_csv


def test_fmt_numbers():
    assert _fmt(0.0) == "0"
    assert _fmt(1234.5678) == "1234.6"
    assert _fmt(0.12345) == "0.1235"
    assert _fmt(3.0) == "3.0"
    assert _fmt("text") == "text"
    assert _fmt(7) == "7"


def test_print_table_renders(capsys):
    print_table("T", [{"a": 1, "b": 0.5}, {"a": 22, "b": 0.25}])
    out = capsys.readouterr().out
    assert "=== T ===" in out
    assert "a" in out and "22" in out and "0.25" in out


def test_print_table_empty(capsys):
    print_table("E", [])
    assert "(no rows)" in capsys.readouterr().out


def test_write_csv_roundtrip(tmp_path, monkeypatch):
    import benchmarks.common as common
    monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
    path = common.write_csv("x", [{"k": 1, "v": 2.5}])
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [{"k": "1", "v": "2.5"}]


def test_emit_result_appends_or_replaces(tmp_path, monkeypatch):
    import benchmarks.common as common
    monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
    common.emit_result("x", "wall_s", 1.0, "s")
    common.emit_result("x", "requests", 5, "requests")
    common.emit_result("x", "wall_s", 2.0, "s")     # same key: replaces
    common.emit_result("x", "wall_s", 4.0, "s", dict(nodes=2))  # another
    got = [(r["metric"], r["value"]) for r in common.read_results("x")]
    assert got == [("requests", 5.0), ("wall_s", 2.0), ("wall_s", 4.0)]
    # A figure names the commit and the host it was taken on.
    for rec in common.read_results("x"):
        assert rec["commit"] and rec["utc"] and rec["host_cpus"] >= 1


def test_emit_result_replaces_per_configuration(tmp_path, monkeypatch):
    """One metric recorded once per configuration (fig5's runtimes at
    1/2/4 nodes): a rerun replaces each configuration's record and
    leaves the others alone."""
    import benchmarks.common as common
    monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
    for value in (1.0, 2.0):
        for nodes in (1, 2, 4):
            common.emit_result("f", "app.mm_runtime", value * nodes,
                               "sim_s", dict(nodes=nodes, scale=1.0))
    common.emit_result("f", "app.mm_runtime", 9.0, "sim_s",
                       dict(scale=1.0, nodes=2))
    got = [(r["sim_config"]["nodes"], r["value"])
           for r in common.read_results("f")]
    assert got == [(1, 2.0), (4, 8.0), (2, 9.0)]


def test_committed_fig5_records_have_todays_sim_config(tmp_path,
                                                       monkeypatch):
    """``emit_result`` replaces by ``(metric, sim_config)``: a record
    written under an older key set is never replaced, so it would sit
    in the committed trajectory forever."""
    import benchmarks.common as common
    from benchmarks.bench_fig5_weak_scaling import _emit_rows
    committed = common.read_results("fig5")
    assert committed
    monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
    _emit_rows([dict(app="KMeans", nodes=1, mm_s=1.0, baseline="Spark",
                     baseline_s=2.0)], {})
    today = {r["metric"].split(".")[1]: set(r["sim_config"])
             for r in common.read_results("fig5")}
    for rec in committed:
        assert set(rec["sim_config"]) == \
            today[rec["metric"].split(".")[1]], rec


def test_testbed_matches_paper_ratios():
    cluster = testbed(n_nodes=2, ssd_mb=256, hdd_mb=1024)
    dmsh = cluster.dmshs[0]
    caps = {d.spec.kind: d.capacity for d in dmsh}
    # 48 : 128 : 256 : 1024 — the paper's per-node hardware, MB-scaled.
    assert caps["nvme"] / caps["dram"] == pytest.approx(128 / 48)
    assert caps["ssd"] / caps["dram"] == pytest.approx(256 / 48)
    assert caps["hdd"] / caps["dram"] == pytest.approx(1024 / 48)


def _load_plot_module():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    path = os.path.join(root, "scripts", "plot_results.py")
    spec = importlib.util.spec_from_file_location("plot_results", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_plot_script_renders_known_figures(tmp_path, capsys):
    mod = _load_plot_module()
    mod.RESULTS = str(tmp_path)
    with open(tmp_path / "fig7_tiering.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["composition", "tiers",
                                           "runtime_s", "cost_dollars",
                                           "peak_dram_mb"])
        w.writeheader()
        w.writerow({"composition": "48D-48H", "tiers": "x",
                    "runtime_s": 2.0, "cost_dollars": 0.09,
                    "peak_dram_mb": 1})
        w.writerow({"composition": "48D-48N", "tiers": "y",
                    "runtime_s": 1.0, "cost_dollars": 0.10,
                    "peak_dram_mb": 1})
    rc = mod.main(["plot"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fig7_tiering" in out
    assert "48D-48H" in out and "#" in out


def test_plot_script_no_results(tmp_path, capsys):
    mod = _load_plot_module()
    mod.RESULTS = str(tmp_path / "missing")
    assert mod.main(["plot"]) == 1
