"""Tests for the Jarvis-style pipeline runner and the CLI."""

import csv
import os

import numpy as np
import pytest

from repro.pipeline import (
    APP_REGISTRY,
    App,
    PipelineError,
    build_cluster,
    prepare_dataset,
    run_pipeline,
)

MINI_KMEANS = """
name: KMeans-Mini
cluster:
  n_nodes: 2
  procs_per_node: 2
  dram_mb: 16
  nvme_mb: 64
  page_size: 65536
dataset:
  kind: points
  n: 4000
  k: 4
  seed: 7
  path: pts.parquet
app:
  kind: mm_kmeans
  k: 4
  max_iter: 2
output: stats_dict.csv
"""


def test_run_pipeline_produces_stats_csv(tmp_path):
    rows = run_pipeline(MINI_KMEANS, workdir=str(tmp_path))
    assert len(rows) == 1
    row = rows[0]
    assert row["app"] == "KMeans-Mini"
    assert row["nprocs"] == 4
    assert row["runtime_s"] > 0
    assert not row["crashed"]
    out = tmp_path / "stats_dict.csv"
    assert out.exists()
    with open(out) as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 1
    assert float(parsed[0]["runtime_s"]) == pytest.approx(
        row["runtime_s"])


def test_pipeline_sweep_grid(tmp_path):
    spec = MINI_KMEANS + """
sweep:
  - key: cluster.dram_mb
    values:
      - 16
      - 8
"""
    rows = run_pipeline(spec, workdir=str(tmp_path))
    assert len(rows) == 2
    assert [r["cluster.dram_mb"] for r in rows] == [16, 8]
    # The DRAM cap really changed the deployment.
    assert rows[1]["peak_dram_node_mb"] <= 8.5


def test_pipeline_two_axis_sweep_is_cross_product(tmp_path):
    spec = MINI_KMEANS + """
sweep:
  - key: cluster.dram_mb
    values:
      - 16
      - 8
  - key: app.max_iter
    values:
      - 1
      - 2
"""
    rows = run_pipeline(spec, workdir=str(tmp_path))
    assert len(rows) == 4
    combos = {(r["cluster.dram_mb"], r["app.max_iter"]) for r in rows}
    assert combos == {(16, 1), (16, 2), (8, 1), (8, 2)}


def test_pipeline_from_file(tmp_path):
    path = tmp_path / "p.yaml"
    path.write_text(MINI_KMEANS)
    rows = run_pipeline(str(path), workdir=str(tmp_path))
    assert rows


def test_pipeline_gray_scott(tmp_path):
    spec = """
name: GS-Mini
cluster:
  n_nodes: 2
  procs_per_node: 2
  dram_mb: 16
  nvme_mb: 64
app:
  kind: mm_gray_scott
  L: 16
  steps: 2
"""
    rows = run_pipeline(spec, workdir=str(tmp_path))
    assert len(rows) == 1
    assert rows[0]["runtime_s"] > 0


def test_pipeline_unknown_app_rejected(tmp_path):
    with pytest.raises(PipelineError, match="unknown app"):
        run_pipeline("app:\n  kind: nope\n", workdir=str(tmp_path))


def test_pipeline_requires_app(tmp_path):
    with pytest.raises(PipelineError):
        run_pipeline("name: x\n", workdir=str(tmp_path))


def test_build_cluster_tiers_and_config():
    cluster = build_cluster({"n_nodes": 2, "dram_mb": 8, "nvme_mb": 16,
                             "ssd_mb": 32, "hdd_mb": 64,
                             "page_size": 4096})
    kinds = [d.spec.kind for d in cluster.dmshs[0]]
    assert kinds == ["dram", "nvme", "ssd", "hdd"]
    assert cluster.spec.config.page_size == 4096


def test_prepare_dataset_idempotent(tmp_path):
    section = {"kind": "points", "n": 100, "k": 2, "seed": 1,
               "path": "d.parquet"}
    prepare_dataset(section, str(tmp_path))
    first = (tmp_path / "d.parquet").read_bytes()
    prepare_dataset(section, str(tmp_path))
    assert (tmp_path / "d.parquet").read_bytes() == first


def test_swept_dataset_size_is_regenerated_not_reused(tmp_path):
    """A file is reused only when it was generated from the same
    parameters: the second variant of a ``dataset.n`` sweep stages in
    its own 4x larger dataset (it used to meet the first file and
    report the first row twice under the label 8000)."""
    spec = MINI_KMEANS.replace("  n: 4000\n", "  n: 2000\n") + """
sweep:
  - key: dataset.n
    values:
      - 2000
      - 8000
"""
    small, large = run_pipeline(spec, workdir=str(tmp_path))
    assert (small["dataset.n"], large["dataset.n"]) == (2000, 8000)
    assert large["stager_in_mb"] == pytest.approx(
        4 * small["stager_in_mb"], rel=0.02)
    # Same parameters again: the file on disk is kept, byte for byte.
    before = (tmp_path / "pts.parquet").read_bytes()
    prepare_dataset({"kind": "points", "n": 8000, "k": 4, "seed": 7,
                     "path": "pts.parquet"}, str(tmp_path))
    assert (tmp_path / "pts.parquet").read_bytes() == before
    prepare_dataset({"kind": "points", "n": 8000, "k": 4, "seed": 8,
                     "path": "pts.parquet"}, str(tmp_path))
    assert (tmp_path / "pts.parquet").read_bytes() != before


def test_prepare_dataset_gadget_writes_labels(tmp_path):
    prepare_dataset({"kind": "gadget", "n": 200, "k": 2,
                     "path": "snap.h5"}, str(tmp_path))
    assert (tmp_path / "snap.h5").exists()
    labels = np.fromfile(tmp_path / "snap.h5.labels", dtype=np.int32)
    assert len(labels) == 200


def test_registry_covers_all_eight_artifact_apps():
    # The AD appendix's 8 applications (2x KMeans, 2x DBSCAN, 2x RF,
    # 2x Gray-Scott) plus the colocation antagonist and the
    # object-path serving workload.
    assert set(APP_REGISTRY) == {
        "mm_kmeans", "spark_kmeans", "mm_dbscan", "mpi_dbscan",
        "mm_random_forest", "spark_random_forest", "mm_gray_scott",
        "mpi_gray_scott", "mm_stream", "mm_serving"}
    # Every row is data that resolves: the function exists, the Spark
    # jobs are the drivers, and the tenant-capable kinds are the ones
    # whose vectors a quota can be charged for.
    for kind, entry in APP_REGISTRY.items():
        assert callable(entry.load()), kind
        assert entry.driver == kind.startswith("spark_"), kind
    assert {k for k, e in APP_REGISTRY.items() if e.tenant} == {
        "mm_kmeans", "spark_kmeans", "mm_dbscan", "mm_gray_scott",
        "mm_stream"}


def test_app_defaults_are_the_spec_omitted_values(tmp_path):
    """One argument builder per kind: an empty ``app:`` section gets
    every default, and a pipeline launch and a tenant launch read the
    same ones."""
    from repro.pipeline import Urls
    urls = Urls({"path": "d.parquet"}, "wd")
    assert APP_REGISTRY["mm_kmeans"].args({}, urls, None) == (
        "parquet://wd/d.parquet", 8, 4, 0, None)
    assert APP_REGISTRY["mm_dbscan"].args({"eps": 2}, urls, None) == (
        "parquet://wd/d.parquet", 2.0, 64, 0, None)
    with pytest.raises(PipelineError, match="dataset"):
        APP_REGISTRY["mm_stream"].args({}, Urls(None, "wd"), None)
    # An output URL carries its owner's name and marks the launch.
    tenant = Urls(None, "wd", owner="gsB.")
    args = APP_REGISTRY["mm_gray_scott"].args(
        {"L": 8, "plotgap": 1}, tenant, None)
    assert args[-1] == "posix://wd/gsB.gs_ckpt_L8" and tenant.wrote
    assert not urls.wrote


def test_cli_main(tmp_path, capsys):
    from repro.__main__ import main
    path = tmp_path / "p.yaml"
    path.write_text(MINI_KMEANS)
    rc = main([str(path), "--workdir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "runtime_s" in out
    assert "stats written" in out


def test_cli_run_subcommand(tmp_path, capsys):
    from repro.__main__ import main
    path = tmp_path / "p.yaml"
    path.write_text(MINI_KMEANS)
    rc = main(["run", str(path), "--workdir", str(tmp_path)])
    assert rc == 0
    assert "runtime_s" in capsys.readouterr().out


def test_cli_trace_subcommand_writes_chrome_json(tmp_path, capsys):
    import json
    from repro.__main__ import main
    path = tmp_path / "p.yaml"
    path.write_text(MINI_KMEANS)
    out = tmp_path / "t.json"
    rc = main(["trace", str(path), "--workdir", str(tmp_path),
               "--out", str(out)])
    assert rc == 0
    assert "trace written to" in capsys.readouterr().out
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert xs, "traced run produced no spans"
    assert {"pcache", "rt.service"} <= {e["cat"] for e in xs}


def test_run_pipeline_trace_path_per_sweep_variant(tmp_path):
    spec = MINI_KMEANS + """
sweep:
  - key: app.max_iter
    values:
      - 1
      - 2
"""
    trace = tmp_path / "sweep.json"
    rows = run_pipeline(spec, workdir=str(tmp_path),
                        trace_path=str(trace))
    assert len(rows) == 2
    assert (tmp_path / "sweep.0.json").exists()
    assert (tmp_path / "sweep.1.json").exists()


def test_repo_pipelines_parse(tmp_path):
    """The shipped pipeline files must at least parse and reference
    known apps."""
    import glob
    from repro.core.config import load_yaml_subset
    root = os.path.join(os.path.dirname(__file__), os.pardir,
                        "pipelines")
    files = glob.glob(os.path.join(root, "*.yaml"))
    assert len(files) >= 3
    for f in files:
        spec = load_yaml_subset(open(f, encoding="utf-8").read())
        if "jobs" in spec:  # colocation spec: one app per tenant job
            for job in spec["jobs"]:
                assert job["app"]["kind"] in APP_REGISTRY, (
                    f, job.get("name"))
        elif "slos" in spec:  # SLO spec: validated objectives
            from repro.obs import load_slos
            assert load_slos(f), f
        else:
            assert spec["app"]["kind"] in APP_REGISTRY, f


def test_shipped_gray_scott_pipeline_checkpoints(tmp_path):
    """Non-vacuity of ``mm_gray_scott_mega.yaml`` ("checkpoints every
    step"): every variant really puts 2 fields x steps of checkpoint
    bytes on the PFS, the last checkpoint file is the reference
    solution, and the swept resolution moves the headline runtime."""
    import re
    from repro.apps.grayscott import GSParams, gs_reference
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "pipelines", "mm_gray_scott_mega.yaml")
    pfs_write = re.compile(r"^pfs\d+\.\w+\.bytes_write$")

    def on_variant(cluster, variant, row):
        L, steps = variant["app"]["L"], variant["app"]["steps"]
        written = sum(v for k, v in cluster.system.stats().items()
                      if pfs_write.match(k))
        assert written >= 2 * steps * L ** 3 * 8, (L, written)
        u_ref, _v_ref = gs_reference(L, steps, GSParams())
        last = tmp_path / f"gs_ckpt_L{L}_{steps}.u"
        assert np.array_equal(np.fromfile(last, dtype=np.float64),
                              u_ref.ravel()), L

    rows = run_pipeline(path, workdir=str(tmp_path),
                        on_variant=on_variant)
    assert [r["app.L"] for r in rows] == [32, 48, 64]
    runtimes = [r["runtime_s"] for r in rows]
    assert runtimes == sorted(runtimes) and runtimes[0] < runtimes[-1]
    assert not any(r["crashed"] for r in rows)


def test_shipped_kmeans_pipeline_dram_sweep_moves_spill(tmp_path):
    """Non-vacuity of ``mm_kmeans_mega.yaml``'s ``cluster.dram_mb``
    grid: the smaller DRAM sizes cannot hold the staged dataset next to
    the pcache, so pages spill to NVMe and the scans read them back
    from there -- the swept knob moves NVMe bytes read and the runtime.
    The stats columns are ones this pipeline bumps (every page arrives
    by prefetch, so ``pcache_faults`` is legitimately 0)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "pipelines", "mm_kmeans_mega.yaml")
    rows = run_pipeline(os.path.abspath(path), workdir=str(tmp_path))
    assert [r["cluster.dram_mb"] for r in rows] == [4, 0.5, 0.25]
    assert not any(r["crashed"] for r in rows)
    spill = [r["nvme_read_mb"] for r in rows]
    assert spill[0] == 0 and min(spill[1:]) > 0
    runtimes = [r["runtime_s"] for r in rows]
    assert min(runtimes[1:]) > runtimes[0]
    for r in rows:
        assert r["pcache_prefetches"] > 0
        # The dataset comes in once, in whole-stripe requests.
        assert r["stager_in_mb"] == pytest.approx(1.2e6 / 2 ** 20)
        assert r["stager_requests_in"] == 2
        # Rank 0's first record asks for one stripe; the other server,
        # idle, reads the second ahead of the scan that wants it.
        assert r["stager_requests_ahead"] == 1


def test_shipped_serving_pipeline_pcache_size_moves_local_hits(tmp_path):
    """Non-vacuity of ``serving_obj.yaml``'s ``pcache_size``: the byte
    budget decides how much of the zipf head is served locally. At the
    shipped 96 queries a rank's whole working set (~33 KB of 64 B
    extents) fits every budget from 128 KB up — the sweep is flat by
    construction — so the sweep runs with 8x the queries, where 128 KB
    is under pressure and 1 MB is not."""
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "pipelines", "serving_obj.yaml")
    with open(path, encoding="utf-8") as fh:
        spec = fh.read().replace("queries: 96", "queries: 768")
    assert "queries: 768" in spec
    spec += """
sweep:
  - key: cluster.pcache_size
    values:
      - 131072
      - 1048576
"""
    seen = []

    def on_variant(cluster, variant, row):
        stats = cluster.system.stats()
        seen.append((stats["object.local_hit_bytes"],
                     stats.get("pcache.evictions_clean", 0.0)))

    rows = run_pipeline(spec, workdir=str(tmp_path),
                        on_variant=on_variant)
    assert [r["cluster.pcache_size"] for r in rows] == [131072, 1048576]
    (small_hits, small_evictions), (large_hits, large_evictions) = seen
    assert small_evictions > 0 == large_evictions
    assert small_hits < large_hits
    assert rows[0]["serving_qps"] < rows[1]["serving_qps"]


# -- crash-safe trace export (PR 4 regression) ------------------------------

BOOM_PIPELINE = """
name: Boom
cluster:
  n_nodes: 1
  procs_per_node: 1
  dram_mb: 16
app:
  kind: boom
"""


def _boom_app(ctx):
    """An app that dies while a traced process still holds an open
    span — the shape of any real mid-run pipeline failure."""
    def stuck():
        with ctx.cluster.tracer.span("stuck", "pcache", node=0):
            yield ctx.sim.timeout(100.0)

    ctx.sim.process(stuck())
    yield ctx.sim.timeout(1.0)
    raise RuntimeError("boom")


def test_failing_pipeline_still_exports_trace(tmp_path, monkeypatch):
    import json
    monkeypatch.setitem(APP_REGISTRY, "boom",
                        App(f"{__name__}:_boom_app", lambda *_: ()))
    trace = tmp_path / "crash.json"
    with pytest.raises(RuntimeError, match="boom"):
        run_pipeline(BOOM_PIPELINE, workdir=str(tmp_path),
                     trace_path=str(trace))
    assert trace.exists(), "crash dropped the trace"
    with open(trace, encoding="utf-8") as fh:
        doc = json.load(fh)
    stuck = [e for e in doc["traceEvents"]
             if e.get("ph") == "X" and e["name"] == "stuck"]
    assert stuck, doc["traceEvents"]
    # The open span was closed at sim.now and marked unfinished.
    assert stuck[0]["args"].get("unfinished") is True
    assert stuck[0]["dur"] == pytest.approx(1.0 * 1e6)


def test_cli_trace_defaults_into_workdir(tmp_path, capsys,
                                         monkeypatch):
    """`repro trace` without --out must land in the workdir (never the
    CWD) and print the resolved absolute path."""
    import json
    from repro.__main__ import main
    cwd = tmp_path / "somewhere-else"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    path = tmp_path / "p.yaml"
    path.write_text(MINI_KMEANS)
    work = tmp_path / "work"
    rc = main(["trace", str(path), "--workdir", str(work)])
    assert rc == 0
    out = capsys.readouterr().out
    expected = work / "trace.json"
    assert expected.exists()
    assert str(expected) in out          # resolved path was printed
    assert not list(cwd.iterdir()), "trace leaked into the CWD"
    with open(expected, encoding="utf-8") as fh:
        assert json.load(fh)["traceEvents"]


# -- report / diff subcommands ----------------------------------------------

def test_cli_report_on_trace_file(tmp_path, capsys):
    from repro.__main__ import main
    path = tmp_path / "p.yaml"
    path.write_text(MINI_KMEANS)
    rc = main(["trace", str(path), "--workdir", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["report", str(tmp_path / "trace.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "critical path total" in out
    assert "overlap ratio" in out


def test_cli_report_runs_pipeline_live(tmp_path, capsys):
    from repro.__main__ import main
    path = tmp_path / "p.yaml"
    path.write_text(MINI_KMEANS)
    rc = main(["report", str(path), "--workdir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "critical path by category" in out
    # Live mode extras: the backlog-gauge leg of Little's law and the
    # occupancy timelines.
    assert "gauge L=" in out
    assert "tier occupancy" in out
    assert "device load" in out
    assert "answered from their own stage-in" in out


def test_cli_report_json_and_out(tmp_path, capsys):
    import json
    import math
    from repro.__main__ import main
    path = tmp_path / "p.yaml"
    path.write_text(MINI_KMEANS)
    rc = main(["trace", str(path), "--workdir", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    report_path = tmp_path / "rep.json"
    rc = main(["report", str(tmp_path / "trace.json"), "--json",
               "--out", str(report_path)])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    saved = json.loads(report_path.read_text())
    assert printed == saved
    assert math.isfinite(saved["critical_path"]["total"])
    assert abs(sum(saved["critical_path"]["by_category"].values())
               - saved["makespan"]) <= 0.01 * saved["makespan"]


REPORT_KEYS = {"t0", "t1", "makespan", "n_spans", "critical_path",
               "overlap_ratio", "top_spans", "queueing", "occupancy",
               "devices", "scache"}
CRITICAL_PATH_KEYS = {"total", "by_category", "by_node", "by_tier"}


def _check_report_schema(doc, live):
    """Golden schema for `repro report --json` consumers."""
    assert set(doc) == REPORT_KEYS
    assert set(doc["critical_path"]) == CRITICAL_PATH_KEYS
    assert doc["makespan"] > 0
    assert doc["n_spans"] > 0
    assert 0.0 <= doc["overlap_ratio"] <= 1.0
    # The tiling invariant: per-category (and per-node, per-tier)
    # durations sum to the critical-path total == makespan.
    cp = doc["critical_path"]
    for axis in ("by_category", "by_node", "by_tier"):
        assert sum(cp[axis].values()) == pytest.approx(cp["total"])
    assert abs(cp["total"] - doc["makespan"]) \
        <= 0.01 * doc["makespan"]
    for span in doc["top_spans"]:
        assert {"name", "category", "node", "start", "duration",
                "unfinished"} <= set(span)
    for q in doc["queueing"].values():
        assert {"arrival_rate", "mean_wait", "little_L"} <= set(q)
    if live:
        # Live mode folds in monitor-only extras: tier occupancy
        # timelines and the backlog-gauge leg of Little's law.
        assert doc["occupancy"]
        for occ in doc["occupancy"].values():
            assert {"peak", "avg", "timeline"} <= set(occ)
        assert doc["devices"]
        for dev in doc["devices"].values():
            assert {"busy_s", "busy_share", "requests",
                    "bytes_per_request"} <= set(dev)
        assert set(doc["scache"]) == {"reads", "staged_reads"}
        assert 0 < doc["scache"]["staged_reads"] <= doc["scache"]["reads"]
    else:
        assert doc["occupancy"] == doc["devices"] == doc["scache"] == {}


def test_cli_report_json_golden_schema_both_modes(tmp_path, capsys):
    import json
    from repro.__main__ import main
    path = tmp_path / "p.yaml"
    path.write_text(MINI_KMEANS)
    rc = main(["trace", str(path), "--workdir", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()

    rc = main(["report", str(tmp_path / "trace.json"), "--json"])
    assert rc == 0
    _check_report_schema(json.loads(capsys.readouterr().out),
                         live=False)

    rc = main(["report", str(path), "--workdir", str(tmp_path),
               "--json"])
    assert rc == 0
    _check_report_schema(json.loads(capsys.readouterr().out),
                         live=True)


def test_cli_diff_two_traces(tmp_path, capsys):
    from repro.__main__ import main
    path = tmp_path / "p.yaml"
    path.write_text(MINI_KMEANS)
    for name, iters in (("a", 1), ("b", 2)):
        spec = tmp_path / f"{name}.yaml"
        spec.write_text(MINI_KMEANS.replace("max_iter: 2",
                                            f"max_iter: {iters}"))
        rc = main(["trace", str(spec), "--workdir", str(tmp_path),
                   "--out", str(tmp_path / f"{name}.json")])
        assert rc == 0
    capsys.readouterr()
    rc = main(["diff", str(tmp_path / "a.json"),
               str(tmp_path / "b.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "critical-path delta by category" in out
    assert "makespan" in out


def test_cli_diff_rejects_non_json(tmp_path, capsys):
    from repro.__main__ import main
    path = tmp_path / "p.yaml"
    path.write_text(MINI_KMEANS)
    rc = main(["diff", str(path), str(path)])
    assert rc == 2


def test_importing_the_runners_loads_no_app_and_no_tooling():
    """``setup_s`` of the benchmark is timed from process spawn: the
    two library runners must not drag in the obs plane, the chaos
    engine, Spark or any application (the app table imports a kind on
    its first launch)."""
    import subprocess
    import sys
    code = ("import sys, repro.pipeline, repro.tenancy\n"
            "print('\\n'.join(sorted(m for m in sys.modules "
            "if m.startswith('repro.'))))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout.split()
    assert "repro.pipeline" in out and "repro.tenancy.scheduler" in out
    heavy = [m for m in out
             if m.split(".")[1] in ("obs", "chaos", "spark")
             or (m.startswith("repro.apps.")
                 and m != "repro.apps.datagen")]
    assert not heavy, heavy


def app_table() -> str:
    """DESIGN.md "Running a spec": the app table, from the registry."""
    lines = ["| `app.kind` | function | style | tenant |",
             "|---|---|---|---|"]
    for kind, entry in APP_REGISTRY.items():
        lines.append(f"| `{kind}` | `{entry.target}` | "
                     f"{'driver' if entry.driver else 'per rank'} | "
                     f"{'yes' if entry.tenant else 'no'} |")
    return "\n".join(lines)


def test_design_app_table_is_the_registry():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "DESIGN.md"), encoding="utf-8") as fh:
        block = fh.read().split("<!-- app-table:begin -->")[1] \
            .split("<!-- app-table:end -->")[0].strip()
    assert block == app_table(), (
        "DESIGN.md's app table is stale; regenerate it with "
        "`PYTHONPATH=src python -m tests.test_pipeline`")


if __name__ == "__main__":
    print(app_table())


def test_placement_does_not_depend_on_the_workdir(tmp_path):
    """Blob and page placement hash a dataset URL by its path relative
    to the run's workdir: the same spec run in two directories of
    different length gives the same run, stat for stat."""
    spec = MINI_KMEANS.replace("  n: 4000\n", "  n: 40000\n")
    stats = []
    for sub in ("a", "a-much-longer-directory-name/b"):
        run_pipeline(spec, workdir=str(tmp_path / sub),
                     on_variant=lambda cluster, _v, _row:
                     stats.append(cluster.system.stats()))
    assert stats[0] == stats[1]
