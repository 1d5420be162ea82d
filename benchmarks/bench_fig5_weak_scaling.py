"""Fig. 5: weak scaling, MegaMmap vs Spark/MPI, datasets in memory.

Paper setup (IV-B1, scaled GB -> MB, 48 -> 2 procs/node): per-node
datasets that fit entirely in DRAM; KMeans (2 MB/node, k=8, 4 iters)
and RF (128 KB/node, 1 tree, depth 10) against Spark; DBSCAN
(2 MB/node, eps=8, min_pts=64) and Gray-Scott (16 MB/node, no
checkpoints) against MPI. Expected shape: MegaMmap ≈ MPI, and up to
~2x faster than Spark, with Spark using 3-4x the DRAM.

Scale ladder overrides (so CI runs a small ladder while the 64-node
run stays reproducible from the CLI):

* ``MEGAMMAP_FIG5_NODES`` / ``--nodes`` — comma-separated node counts
  (default ``1,2,4``). Counts of :data:`LARGE_MIN` nodes and above run
  MegaMmap KMeans + Gray-Scott only — the Spark/MPI baselines stay on
  the small scales the paper's figure spans.
* ``MEGAMMAP_FIG5_SCALE`` / ``--scale`` — multiplier on the per-node
  dataset sizes (default 1.0). Weak scaling is preserved at any value:
  the per-node workload is constant across the ladder.

``python benchmarks/bench_fig5_weak_scaling.py --nodes 1,4,16,64``
reproduces the full ladder standalone; per-scale critical-path
breakdowns ride along in ``BENCH_fig5.json`` whenever span tracing is
enabled (``MEGAMMAP_TRACE=1``).
"""

from __future__ import annotations

import os
import sys

if __package__ in (None, ""):  # script mode: python benchmarks/bench_...
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, _ROOT)
    sys.path.insert(0, os.path.join(_ROOT, "src"))

import numpy as np
import pytest

from repro.apps.datagen import POINT3D, write_gadget_like, \
    write_parquet_points
from repro.apps.dbscan import mm_dbscan, mpi_dbscan
from repro.apps.grayscott import mm_gray_scott, mpi_gray_scott
from repro.apps.kmeans import mm_kmeans, spark_kmeans
from repro.apps.rf import mm_random_forest
from repro.apps.rf.spark_rf import spark_random_forest
from benchmarks.common import critical_breakdown, emit_result, \
    export_trace, print_table, testbed, write_csv

NODE_COUNTS = [1, 2, 4]

#: Node counts at or above this run the MegaMmap versions only.
LARGE_MIN = 8
PROCS_PER_NODE = 2

#: Scaled per-node dataset sizes (records), before MEGAMMAP_FIG5_SCALE.
KMEANS_PER_NODE = 40_000      # ~0.5 MB/node of Point3D
DBSCAN_PER_NODE = 4_000
RF_PER_NODE = 4_000
GS_L_BASE = 48                # L grows with cube root of node count


def _node_counts():
    env = os.environ.get("MEGAMMAP_FIG5_NODES", "").strip()
    if not env:
        return list(NODE_COUNTS)
    counts = [int(tok) for tok in env.replace(",", " ").split()]
    if not counts or any(n < 1 for n in counts):
        raise ValueError(f"bad MEGAMMAP_FIG5_NODES: {env!r}")
    return counts


def _scale() -> float:
    return float(os.environ.get("MEGAMMAP_FIG5_SCALE", "") or 1.0)


def _per_node(base: int, scale: float, floor: int = 500) -> int:
    return max(floor, int(base * scale))


def _gs_l(n_nodes: int, scale: float = 1.0) -> int:
    """Grid edge for weak scaling: total cells grow with nodes x scale,
    clamped so every rank owns at least one plane."""
    raw = GS_L_BASE * (n_nodes * scale) ** (1 / 3)
    nprocs = n_nodes * PROCS_PER_NODE
    return max(int(round(raw / 4) * 4), -(-nprocs // 4) * 4)


def run_weak_scaling(tmp_path):
    rows = []
    breakdowns = {}
    scale = _scale()
    for n in _node_counts():
        if n >= LARGE_MIN:
            rows.extend(_run_large_scale(tmp_path, n, scale))
            continue
        km_n = _per_node(KMEANS_PER_NODE, scale)
        db_n = _per_node(DBSCAN_PER_NODE, scale)
        rf_n = _per_node(RF_PER_NODE, scale)

        # --- KMeans: MegaMmap vs Spark ---
        path = tmp_path / f"km{n}.parquet"
        write_parquet_points(str(path), km_n * n, 8, seed=n)
        url = f"parquet://{path}"
        c = testbed(n_nodes=n, workdir=tmp_path)
        mm = c.run(mm_kmeans, url, 8, 4)
        if c.tracer.enabled:  # MEGAMMAP_TRACE=1 / testbed(trace=True)
            export_trace(c, f"fig5_kmeans_mm_{n}n")
            breakdowns[("KMeans", n)] = critical_breakdown(c)
        c2 = testbed(n_nodes=n, workdir=tmp_path)
        sp = c2.run_driver(spark_kmeans(c2, url, 8, 4))
        rows.append(dict(app="KMeans", nodes=n, procs=c.spec.nprocs,
                         mm_s=mm.runtime, baseline="Spark",
                         baseline_s=sp.runtime,
                         mm_dram_mb=mm.peak_dram_total / 2**20,
                         baseline_dram_mb=sp.peak_dram_total / 2**20))

        # --- DBSCAN: MegaMmap vs MPI ---
        path = tmp_path / f"db{n}.parquet"
        write_parquet_points(str(path), db_n * n, 8, seed=n)
        url = f"parquet://{path}"
        c = testbed(n_nodes=n, workdir=tmp_path)
        mm = c.run(mm_dbscan, url, 8.0, 16)
        c2 = testbed(n_nodes=n, workdir=tmp_path)
        mpi = c2.run(mpi_dbscan, url, 8.0, 16)
        rows.append(dict(app="DBSCAN", nodes=n, procs=c.spec.nprocs,
                         mm_s=mm.runtime, baseline="MPI",
                         baseline_s=mpi.runtime,
                         mm_dram_mb=mm.peak_dram_total / 2**20,
                         baseline_dram_mb=mpi.peak_dram_total / 2**20))

        # --- Random Forest: MegaMmap vs Spark ---
        snap = tmp_path / f"rf{n}.h5"
        labels = write_gadget_like(str(snap), rf_n * n, 8,
                                   seed=n)
        lab_path = tmp_path / f"rf{n}.labels"
        (labels + 1).astype(np.int32).tofile(lab_path)
        url, lurl = f"hdf5://{snap}:parttype0", f"posix://{lab_path}"
        c = testbed(n_nodes=n, workdir=tmp_path)
        mm = c.run(mm_random_forest, url, lurl, 1, 10, 4, 0,
                   128 * 1024)
        c2 = testbed(n_nodes=n, workdir=tmp_path)
        sp = c2.run_driver(spark_random_forest(
            c2, url, lurl, num_trees=1, max_depth=10, oob=4))
        rows.append(dict(app="RF", nodes=n, procs=c.spec.nprocs,
                         mm_s=mm.runtime, baseline="Spark",
                         baseline_s=sp.runtime,
                         mm_dram_mb=mm.peak_dram_total / 2**20,
                         baseline_dram_mb=sp.peak_dram_total / 2**20))

        # --- Gray-Scott: MegaMmap vs MPI (plotgap=0, in memory) ---
        L = _gs_l(n, scale)
        c = testbed(n_nodes=n, workdir=tmp_path)
        mm = c.run(mm_gray_scott, L, 3, 0, 2 * 1024 * 1024)
        c2 = testbed(n_nodes=n, workdir=tmp_path)
        mpi = c2.run(mpi_gray_scott, L, 3)
        rows.append(dict(app="Gray-Scott", nodes=n, procs=c.spec.nprocs,
                         mm_s=mm.runtime, baseline="MPI",
                         baseline_s=mpi.runtime,
                         mm_dram_mb=mm.peak_dram_total / 2**20,
                         baseline_dram_mb=mpi.peak_dram_total / 2**20))
    return rows, breakdowns


def _run_large_scale(tmp_path, n, scale):
    """One large rung of the ladder: MegaMmap KMeans + Gray-Scott (no
    Spark/MPI baselines — the paper's figure compares those at the
    small scales only)."""
    rows = []

    km_n = _per_node(KMEANS_PER_NODE, scale)
    path = tmp_path / f"km{n}.parquet"
    write_parquet_points(str(path), km_n * n, 8, seed=n)
    c = testbed(n_nodes=n, workdir=tmp_path)
    mm = c.run(mm_kmeans, f"parquet://{path}", 8, 4)
    rows.append(dict(app="KMeans", nodes=n, procs=c.spec.nprocs,
                     mm_s=mm.runtime, baseline=None,
                     baseline_s=None,
                     mm_dram_mb=mm.peak_dram_total / 2**20,
                     baseline_dram_mb=None))

    L = _gs_l(n, scale)
    c = testbed(n_nodes=n, workdir=tmp_path)
    mm = c.run(mm_gray_scott, L, 3, 0, 2 * 1024 * 1024)
    rows.append(dict(app="Gray-Scott", nodes=n, procs=c.spec.nprocs,
                     mm_s=mm.runtime, baseline=None,
                     baseline_s=None,
                     mm_dram_mb=mm.peak_dram_total / 2**20,
                     baseline_dram_mb=None))
    return rows


def _emit_rows(rows, breakdowns):
    scale = _scale()
    for r in rows:
        cfg = dict(nodes=r["nodes"], scale=scale)
        key = r["app"].lower().replace("-", "")
        emit_result("fig5", f"{key}.mm_runtime", r["mm_s"], "sim_s",
                    cfg, breakdown=breakdowns.get((r["app"],
                                                   r["nodes"])))
        if r["baseline_s"] is not None:
            emit_result("fig5", f"{key}.speedup_vs_baseline",
                        r["baseline_s"] / max(r["mm_s"], 1e-9), "x",
                        dict(**cfg, baseline=r["baseline"]))


@pytest.mark.benchmark(group="fig5")
def test_fig5_weak_scaling(benchmark, tmp_path):
    rows, breakdowns = benchmark.pedantic(
        run_weak_scaling, args=(tmp_path,), rounds=1, iterations=1)
    print_table("Fig. 5 — weak scaling (simulated seconds)", rows)
    write_csv("fig5_weak_scaling", rows)
    _emit_rows(rows, breakdowns)
    by_app = {}
    for r in rows:
        by_app.setdefault(r["app"], []).append(r)
    # Shape claims of Fig. 5 (baseline rows only — the large rungs
    # carry no Spark/MPI runs):
    for r in rows:
        if r["baseline"] == "Spark":
            # MegaMmap beats Spark (paper: "as much as 2x faster").
            assert r["mm_s"] < r["baseline_s"], r
            # Spark uses several times the DRAM (paper: 3-4x).
            assert r["baseline_dram_mb"] > 1.5 * r["mm_dram_mb"], r
        elif r["baseline"] == "MPI":
            # MegaMmap performs competitively to MPI (within 2x at
            # this scale; the paper shows near-parity at 48 procs/node).
            assert r["mm_s"] < 2.0 * r["baseline_s"], r
    # Weak scaling: runtime grows sublinearly with node count for the
    # MegaMmap versions (no coherence blow-up).
    for app, app_rows in by_app.items():
        app_rows.sort(key=lambda r: r["nodes"])
        first, last = app_rows[0], app_rows[-1]
        factor = last["nodes"] / first["nodes"]
        assert last["mm_s"] < factor * max(first["mm_s"], 1e-9) * 2, app


def main(argv=None) -> int:
    import argparse
    import tempfile
    from pathlib import Path

    ap = argparse.ArgumentParser(
        description="Fig. 5 weak scaling, CLI-reproducible at any "
                    "ladder (e.g. --nodes 1,4,16,64)")
    ap.add_argument("--nodes", default=None,
                    help="comma-separated node counts "
                         "(default 1,2,4; >= 8 runs MegaMmap only)")
    ap.add_argument("--scale", type=float, default=None,
                    help="per-node dataset multiplier (default 1.0)")
    args = ap.parse_args(argv)
    if args.nodes is not None:
        os.environ["MEGAMMAP_FIG5_NODES"] = args.nodes
    if args.scale is not None:
        os.environ["MEGAMMAP_FIG5_SCALE"] = str(args.scale)
    with tempfile.TemporaryDirectory() as td:
        rows, breakdowns = run_weak_scaling(Path(td))
    print_table("Fig. 5 — weak scaling (simulated seconds)", rows)
    write_csv("fig5_weak_scaling", rows)
    _emit_rows(rows, breakdowns)
    return 0


if __name__ == "__main__":
    sys.exit(main())
