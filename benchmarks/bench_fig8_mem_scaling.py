"""Fig. 8: lowering DRAM consumption with intelligent tiering.

Paper setup (IV-B4, scaled): fixed datasets, all four MegaMmap apps,
sweeping the per-node DRAM capacity downward; overflow fits in NVMe.
The x-axis is expressed as a *fraction of the per-node working set*
(the paper sweeps 4-32 GB against 32 GB/node datasets). Expected shape
per panel: runtime stays close to the full-DRAM runtime until DRAM has
been cut substantially (paper: KMeans 2.6x less, DBSCAN/RF 2x,
Gray-Scott 1.6x at <10% loss), then degrades (paper: up to ~2.5x) as
synchronous faults and NVMe spills take over.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.datagen import POINT3D, write_gadget_like, \
    write_parquet_points
from repro.apps.dbscan import mm_dbscan
from repro.apps.grayscott import mm_gray_scott
from repro.apps.kmeans import mm_kmeans
from repro.apps.rf import mm_random_forest
from repro.apps.rf.common import FEATURE6
from benchmarks.common import emit_result, print_table, testbed, \
    write_csv

N_NODES = 4
#: Per-node DRAM as a fraction of the app's per-node working set.
FRACTIONS = [4.0, 2.0, 1.0, 0.5]
NVME_MB = 256

KMEANS_N = 200_000
DBSCAN_N = 12_000
RF_N = 40_000
GS_L = 64


def _apps(tmp_path):
    km_path = tmp_path / "km.parquet"
    write_parquet_points(str(km_path), KMEANS_N, 8, seed=1)
    db_path = tmp_path / "db.parquet"
    write_parquet_points(str(db_path), DBSCAN_N, 8, seed=2)
    rf_snap = tmp_path / "rf.h5"
    labels = write_gadget_like(str(rf_snap), RF_N, 8, seed=3)
    rf_labels = tmp_path / "rf.labels"
    (labels + 1).astype(np.int32).tofile(rf_labels)

    def kmeans(cluster, pcache):
        return cluster.run(mm_kmeans, f"parquet://{km_path}", 8, 4, 0,
                           pcache)

    def dbscan(cluster, pcache):
        return cluster.run(mm_dbscan, f"parquet://{db_path}", 8.0, 16,
                           0, pcache)

    def rf(cluster, pcache):
        return cluster.run(mm_random_forest,
                           f"hdf5://{rf_snap}:parttype0",
                           f"posix://{rf_labels}", 1, 10, 4, 0, pcache)

    def grayscott(cluster, pcache):
        return cluster.run(mm_gray_scott, GS_L, 3, 1, pcache)

    # (name, runner, per-node working set bytes)
    return [
        ("KMeans", kmeans, KMEANS_N * POINT3D.itemsize / N_NODES),
        ("DBSCAN", dbscan, DBSCAN_N * POINT3D.itemsize / N_NODES),
        ("RF", rf, RF_N * FEATURE6.itemsize / N_NODES),
        # Two fields x two parities of the grid, plus checkpoint flow.
        ("Gray-Scott", grayscott, 4 * GS_L ** 3 * 8 / N_NODES),
    ]


def run_mem_scaling(tmp_path):
    rows = []
    for app, runner, ws in _apps(tmp_path):
        for frac in FRACTIONS:
            dram = max(256 * 1024, int(frac * ws))
            cluster = testbed(n_nodes=N_NODES, nvme_mb=NVME_MB,
                              dram_mb=max(1, dram // 2 ** 20),
                              workdir=tmp_path)
            # Set the DRAM cap precisely (testbed rounds to MB).
            for dmsh in cluster.dmshs:
                dmsh.tiers[0].spec = dmsh.tiers[0].spec.with_capacity(
                    dram)
            pcache = max(2 * cluster.spec.config.page_size, dram // 4)
            res = runner(cluster, pcache)
            rows.append(dict(
                app=app, dram_frac=frac,
                dram_mb=round(dram / 2 ** 20, 2),
                runtime_s=round(res.runtime, 4),
                peak_dram_mb=round(res.peak_dram_node / 2 ** 20, 2),
                nvme_mb=round(sum(
                    d.tier("nvme").bytes_written
                    for d in cluster.dmshs) / 2 ** 20, 2)))
    return rows


@pytest.mark.benchmark(group="fig8")
def test_fig8_mem_scaling(benchmark, tmp_path):
    rows = benchmark.pedantic(run_mem_scaling, args=(tmp_path,),
                              rounds=1, iterations=1)
    print_table("Fig. 8 — DRAM scaling (4 nodes; DRAM as a fraction "
                "of the per-node working set)", rows)
    write_csv("fig8_mem_scaling", rows)
    by_app = {}
    for r in rows:
        by_app.setdefault(r["app"], {})[r["dram_frac"]] = r
    for app, sweep in by_app.items():
        base = sweep[max(FRACTIONS)]["runtime_s"]
        # DRAM cut in half relative to the working set: performance
        # stays competitive (paper: within 10% at 2-2.6x reduction; we
        # allow 40% at this scale's larger fixed-overhead share).
        assert sweep[2.0]["runtime_s"] < 1.4 * base, app
        # Starving DRAM never *helps*: the curve is flat-then-rising.
        assert sweep[min(FRACTIONS)]["runtime_s"] > 0.85 * base, app
        # The cap really constrains the node's memory.
        assert sweep[min(FRACTIONS)]["peak_dram_mb"] \
            <= sweep[max(FRACTIONS)]["peak_dram_mb"] + 0.01, app
        emit_result("fig8", f"{app.lower()}.slowdown_half_dram",
                    sweep[0.5]["runtime_s"] / max(base, 1e-9), "x",
                    dict(n_nodes=N_NODES, dram_frac=0.5))
    # Under the smallest caps the overflow really lands on NVMe for
    # the data-heavy apps.
    smallest = min(FRACTIONS)
    assert by_app["Gray-Scott"][smallest]["nvme_mb"] > 0
    assert by_app["KMeans"][smallest]["nvme_mb"] > 0