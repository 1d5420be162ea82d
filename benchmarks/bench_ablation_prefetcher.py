"""Ablation: Algorithm 1 (prefetch + informed eviction) on/off.

DESIGN.md calls out the prefetcher as the mechanism behind Fig. 8's
flat region: with the pcache far smaller than the working set, a
sequential scan must overlap upcoming-page fetches with compute.
Disabling the prefetcher forces synchronous page faults on every miss.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.datagen import write_parquet_points
from repro.apps.kmeans import mm_kmeans
from benchmarks.common import emit_result, print_table, testbed, \
    write_csv

N_POINTS = 160_000


def run_ablation(tmp_path):
    path = tmp_path / "pts.parquet"
    write_parquet_points(str(path), N_POINTS, 8, seed=5)
    url = f"parquet://{path}"
    rows = []
    for prefetch in (True, False):
        cluster = testbed(n_nodes=2, dram_mb=48,
                          prefetch_enabled=prefetch, workdir=tmp_path)
        res = cluster.run(mm_kmeans, url, 8, 4, 0, 256 * 1024)
        rows.append(dict(
            prefetch=prefetch,
            runtime_s=round(res.runtime, 4),
            faults=int(res.stats.get("pcache.faults", 0)),
            prefetches=int(res.stats.get("pcache.prefetches", 0))))
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_prefetcher(benchmark, tmp_path):
    rows = benchmark.pedantic(run_ablation, args=(tmp_path,),
                              rounds=1, iterations=1)
    print_table("Ablation — prefetcher on/off", rows)
    write_csv("ablation_prefetcher", rows)
    on = next(r for r in rows if r["prefetch"])
    off = next(r for r in rows if not r["prefetch"])
    # Prefetching converts synchronous faults into async fills...
    assert on["faults"] < off["faults"]
    assert on["prefetches"] > 0 and off["prefetches"] == 0
    # ...and improves end-to-end runtime.
    assert on["runtime_s"] < off["runtime_s"]
    emit_result("ablation_prefetcher", "prefetcher.speedup",
                off["runtime_s"] / max(on["runtime_s"], 1e-9), "x",
                dict(n_nodes=2, points=N_POINTS))
