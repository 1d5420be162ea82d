"""Shared benchmark harness: scaled testbed builders, CSV, tables.

Scaling convention (DESIGN.md): the paper's testbed quantities are kept
in *ratio* but divided by 1024 (GB -> MB) and node/process counts are
reduced (48 procs/node -> 2). Every simulated cost is bytes/bandwidth,
so relative results — who wins, by what factor, where the knees sit —
are invariant; absolute seconds are not comparable to the paper's.

Each ``bench_*.py`` regenerates one table/figure: it sweeps the same
parameters the paper sweeps, prints rows in the paper's shape, writes
``benchmarks/results/<name>.csv`` (the artifact's ``stats_dict.csv``
role), and asserts the figure's qualitative claims.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Dict, List, Optional, Sequence

from benchmarks.e2e.cli import provenance
from repro.cluster import ClusterSpec, SimCluster
from repro.core.config import MegaMmapConfig
from repro.storage.device import DeviceSpec
from repro.storage.tiers import (DRAM, HDD, MB, NVME, PMEM, SATA_SSD,
                                 scaled)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Scaled testbed per-node tiers (paper IV-A1, GB -> MB).
NODE_DRAM_MB = 48
NODE_NVME_MB = 128
NODE_SSD_MB = 256
NODE_HDD_MB = 1024


def testbed(n_nodes=4, procs_per_node=2, dram_mb=NODE_DRAM_MB,
            pmem_mb=0, nvme_mb=NODE_NVME_MB, ssd_mb=0, hdd_mb=0,
            page_size=64 * 1024, pcache=512 * 1024,
            pfs_spec=None, pfs_servers=2, seed=0,
            trace=None, workdir=None, **cfg) -> SimCluster:
    """A scaled replica of the paper's cluster.

    ``trace=True`` enables span tracing on the cluster (see
    :mod:`repro.sim.trace`); the default defers to the
    ``MEGAMMAP_TRACE`` environment variable so any benchmark can be
    rerun with tracing without editing it. ``MEGAMMAP_TRACE=sample``
    enables the always-on sampled mode instead: tail-based retention
    at a 10% head rate (unless the benchmark already pins
    ``trace_sample_rate``).

    ``workdir`` is the directory the bench's dataset URLs live in:
    placement then hashes each dataset's path relative to it, so the
    numbers do not depend on where that directory is.
    """
    tiers = [scaled(DRAM, dram_mb * MB)]
    if pmem_mb:
        tiers.append(scaled(PMEM, pmem_mb * MB))
    if nvme_mb:
        tiers.append(scaled(NVME, nvme_mb * MB))
    if ssd_mb:
        tiers.append(scaled(SATA_SSD, ssd_mb * MB))
    if hdd_mb:
        tiers.append(scaled(HDD, hdd_mb * MB))
    env_trace = os.environ.get("MEGAMMAP_TRACE", "")
    if env_trace == "sample" and "trace_sample_rate" not in cfg:
        cfg["trace_sample_rate"] = 0.1
    if trace is None:
        trace = env_trace not in ("", "0")
    cluster = SimCluster(
        n_nodes=n_nodes, procs_per_node=procs_per_node,
        tiers=tuple(tiers),
        pfs_servers=pfs_servers,
        pfs_spec=pfs_spec or scaled(HDD, 16 * 1024 * MB),
        config=MegaMmapConfig(page_size=page_size, pcache_size=pcache,
                              **cfg),
        seed=seed,
        trace=bool(trace),
    )
    if workdir is not None:
        cluster.system.hermes.mdm.workdir = str(workdir)
    return cluster


testbed.__test__ = False  # a helper whose name pytest would collect


def export_trace(cluster: SimCluster, name: str) -> str:
    """Write a cluster's recorded spans to
    ``benchmarks/results/<name>.trace.json`` (Chrome trace format);
    returns the path. A no-op empty trace is written when the cluster
    ran without tracing."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.trace.json")
    return cluster.export_trace(path)


def critical_breakdown(cluster: SimCluster) -> Optional[Dict]:
    """Critical-path summary of a traced cluster run, in the compact
    shape BENCH_*.json records carry (``emit_result(breakdown=...)``).

    Returns None when the cluster ran without tracing (the usual
    perf-benchmark mode) or recorded no spans — callers can pass the
    result straight through unconditionally.
    """
    if not getattr(cluster.tracer, "enabled", False):
        return None
    from repro.obs import SpanGraph, analyze
    from repro.obs.report import analysis_summary
    graph = SpanGraph.from_tracer(cluster.tracer)
    if not len(graph):
        return None
    return analysis_summary(analyze(graph, top_k=0))


def emit_result(name: str, metric: str, value: float, unit: str,
                sim_config: Optional[Dict] = None,
                breakdown: Optional[Dict] = None) -> str:
    """Record one standardized result in the perf trajectory, in place
    of the earlier record of the same ``(metric, sim_config)``.

    ``benchmarks/results/BENCH_<name>.json`` is a JSON list of
    ``{name, metric, value, unit, sim_config, commit, utc, host_cpus}``
    objects -- one file per benchmark, one record per metric and
    configuration (``fig5``'s ``<app>.mm_runtime`` keeps one per node
    count), the newest last, so CI can diff throughput across commits
    and a wall-clock figure names the host it was taken on. Returns the
    file path.

    ``breakdown`` (see :func:`critical_breakdown`) attaches a
    ``critical_path`` field — per-category durations plus the overlap
    ratio — so the trajectory records *where* the time went, not just
    how much there was. Old records without the field stay valid.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    records: List[Dict] = []
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                records = json.load(fh)
            if not isinstance(records, list):
                records = []
        except (OSError, ValueError):
            records = []
    record = {
        "name": name,
        "metric": metric,
        "value": float(value),
        "unit": unit,
        "sim_config": dict(sim_config or {}),
    }
    where = provenance(0)
    record.update({k: where[k] for k in ("commit", "utc", "host_cpus")})
    if breakdown is not None:
        record["critical_path"] = breakdown
    key = (metric, record["sim_config"])
    records = [r for r in records
               if (r.get("metric"), r.get("sim_config")) != key]
    records.append(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")
    return path


def read_results(name: str) -> List[Dict]:
    """Load the records previously emitted for ``name`` (empty list
    when the benchmark has not run yet)."""
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(name: str, rows: List[Dict]) -> str:
    """Persist rows as benchmarks/results/<name>.csv; returns path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.csv")
    if rows:
        keys = list(rows[0].keys())
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            writer.writerows(rows)
    return path


def print_table(title: str, rows: List[Dict],
                columns: Sequence[str] = ()) -> None:
    """Render rows as a fixed-width table on stdout."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    cols = list(columns) or list(rows[0].keys())
    widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in rows))
              for c in cols}
    header = "  ".join(c.ljust(widths[c]) for c in cols)
    print(header)
    print("-" * len(header))
    for r in rows:
        print("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in cols))


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 100 or float(v).is_integer():
            return f"{v:.1f}"
        return f"{v:.4g}"
    return str(v)
