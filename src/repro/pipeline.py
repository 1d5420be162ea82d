"""Jarvis-style workflow pipelines (the paper's AD appendix).

The paper's artifact drives every experiment through Jarvis-CD YAML
workflow files (``test/unit/iter-pipelines/*.yaml``): each file
declares the deployment, the application, the variables to sweep, and
where to aggregate statistics ("Jarvis produces a single CSV file
that, for each tested configuration, contains the aggregated resource
utilization statistics and application runtime").

This module is that runner for the simulated cluster. A pipeline file
looks like::

    name: mm_kmeans_mega
    cluster:
      n_nodes: 4
      procs_per_node: 2
      dram_mb: 48
      nvme_mb: 128
    dataset:
      kind: points          # points | gadget | none
      n: 100000
      k: 8
      path: points.parquet
    app:
      kind: mm_kmeans       # see APP_REGISTRY
      k: 8
      max_iter: 4
    sweep:                  # optional grid search, jarvis-style
      - key: cluster.dram_mb
        values: [8, 16, 32]
    output: stats_dict.csv

Run with :func:`run_pipeline` or ``python -m repro <file.yaml>``.
"""

from __future__ import annotations

import copy
import csv
import itertools
import os
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.apps.datagen import write_gadget_like, write_parquet_points
from repro.cluster import SimCluster
from repro.core.config import MegaMmapConfig
from repro.core.errors import MegaMmapError
from repro.storage.tiers import (DRAM, HDD, MB, NVME, PMEM, SATA_SSD,
                                 scaled)
from repro.core.config import load_yaml_subset


class PipelineError(MegaMmapError):
    """Malformed pipeline description."""


# ---------------------------------------------------------------------------
# Application registry: kind -> launcher(cluster, spec, workdir) -> RunResult
# ---------------------------------------------------------------------------

def _kmeans_urls(spec, workdir):
    return f"parquet://{os.path.join(workdir, spec['dataset']['path'])}"


def _run_mm_kmeans(cluster, spec, workdir):
    from repro.apps.kmeans import mm_kmeans
    app = spec["app"]
    return cluster.run(mm_kmeans, _kmeans_urls(spec, workdir),
                       app.get("k", 8), app.get("max_iter", 4),
                       app.get("seed", 0), app.get("pcache"))


def _run_spark_kmeans(cluster, spec, workdir):
    from repro.apps.kmeans import spark_kmeans
    app = spec["app"]
    return cluster.run_driver(spark_kmeans(
        cluster, _kmeans_urls(spec, workdir), app.get("k", 8),
        app.get("max_iter", 4), app.get("seed", 0)))


def _run_mm_dbscan(cluster, spec, workdir):
    from repro.apps.dbscan import mm_dbscan
    app = spec["app"]
    return cluster.run(mm_dbscan, _kmeans_urls(spec, workdir),
                       float(app.get("eps", 8.0)),
                       app.get("min_pts", 64), app.get("seed", 0),
                       app.get("pcache"))


def _run_mpi_dbscan(cluster, spec, workdir):
    from repro.apps.dbscan import mpi_dbscan
    app = spec["app"]
    return cluster.run(mpi_dbscan, _kmeans_urls(spec, workdir),
                       float(app.get("eps", 8.0)),
                       app.get("min_pts", 64), app.get("seed", 0))


def _rf_urls(spec, workdir):
    base = os.path.join(workdir, spec["dataset"]["path"])
    return f"hdf5://{base}:parttype0", f"posix://{base}.labels"


def _run_mm_rf(cluster, spec, workdir):
    from repro.apps.rf import mm_random_forest
    url, lurl = _rf_urls(spec, workdir)
    app = spec["app"]
    return cluster.run(mm_random_forest, url, lurl,
                       app.get("num_trees", 1), app.get("max_depth", 10),
                       app.get("oob", 4), app.get("seed", 0),
                       app.get("pcache"))


def _run_spark_rf(cluster, spec, workdir):
    from repro.apps.rf.spark_rf import spark_random_forest
    url, lurl = _rf_urls(spec, workdir)
    app = spec["app"]
    return cluster.run_driver(spark_random_forest(
        cluster, url, lurl, num_trees=app.get("num_trees", 1),
        max_depth=app.get("max_depth", 10), oob=app.get("oob", 4),
        seed=app.get("seed", 0)))


def _run_mm_gray_scott(cluster, spec, workdir):
    from repro.apps.grayscott import GSParams, mm_gray_scott
    app = spec["app"]
    L, plotgap = app.get("L", 32), app.get("plotgap", 0)
    # The grid size is part of the name: sweep variants share a workdir
    # and a file-backed vector adopts an existing file's length.
    prefix = f"posix://{os.path.join(workdir, f'gs_ckpt_L{L}')}" \
        if plotgap else None
    res = cluster.run(mm_gray_scott, L, app.get("steps", 3), plotgap,
                      app.get("pcache"), GSParams(), prefix)
    if prefix is not None:
        # End of the job: drain the stager so the checkpoints reach
        # the PFS.
        cluster.shutdown()
    return res


def _run_mm_stream(cluster, spec, workdir):
    from repro.apps.stream import mm_stream
    app = spec["app"]
    return cluster.run(mm_stream, _kmeans_urls(spec, workdir),
                       app.get("passes", 1), app.get("pcache"))


def _run_mm_serving(cluster, spec, workdir):
    from repro.apps.serving import mm_serving
    app = spec["app"]
    return cluster.run(mm_serving,
                       app.get("n_keys", 1 << 14),
                       app.get("obj_bytes", 64),
                       app.get("queries", 128),
                       app.get("lookups", 8),
                       app.get("zipf_s", 1.2),
                       app.get("write_frac", 0.05),
                       app.get("qps", 2000.0),
                       app.get("api", "object"),
                       app.get("pcache"),
                       app.get("partition_writes", True))


def _run_mpi_gray_scott(cluster, spec, workdir):
    from repro.apps.grayscott import mpi_gray_scott
    app = spec["app"]
    io = cluster.pfs if app.get("plotgap") else None
    return cluster.run(mpi_gray_scott, app.get("L", 32),
                       app.get("steps", 3), app.get("plotgap", 0), io)


APP_REGISTRY: Dict[str, Callable] = {
    "mm_kmeans": _run_mm_kmeans,
    "spark_kmeans": _run_spark_kmeans,
    "mm_dbscan": _run_mm_dbscan,
    "mpi_dbscan": _run_mpi_dbscan,
    "mm_random_forest": _run_mm_rf,
    "spark_random_forest": _run_spark_rf,
    "mm_gray_scott": _run_mm_gray_scott,
    "mpi_gray_scott": _run_mpi_gray_scott,
    "mm_stream": _run_mm_stream,
    "mm_serving": _run_mm_serving,
}

#: cluster-section keys consumed by the builder (everything else goes
#: to MegaMmapConfig).
_CLUSTER_KEYS = {"n_nodes", "procs_per_node", "dram_mb", "pmem_mb",
                 "nvme_mb", "ssd_mb", "hdd_mb", "pfs_servers", "seed"}


def build_cluster(section: Dict[str, Any]) -> SimCluster:
    """Construct a SimCluster from a pipeline's ``cluster`` section."""
    section = dict(section or {})
    tiers = [scaled(DRAM, int(float(section.get("dram_mb", 48)) * MB))]
    if section.get("pmem_mb", 0):
        tiers.append(scaled(PMEM, int(section["pmem_mb"]) * MB))
    if section.get("nvme_mb", 128):
        tiers.append(scaled(NVME, int(section.get("nvme_mb", 128)) * MB))
    if section.get("ssd_mb", 0):
        tiers.append(scaled(SATA_SSD, int(section["ssd_mb"]) * MB))
    if section.get("hdd_mb", 0):
        tiers.append(scaled(HDD, int(section["hdd_mb"]) * MB))
    cfg_kwargs = {k: v for k, v in section.items()
                  if k not in _CLUSTER_KEYS}
    return SimCluster(
        n_nodes=int(section.get("n_nodes", 4)),
        procs_per_node=int(section.get("procs_per_node", 2)),
        pfs_servers=int(section.get("pfs_servers", 2)),
        tiers=tuple(tiers),
        seed=int(section.get("seed", 0)),
        config=MegaMmapConfig.from_dict(cfg_kwargs),
    )


def prepare_dataset(section: Optional[Dict[str, Any]],
                    workdir: str) -> None:
    """Materialize the pipeline's dataset in ``workdir``."""
    if not section or section.get("kind", "none") == "none":
        return
    kind = section["kind"]
    path = os.path.join(workdir, section.get("path", "data"))
    if os.path.exists(path):
        return
    n = int(section.get("n", 10_000))
    k = int(section.get("k", 8))
    seed = int(section.get("seed", 0))
    if kind == "points":
        write_parquet_points(path, n, k, seed=seed)
    elif kind == "gadget":
        labels = write_gadget_like(path, n, k, seed=seed)
        (labels + 1).astype(np.int32).tofile(path + ".labels")
    else:
        raise PipelineError(f"unknown dataset kind {kind!r}")


def _expand_sweep(spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Grid-search expansion: the cross product of all sweep axes."""
    sweep = spec.get("sweep") or []
    if not sweep:
        return [spec]
    axes = []
    for axis in sweep:
        if "key" not in axis or "values" not in axis:
            raise PipelineError("sweep entries need 'key' and 'values'")
        axes.append([(axis["key"], v) for v in axis["values"]])
    out = []
    for combo in itertools.product(*axes):
        variant = copy.deepcopy(spec)
        for key, value in combo:
            _set_path(variant, key, value)
        out.append(variant)
    return out


def _set_path(spec: Dict[str, Any], dotted: str, value: Any) -> None:
    parts = dotted.split(".")
    node = spec
    for p in parts[:-1]:
        node = node.setdefault(p, {})
    node[parts[-1]] = value


def _get_path(spec: Dict[str, Any], dotted: str) -> Any:
    node = spec
    for p in dotted.split("."):
        node = node[p]
    return node


def run_pipeline(text_or_path: str, workdir: Optional[str] = None,
                 trace_path: Optional[str] = None,
                 on_variant: Optional[Callable] = None,
                 on_cluster: Optional[Callable] = None
                 ) -> List[Dict[str, Any]]:
    """Execute a pipeline; returns (and persists) the stats rows.

    ``trace_path`` enables span tracing on every variant's cluster and
    writes Chrome-trace-format JSON there (sweep variants append
    ``.<i>`` before the extension). ``on_variant(cluster, variant,
    row)`` is invoked after each variant completes, while the cluster
    (tracer, monitor) is still live — the hook `repro report` uses for
    live-mode analysis. ``on_cluster(cluster, variant)`` is invoked
    right after each variant's cluster is built and before the app
    runs — the hook `repro chaos` uses to install fault injection and
    the history recorder.
    """
    if os.path.exists(text_or_path):
        with open(text_or_path, encoding="utf-8") as fh:
            text = fh.read()
        default_dir = os.path.dirname(os.path.abspath(text_or_path))
    else:
        text = text_or_path
        default_dir = os.getcwd()
    spec = load_yaml_subset(text)
    if not isinstance(spec, dict) or "app" not in spec:
        raise PipelineError("pipeline must be a mapping with an 'app'")
    kind = spec["app"].get("kind")
    if kind not in APP_REGISTRY:
        raise PipelineError(
            f"unknown app kind {kind!r}; known: {sorted(APP_REGISTRY)}")
    workdir = workdir or default_dir
    os.makedirs(workdir, exist_ok=True)
    rows: List[Dict[str, Any]] = []
    variants = _expand_sweep(spec)
    for i, variant in enumerate(variants):
        prepare_dataset(variant.get("dataset"), workdir)
        cluster = build_cluster(variant.get("cluster"))
        if trace_path:
            cluster.tracer.enabled = True
        if on_cluster is not None:
            on_cluster(cluster, variant)
        trace_file = None
        if trace_path:
            trace_file = trace_path
            if len(variants) > 1:
                root, ext = os.path.splitext(trace_path)
                trace_file = f"{root}.{i}{ext or '.json'}"
        try:
            res = APP_REGISTRY[kind](cluster, variant, workdir)
        except BaseException:
            # Still export the partial trace on a mid-run crash —
            # spans open at the failure point come out clipped at
            # sim.now with an `unfinished` marker, which is exactly
            # the timeline a post-mortem needs.
            if trace_file:
                cluster.export_trace(trace_file)
            raise
        if trace_file:
            cluster.export_trace(trace_file)
        row: Dict[str, Any] = {
            "app": variant.get("name", kind),
            "nprocs": cluster.spec.nprocs,
            "nodes": cluster.spec.n_nodes,
            "runtime_s": res.runtime,
            "crashed": res.oom,
            "peak_dram_node_mb": res.peak_dram_node / 2 ** 20,
            "peak_dram_total_mb": res.peak_dram_total / 2 ** 20,
            "net_mb": res.stats.get("net.bytes_moved", 0) / 2 ** 20,
            "pcache_faults": int(res.stats.get("pcache.faults", 0)),
            "pcache_prefetches": int(res.stats.get("pcache.prefetches",
                                                   0)),
            "stager_in_mb": res.stats.get("stager.bytes_in", 0) / 2 ** 20,
            "stager_requests_in": int(res.stats.get("stager.requests_in",
                                                    0)),
            "stager_requests_ahead": int(res.stats.get(
                "stager.requests_ahead", 0)),
            "nvme_read_mb": sum(
                v for k, v in res.stats.items()
                if k.endswith(".nvme.bytes_read")) / 2 ** 20,
        }
        if res.stats.get("serving.queries"):
            # Serving workloads surface their headline rate directly
            # in the stats row (queries are counted once per rank).
            row["serving_qps"] = round(
                res.stats["serving.queries"] / res.runtime, 1)
            row["object_reads"] = int(res.stats.get("object.reads", 0))
        for axis in variant.get("sweep_echo", []) or []:
            row[axis] = _get_path(variant, axis)
        for axis in (spec.get("sweep") or []):
            row[axis["key"]] = _get_path(variant, axis["key"])
        if trace_file:
            row["trace_file"] = trace_file
        if on_variant is not None:
            on_variant(cluster, variant, row)
        rows.append(row)
    out_name = spec.get("output", "stats_dict.csv")
    out_path = os.path.join(workdir, out_name)
    if rows:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return rows
