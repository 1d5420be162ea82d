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
import importlib
import itertools
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.datagen import write_gadget_like, write_parquet_points
from repro.cluster import RunResult, SimCluster
from repro.core.config import MegaMmapConfig, load_yaml_subset
from repro.core.errors import MegaMmapError
from repro.storage.tiers import (DRAM, HDD, MB, NVME, PMEM, SATA_SSD,
                                 scaled)


class PipelineError(MegaMmapError):
    """Malformed pipeline description."""


# ---------------------------------------------------------------------------
# The app table: kind -> where the function lives, how its arguments
# are read off the spec, how it is started. ``run_pipeline`` and the
# tenant scheduler both launch from it.
# ---------------------------------------------------------------------------

class Urls:
    """Where one launch's files live: the spec's dataset, and outputs
    in the workdir under the owner's name (``"<job>."`` for a tenant,
    so two colocated jobs cannot collide)."""

    def __init__(self, dataset: Optional[Dict[str, Any]], workdir: str,
                 owner: str = ""):
        self.dataset, self.workdir, self.owner = dataset, workdir, owner
        #: An output URL was handed out: the launch ends by draining
        #: the stager, so what the app persisted reaches the PFS.
        self.wrote = False

    def data(self, scheme: str, suffix: str = "") -> str:
        if not self.dataset or "path" not in self.dataset:
            raise PipelineError(
                f"{self.owner}app needs a dataset with a 'path'")
        path = os.path.join(self.workdir, self.dataset["path"])
        return f"{scheme}://{path}{suffix}"

    def out(self, name: str) -> str:
        self.wrote = True
        return f"posix://{os.path.join(self.workdir, self.owner + name)}"


def _mm_kmeans(app, urls, cluster):
    return (urls.data("parquet"), app.get("k", 8), app.get("max_iter", 4),
            app.get("seed", 0), app.get("pcache"))


def _spark_kmeans(app, urls, cluster):
    return (urls.data("parquet"), app.get("k", 8), app.get("max_iter", 4),
            app.get("seed", 0))


def _mpi_dbscan(app, urls, cluster):
    return (urls.data("parquet"), float(app.get("eps", 8.0)),
            app.get("min_pts", 64), app.get("seed", 0))


def _mm_dbscan(app, urls, cluster):
    return _mpi_dbscan(app, urls, cluster) + (app.get("pcache"),)


def _spark_rf(app, urls, cluster):
    return (urls.data("hdf5", ":parttype0"), urls.data("posix", ".labels"),
            app.get("num_trees", 1), app.get("max_depth", 10),
            app.get("oob", 4), app.get("seed", 0))


def _mm_rf(app, urls, cluster):
    return _spark_rf(app, urls, cluster) + (app.get("pcache"),)


def _mm_gray_scott(app, urls, cluster):
    from repro.apps.grayscott import GSParams
    L, plotgap = app.get("L", 32), app.get("plotgap", 0)
    # The grid size is part of the name: sweep variants share a workdir
    # and a file-backed vector adopts an existing file's length.
    prefix = urls.out(f"gs_ckpt_L{L}") if plotgap else None
    return (L, app.get("steps", 3), plotgap, app.get("pcache"),
            GSParams(), prefix)


def _mpi_gray_scott(app, urls, cluster):
    plotgap = app.get("plotgap", 0)
    return (app.get("L", 32), app.get("steps", 3), plotgap,
            cluster.pfs if plotgap else None)


def _mm_stream(app, urls, cluster):
    return urls.data("parquet"), app.get("passes", 1), app.get("pcache")


def _mm_serving(app, urls, cluster):
    return (app.get("n_keys", 1 << 14), app.get("obj_bytes", 64),
            app.get("queries", 128), app.get("lookups", 8),
            app.get("zipf_s", 1.2), app.get("write_frac", 0.05),
            app.get("qps", 2000.0), app.get("api", "object"),
            app.get("pcache"), app.get("partition_writes", True))


@dataclass(frozen=True)
class App:
    """One row of the app table."""

    #: ``"module:function"``, imported on the first launch — importing
    #: this module loads no app.
    target: str
    #: ``(app section, Urls, cluster) -> tuple`` of the function's
    #: arguments after its first; every default is written here, once.
    args: Callable[[Dict[str, Any], Urls, SimCluster], tuple]
    #: ``fn(cluster, *args)`` is one driver generator (Spark) instead
    #: of ``fn(ctx, *args)`` on every rank.
    driver: bool = False
    #: May run as a colocated tenant (its keys are namespaced, its
    #: pages charged to a quota).
    tenant: bool = False

    def load(self) -> Callable:
        module, name = self.target.split(":")
        return getattr(importlib.import_module(module), name)


APP_REGISTRY: Dict[str, App] = {
    "mm_kmeans": App("repro.apps.kmeans:mm_kmeans", _mm_kmeans,
                     tenant=True),
    "spark_kmeans": App("repro.apps.kmeans:spark_kmeans", _spark_kmeans,
                        driver=True, tenant=True),
    "mm_dbscan": App("repro.apps.dbscan:mm_dbscan", _mm_dbscan,
                     tenant=True),
    "mpi_dbscan": App("repro.apps.dbscan:mpi_dbscan", _mpi_dbscan),
    "mm_random_forest": App("repro.apps.rf:mm_random_forest", _mm_rf),
    "spark_random_forest": App(
        "repro.apps.rf.spark_rf:spark_random_forest", _spark_rf,
        driver=True),
    "mm_gray_scott": App("repro.apps.grayscott:mm_gray_scott",
                         _mm_gray_scott, tenant=True),
    "mpi_gray_scott": App("repro.apps.grayscott:mpi_gray_scott",
                          _mpi_gray_scott),
    "mm_stream": App("repro.apps.stream:mm_stream", _mm_stream,
                     tenant=True),
    "mm_serving": App("repro.apps.serving:mm_serving", _mm_serving),
}


def app_entry(app: Dict[str, Any]) -> App:
    """The table row an ``app:`` section names."""
    kind = app.get("kind") if isinstance(app, dict) else None
    if kind not in APP_REGISTRY:
        raise PipelineError(
            f"unknown app kind {kind!r}; known: {sorted(APP_REGISTRY)}")
    return APP_REGISTRY[kind]


def launch(cluster: SimCluster, app: Dict[str, Any],
           urls: Urls) -> RunResult:
    """Run one ``app:`` section on the whole cluster, to completion."""
    entry = app_entry(app)
    cluster.system.hermes.mdm.workdir = urls.workdir
    fn, args = entry.load(), entry.args(app, urls, cluster)
    if entry.driver:
        res = cluster.run_driver(fn(cluster, *args))
    else:
        res = cluster.run(fn, *args)
    if urls.wrote:
        cluster.shutdown()
    return res


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
    if kind not in ("points", "gadget"):
        raise PipelineError(f"unknown dataset kind {kind!r}")
    path = os.path.join(workdir, section.get("path", "data"))
    n = int(section.get("n", 10_000))
    k = int(section.get("k", 8))
    seed = int(section.get("seed", 0))
    made_from = {"kind": kind, "n": n, "k": k, "seed": seed}
    # A file is reused only when it was generated from these very
    # parameters (recorded beside it, after the data): a sweep over
    # ``dataset.n`` or an edited spec must not meet the first file.
    stamp = path + ".gen.json"
    try:
        with open(stamp, encoding="utf-8") as fh:
            if json.load(fh) == made_from and os.path.exists(path):
                return
    except (OSError, ValueError):
        pass
    for stale in (stamp, path, path + ".labels"):
        if os.path.exists(stale):
            os.remove(stale)
    if kind == "points":
        write_parquet_points(path, n, k, seed=seed)
    else:
        labels = write_gadget_like(path, n, k, seed=seed)
        (labels + 1).astype(np.int32).tofile(path + ".labels")
    with open(stamp, "w", encoding="utf-8") as fh:
        json.dump(made_from, fh)


def _expand_sweep(spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Grid-search expansion: the cross product of all sweep axes."""
    sweep = spec.get("sweep") or []
    if not sweep:
        return [spec]
    axes = []
    for axis in sweep:
        if not isinstance(axis, dict) or "key" not in axis \
                or not isinstance(axis.get("values"), list) \
                or not axis["values"]:
            raise PipelineError("sweep entries need a 'key' and a "
                                "non-empty 'values' list")
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


def load_spec(source, workdir: Optional[str] = None
              ) -> Tuple[Dict[str, Any], str]:
    """``(spec, workdir)`` of a pipeline or colocation spec given as a
    file path, YAML text or an already loaded mapping. The workdir
    defaults to the file's directory (the CWD for text) and is
    created."""
    default_dir, spec = os.getcwd(), source
    if not isinstance(source, dict):
        if os.path.exists(source):
            default_dir = os.path.dirname(os.path.abspath(source))
            with open(source, encoding="utf-8") as fh:
                source = fh.read()
        try:
            spec = load_yaml_subset(source)
        except ValueError as exc:
            raise PipelineError(f"not a YAML spec: {exc}") from exc
    if not isinstance(spec, dict):
        raise PipelineError("a spec must be a mapping")
    workdir = workdir or default_dir
    os.makedirs(workdir, exist_ok=True)
    return spec, workdir


def write_rows(path: str, rows: List[Dict[str, Any]]) -> None:
    """Persist stats rows as CSV (nothing is written for no rows)."""
    if rows:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


def run_pipeline(source, workdir: Optional[str] = None,
                 trace_path: Optional[str] = None,
                 on_variant: Optional[Callable] = None,
                 on_cluster: Optional[Callable] = None
                 ) -> List[Dict[str, Any]]:
    """Execute a pipeline; returns (and persists) the stats rows.

    ``trace_path`` enables span tracing on every variant's cluster and
    writes Chrome-trace-format JSON there (sweep variants append
    ``.<i>`` before the extension). ``on_cluster(cluster)`` is invoked
    right after each variant's cluster is built and before the app
    runs — where the CLI and ``repro chaos`` install tracing, the obs
    plane, fault injection and the history recorder.
    ``on_variant(cluster, variant, row)`` is invoked after each variant
    completes, while the cluster (tracer, monitor) is still live.
    """
    spec, workdir = load_spec(source, workdir)
    if "app" not in spec:
        raise PipelineError("pipeline must be a mapping with an 'app'")
    app_entry(spec["app"])
    rows: List[Dict[str, Any]] = []
    variants = _expand_sweep(spec)
    for i, variant in enumerate(variants):
        prepare_dataset(variant.get("dataset"), workdir)
        cluster = build_cluster(variant.get("cluster"))
        if trace_path:
            cluster.tracer.enabled = True
        if on_cluster is not None:
            on_cluster(cluster)
        trace_file = None
        if trace_path:
            trace_file = trace_path
            if len(variants) > 1:
                root, ext = os.path.splitext(trace_path)
                trace_file = f"{root}.{i}{ext or '.json'}"
        try:
            res = launch(cluster, variant["app"],
                         Urls(variant.get("dataset"), workdir))
        finally:
            # A mid-run crash still exports the partial trace — spans
            # open at the failure point come out clipped at sim.now
            # with an `unfinished` marker, which is exactly the
            # timeline a post-mortem needs.
            if trace_file:
                cluster.export_trace(trace_file)
        row: Dict[str, Any] = {
            "app": variant.get("name", variant["app"]["kind"]),
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
    write_rows(os.path.join(workdir,
                            spec.get("output", "stats_dict.csv")), rows)
    return rows
