"""The metric vocabulary is one store with one name per quantity.

Four tiny runs (KMeans, checkpointing Gray-Scott, object-path serving,
a 2-job colocation) fill the registry; everything that *consumes* a
metric by name — the benchmark's ``_STAT_KEYS``, the pipeline's stats
row, the standard detector bank, the SLO defaults, ``repro report``'s
per-device load lines and its scache reads line — must resolve to a
series those runs registered, non-zero in at least one of them, and no
two registered names may collide in the Prometheus exposition. Span
durations are one of those series (``span_seconds{category}``), and
every floor CI enforces names a figure some benchmark emits. The
"Metrics" table of DESIGN.md is this module's registry dump:
``PYTHONPATH=src python -m tests.test_metric_vocabulary`` prints it.
"""

import glob
import inspect
import json
import os
import re

import pytest

from benchmarks.e2e.workloads import _STAT_KEYS
from repro import pipeline
from repro.core import organizer, runtime
from repro.obs import SLOSpec, standard_detectors
from repro.obs.report import DEVICE_SERIES, SCACHE_SERIES
from repro.pipeline import run_pipeline
from repro.tenancy import run_colocation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KMEANS = """
name: vocab-kmeans
cluster:
  n_nodes: 2
  procs_per_node: 2
  dram_mb: 1
  nvme_mb: 64
dataset:
  kind: points
  n: 120000
  k: 4
  seed: 7
  path: pts.parquet
app:
  kind: mm_kmeans
  k: 4
  max_iter: 2
"""

GRAY_SCOTT = """
name: vocab-gray-scott
cluster:
  n_nodes: 2
  procs_per_node: 2
  dram_mb: 12
  nvme_mb: 32
  page_size: 16384
  pcache_size: 65536
  durability: true
app:
  kind: mm_gray_scott
  L: 32
  steps: 2
  plotgap: 1
  pcache: 65536
"""

SERVING = """
name: vocab-serving
cluster:
  n_nodes: 2
  procs_per_node: 2
  dram_mb: 48
  nvme_mb: 128
  pcache_size: 65536
  object_threshold_bytes: 4096
app:
  kind: mm_serving
  n_keys: 8192
  obj_bytes: 64
  queries: 8
  lookups: 8
  zipf_s: 1.2
  write_frac: 0.05
  qps: 1000000
  api: object
"""

COLOCATION = """
name: vocab-colocation
cluster:
  n_nodes: 2
  procs_per_node: 1
  dram_mb: 8
  nvme_mb: 64
  seed: 11
tenancy:
  realloc: true
jobs:
  - name: km
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
      target: 0.5
  - name: antag
    app:
      kind: mm_stream
      passes: 2
    dataset:
      kind: points
      n: 8000
      k: 4
      seed: 5
      path: pts_b.parquet
    procs: 1
    arrival: 0.01
    dram_quota_mb: 2
    min_dram_mb: 1
"""

#: Consumed names none of the four runs moves (so, counters being
#: registered by their first event, none registers): what does move
#: each is named beside it.
NEEDS = {
    "collective.roots": "a collective read transaction (MM_COLLECTIVE; "
                        "benchmarks/bench_ablation_collective.py)",
    "collective.forwards": "same",
    "tenancy.realloc_moves": "a reallocation sweep that moves blobs "
                             "(the benchmark's colocate_mixed: 30)",
}


def _runs(workdir):
    """``[(run, monitor, stats)]`` of the four tiny runs, traced."""
    out = []

    def keep(name):
        def hook(cluster):
            cluster.tracer.enabled = True
            out.append([name, cluster])
        return hook

    run_pipeline(KMEANS, workdir=str(workdir), on_cluster=keep("kmeans"))
    with pytest.MonkeyPatch.context() as mp:
        # The job and its checkpoint drain last ~40 ms: the organizer
        # has to sweep inside them to demote the persisted (score 0)
        # pages, and the pool shrinks on the same tick.
        mp.setattr(organizer, "SWEEP_PERIOD", 0.01)
        mp.setattr(runtime, "SCALE_PERIOD", 0.01)
        run_pipeline(GRAY_SCOTT, workdir=str(workdir),
                     on_cluster=keep("gray_scott"))
    run_pipeline(SERVING, workdir=str(workdir), on_cluster=keep("serving"))
    run_colocation(COLOCATION, workdir=str(workdir),
                   on_cluster=keep("colocation"))
    return [(name, c.monitor, c.system.stats()) for name, c in out]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return _runs(tmp_path_factory.mktemp("vocab"))


def _consumed():
    """``{name: who reads it}`` — read off the consumers, not listed."""
    names = {key: "benchmarks.e2e _STAT_KEYS"
             for key in _STAT_KEYS.values()}
    row_builder = inspect.getsource(pipeline.run_pipeline)
    for key in re.findall(r'stats(?:\.get\(|\[)\s*"([^"]+)"', row_builder):
        names.setdefault(key, "pipeline stats row")
    for det in standard_detectors(tenants=["km"], n_nodes=2):
        names.setdefault(det.metric, f"detector {det.name}")
    for objective in ("latency_p99", "hit_ratio"):
        spec = SLOSpec("s", objective, threshold_ms=1.0)
        names.setdefault(spec.metric, f"SLO default ({objective})")
    for name in SCACHE_SERIES:
        names.setdefault(name, "repro report scache reads")
    return names


def _nonzero(runs):
    """Names non-zero in at least one of the runs."""
    nonzero = set()
    for _run, monitor, stats in runs:
        m = monitor.metrics
        nonzero.update(name for (name, _ls), c in m.counters.items()
                       if c.value)
        nonzero.update(name for (name, _ls), g in m.gauges.items()
                       if g.peak)
        nonzero.update(name for (name, _ls), h in m.histograms.items()
                       if h.count)
        # Trace totals and the network's own byte count are not
        # registry series; they resolve in the run's public stats.
        nonzero.update(key for key, value in stats.items() if value
                       and key.startswith(("trace.", "net.bytes_moved")))
    return nonzero


def test_every_consumed_name_is_a_registered_nonzero_series(runs):
    nonzero = _nonzero(runs)
    idle = {n: who for n, who in _consumed().items() if n not in nonzero}
    assert set(idle) == set(NEEDS), (
        f"zero in all four runs without a stated reason: "
        f"{ {n: w for n, w in idle.items() if n not in NEEDS} }; "
        f"listed but moving: {sorted(set(NEEDS) - set(idle))}")
    # An exception is still a name some module emits.
    assert all(_emitters(name) != ["?"] for name in NEEDS)


def test_every_device_registers_the_series_the_report_reads(runs):
    """``repro report``'s device lines read ``<device>.<suffix>`` for
    each suffix of ``DEVICE_SERIES``: every device of the four runs --
    node tiers and PFS servers -- registers all of them as label-free
    counters, and each suffix moves on both kinds."""
    schemas, nonzero = _schemas(runs), _nonzero(runs)
    devices = {name[:-len(".requests")] for name in schemas
               if name.endswith(".requests")}
    for dev in devices:
        for suffix in DEVICE_SERIES:
            assert schemas.get(f"{dev}.{suffix}") == {("counter", ())}, \
                (dev, suffix)
    for kind in ("node", "pfs"):
        for suffix in DEVICE_SERIES:
            assert any(f"{dev}.{suffix}" in nonzero for dev in devices
                       if dev.startswith(kind)), (kind, suffix)


def _schemas(runs):
    """``{name: {(kind, label keys)}}`` over the four registries."""
    out = {}
    for _run, monitor, _stats in runs:
        m = monitor.metrics
        for kind, family in (("counter", m.counters), ("gauge", m.gauges),
                             ("histogram", m.histograms)):
            for name, ls in family:
                out.setdefault(name, set()).add(
                    (kind, tuple(k for k, _v in ls)))
    return out


def test_one_name_per_quantity(runs):
    schemas = _schemas(runs)
    # The selector's fast path: a name has one kind and one label
    # schema, so an exact label match is the only match.
    mixed = {n: s for n, s in schemas.items() if len(s) > 1}
    assert not mixed, mixed
    # No two names differ only in punctuation (`hermes.gets` and
    # `hermes_gets` would read as one quantity).
    by_spelling = {}
    for name in schemas:
        by_spelling.setdefault(re.sub(r"[^a-zA-Z0-9]", "_", name),
                               []).append(name)
    twins = {p: ns for p, ns in by_spelling.items() if len(ns) > 1}
    assert not twins, twins


def test_span_durations_are_one_registry_series(runs):
    """The traced runs register ``span_seconds{category}``, and every
    ``trace.<category>.<stat>`` the benchmark reads names a category
    they recorded."""
    assert _schemas(runs)["span_seconds"] == {("histogram",
                                               ("category",))}
    recorded = {dict(ls)["category"]
                for _run, monitor, _stats in runs
                for name, ls in monitor.metrics.histograms
                if name == "span_seconds"}
    read = {key[len("trace."):].rsplit(".", 1)[0]
            for key in _STAT_KEYS.values() if key.startswith("trace.")}
    assert read and read <= recorded, sorted(read - recorded)


def test_every_perf_floor_is_emitted_by_a_bench():
    """Each ``perf_floor.json`` floor or ceiling names a metric some
    ``benchmarks/bench_*.py`` records with ``emit_result`` (a static
    scan), so no gate checks a figure nothing produces."""
    with open(os.path.join(ROOT, "benchmarks", "perf_floor.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    gated = set(doc["floors"]) | set(doc.get("ceilings", {}))
    emitted = set()
    for path in glob.glob(os.path.join(ROOT, "benchmarks", "bench_*.py")):
        with open(path, encoding="utf-8") as fh:
            emitted.update(re.findall(
                r'emit_result\(\s*"[^"]+",\s*"([^"]+)"', fh.read()))
    assert gated and gated <= emitted, sorted(gated - emitted)


# -- the DESIGN.md table ---------------------------------------------------

_PER_INSTANCE = [
    (re.compile(r"^node\d+\.[a-z]+\."), "node<N>.<tier>."),
    (re.compile(r"^pfs\d+\.[a-z]+\."), "pfs<N>.<tier>."),
    (re.compile(r"^rt\d+\."), "rt<N>."),
]


_SITE = re.compile(
    r'\.(?:count|counter|gauge|histogram)\(\s*(f?)"([^"]+)"')


def _emit_sites():
    """``[(name regex, module)]`` of every call under ``src/repro``
    that names a series: a literal, or an f-string with its fields
    open."""
    sites = []
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, _dirs, files in os.walk(src):
        for fn in sorted(files):
            path = os.path.join(dirpath, fn)
            if not fn.endswith(".py") or path.endswith(
                    os.path.join("sim", "monitor.py")):   # the store
                continue
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            for is_f, literal in _SITE.findall(text):
                pat = re.escape(literal)
                if is_f:
                    pat = re.sub(r"\\\{.*?\\\}", ".+", pat)
                sites.append((re.compile(pat + "$"),
                              os.path.relpath(path, src)))
    return sites


def _emitters(name, sites=None):
    sites = _emit_sites() if sites is None else sites
    return sorted({module for pat, module in sites
                   if pat.match(name)}) or ["?"]


def metrics_table(runs):
    rows, sites = {}, _emit_sites()
    for name, schema in _schemas(runs).items():
        shown = name
        for pat, repl in _PER_INSTANCE:
            shown = pat.sub(repl, shown)
        (kind, labels), = schema
        rows[shown] = (kind, ", ".join(labels) or "—",
                       ", ".join(f"`{m}`" for m in _emitters(name, sites)))
    lines = ["| name | kind | labels | named in |",
             "|---|---|---|---|"]
    lines += [f"| `{n}` | {k} | {ls} | {mods} |"
              for n, (k, ls, mods) in sorted(rows.items())]
    return "\n".join(lines)


def test_design_table_is_the_registry_dump(runs):
    with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as fh:
        design = fh.read()
    block = design.split("<!-- metrics-table:begin -->")[1] \
        .split("<!-- metrics-table:end -->")[0].strip()
    assert block == metrics_table(runs), (
        "DESIGN.md's Metrics table is stale; regenerate it with "
        "`PYTHONPATH=src python -m tests.test_metric_vocabulary`")


if __name__ == "__main__":
    import tempfile
    print(metrics_table(_runs(tempfile.mkdtemp())))
