"""The five workloads: sizes, set-up, timed region and checks.

Each workload is ``setup(seed, size) -> state`` (dataset generation
and cluster build, charged to ``setup_s``; ``state["cluster"]`` is the
cluster, or None where the run builds it), ``run(state)`` (the timed
region: only calls into ``repro``; ``state["trace"]`` says whether the
simulator's tracer is on) and ``finish(state, full) -> Outcome``
(untimed: simulated metrics, counts and output checks; ``full`` adds
the non-vacuity checks that only hold at full size). ``setup`` runs
with the current directory inside the workload's wiped work directory
and every dataset URL is relative, so the strings that placement
hashes see never contain the checkout's path.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro.apps.datagen import as_xyz, generate_points, \
    write_parquet_points
from repro.apps.grayscott import GSParams, gs_reference, mm_gray_scott
from repro.apps.kmeans import inertia_of, mm_kmeans
from repro.apps.serving import mm_serving
from repro.pipeline import build_cluster, prepare_dataset
from repro.tenancy import load_colocation_spec, run_colocation

HERE = os.path.dirname(os.path.abspath(__file__))
COLOCATE_SPEC = os.path.join(HERE, "workloads", "colocate_mixed.yaml")

#: Latency limit of the serving SLO, simulated seconds on the pooled
#: p99.
SLO_P99_S = 0.010
#: Offered rate per rank of the saturating step: every query is due at
#: t~0, so completed/runtime is capacity, not the schedule.
SATURATING_QPS_PER_RANK = 1e6

#: Frozen sizes. ``unit_s`` is what one untraced repeat costs the
#: driver on the 2-core reference host (child start, set-up, run and
#: checks); it fits ``--seconds // unit_s`` repeats, at least one, into
#: a run.
SIZES = {
    "full": {
        "kmeans_scan": dict(n=200_000, k=8, iters=4, unit_s=6.0),
        "grayscott_ckpt": dict(L=128, steps=6, unit_s=5.0),
        "serving_zipf": dict(queries=384, rates=(4000, 8000, 12000),
                             unit_s=18.0),
        "serving_page_rw": dict(queries=384, unit_s=6.0),
        "colocate_mixed": dict(n_div=1, max_iter=6, unit_s=6.0),
    },
    "smoke": {
        "kmeans_scan": dict(n=6_000, k=8, iters=2, unit_s=0.2),
        "grayscott_ckpt": dict(L=16, steps=2, unit_s=0.2),
        "serving_zipf": dict(queries=6, rates=(4000, 8000, 12000),
                             unit_s=0.3),
        "serving_page_rw": dict(queries=6, unit_s=0.1),
        "colocate_mixed": dict(n_div=40, max_iter=2, unit_s=0.5),
    },
}


@dataclass
class Outcome:
    """What one run produced, beyond host timings."""

    #: End-to-end simulated metrics native to the workload.
    sim: Dict[str, float]
    #: Per-layer counts and simulated seconds (see ``layer_counts``).
    counts: Dict[str, float]
    #: ``{check name: passed}``; each is one op of ``failed_frac``.
    checks: Dict[str, bool]
    #: Ops beyond the checks (queries, ranks, jobs) and how many failed.
    ops_total: int
    ops_failed: int
    #: Jobs (``cluster.run`` launches or tenants) that completed ok.
    jobs_ok: int
    #: Output digest; equal across same-seed reruns.
    checksum: str


@dataclass
class Workload:
    """``why`` each one is here is in BENCHMARK.json and README.md."""

    name: str
    setup: Callable
    run: Callable
    finish: Callable


# ---------------------------------------------------------------------------
# Counts shared by every workload
# ---------------------------------------------------------------------------

_NODE_DEV = re.compile(r"^node\d+\.(dram|nvme|hdd)\.bytes_(read|written)$")
_PFS_DEV = re.compile(r"^pfs\d+\.\w+\.bytes_(read|write)$")

_STAT_KEYS = {
    "core.pcache_faults": "pcache.faults",
    "core.pcache_prefetches": "pcache.prefetches",
    "core.pcache_evictions_clean": "pcache.evictions_clean",
    "core.pcache_evictions_dirty": "pcache.evictions_dirty",
    "core.bytes_copied": "bytes.copied",
    "core.scache_reads": "scache.reads",
    "core.scache_writes": "scache.writes",
    "core.rpc_submits": "rpc.submits",
    "core.rpc_batches": "rpc.batches",
    "core.object_reads": "object.reads",
    "core.object_remote_tasks": "object.remote_tasks",
    "core.object_dedup_hits": "object.dedup_hits",
    "core.organizer_scores": "organizer.scores",
    "core.organizer_moves": "organizer.moves",
    "core.sim_rt_queue_s": "trace.rt.queue.total",
    "core.sim_rt_service_s": "trace.rt.service.total",
    "core.sim_pcache_s": "trace.pcache.total",
    "core.sim_object_batch_s": "trace.object.batch.total",
    "core.sim_scache_batch_s": "trace.scache.batch.total",
    "hermes.gets": "hermes.gets",
    "hermes.puts": "hermes.puts",
    "hermes.vectored_gets": "hermes.vectored_gets",
    "hermes.vectored_puts": "hermes.vectored_puts",
    "hermes.replications": "hermes.replications",
    "hermes.moves": "hermes.moves",
    "storage.stager_bytes_in": "stager.bytes_in",
    "storage.stager_bytes_out": "stager.bytes_out",
    "net.bytes": "net.bytes",
    "net.transfers": "net.transfers",
    "net.sim_busy_s": "trace.net.total",
    "mpi.collective_roots": "collective.roots",
    "mpi.collective_forwards": "collective.forwards",
    "tenancy.realloc_moves": "tenancy.realloc_moves",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(stats: dict, sim,
                 app_bytes_written: float) -> Dict[str, float]:
    """Per-layer counts of one run from its cluster's public stats and
    simulator. ``trace.*`` totals are zero unless the simulator's
    tracer was on. ``app_bytes_written`` is what the workload
    definition says the application wrote (0 when it cannot be known
    from outside)."""
    out = {name: float(stats.get(key, 0.0))
           for name, key in _STAT_KEYS.items()}
    for tier in ("dram", "nvme", "hdd", "pfs"):
        out[f"storage.{tier}_bytes_read"] = 0.0
        out[f"storage.{tier}_bytes_write"] = 0.0
    tier_written = spans = 0.0
    for key, value in stats.items():
        m = _NODE_DEV.match(key)
        if m:
            way = "read" if m.group(2) == "read" else "write"
            out[f"storage.{m.group(1)}_bytes_{way}"] += value
            if way == "write":
                tier_written += value
        elif _PFS_DEV.match(key):
            out["storage.pfs_bytes_" + key.rsplit("_", 1)[1]] += value
        elif key.startswith("trace.") and key.endswith(".count"):
            spans += value
    out["storage.write_amp"] = _ratio(tier_written, app_bytes_written)
    out["core.rpc_tasks_per_batch"] = _ratio(
        stats.get("rpc.batched_tasks", 0.0), out["core.rpc_batches"])
    out["core.object_local_hit_frac"] = _ratio(
        stats.get("object.local_hit_bytes", 0.0),
        stats.get("object.read_bytes", 0.0))
    out["net.bytes_per_transfer"] = _ratio(out["net.bytes"],
                                           out["net.transfers"])
    out["obs.spans_recorded"] = spans
    out["sim.heap_events"] = float(sim.heap_events)
    out["sim.wheel_events"] = float(sim.wheel_events)
    out["sim.events"] = float(sim.heap_events + sim.fast_events)
    for name in ("decisions", "jain_fairness", "victim_hit_ratio_min"):
        out[f"tenancy.{name}"] = 0.0
    return out


def _mb(nbytes: float) -> float:
    return nbytes / 2 ** 20


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# kmeans_scan
# ---------------------------------------------------------------------------

def _kmeans_setup(seed, size):
    write_parquet_points("points.parquet", size["n"], size["k"],
                         seed=seed)
    cluster = build_cluster(dict(
        n_nodes=4, procs_per_node=2, dram_mb=1, nvme_mb=128,
        page_size=64 * 1024, seed=seed))
    return dict(seed=seed, size=size, cluster=cluster)


def _kmeans_run(state):
    size = state["size"]
    # The seed makes the data; KMeans||'s own sampling stream stays at
    # 0. (It also picks rank 0's first page, and on 16-page DRAM tiers
    # that one fault swings the peak DRAM by 25% and the makespan by
    # 6% -- a placement lottery that would drown any real change.)
    state["res"] = state["cluster"].run(
        mm_kmeans, "parquet://points.parquet", size["k"],
        size["iters"], 0, None)


def _kmeans_finish(state, full):
    res, size = state["res"], state["size"]
    centroids, inertia = res.values[0]
    bad_ranks = sum(
        1 for c, i in res.values
        if not (np.array_equal(c, centroids) and i == inertia))
    pts, _ = generate_points(size["n"], size["k"], seed=state["seed"])
    direct = inertia_of(as_xyz(pts), centroids)
    counts = layer_counts(res.stats, state["cluster"].sim, 0.0)
    checks = {
        "not_oom": not res.oom,
        # The reported inertia is taken against pre-update centroids,
        # so it sits a few percent above the direct value (the
        # tests/apps/test_kmeans.py bound).
        "inertia_within_5pct": abs(inertia - direct) <= 0.05 * direct,
    }
    if full:
        checks["nvme_bytes_read>0"] = \
            counts["storage.nvme_bytes_read"] > 0
        checks["pcache_prefetches>0"] = \
            counts["core.pcache_prefetches"] > 0
    return Outcome(
        sim={"sim_runtime_s": res.runtime,
             "sim_peak_dram_node_mb": _mb(res.peak_dram_node)},
        counts=counts, checks=checks,
        ops_total=len(res.values), ops_failed=bad_ranks,
        jobs_ok=int(not res.oom),
        checksum=_digest(centroids, np.float64(inertia)))


# ---------------------------------------------------------------------------
# grayscott_ckpt
# ---------------------------------------------------------------------------

def _gs_params(seed) -> GSParams:
    """Feed/kill rates drawn from the seed (inside the pattern-forming
    band around the tutorial's F=0.01, k=0.05)."""
    rng = np.random.default_rng(seed)
    return GSParams(F=0.01 + 0.004 * rng.random(),
                    k=0.05 + 0.004 * rng.random())


def _gs_setup(seed, size):
    # NVMe is 96 MB/node, not the shipped spec's 32: that spec never
    # passes a checkpoint prefix, so its "checkpoint every step" run
    # writes none. With real checkpoints (2 * L^3 * 8 B per step) the
    # flow has to fit, because the PFS stager drains slower than the
    # application writes.
    cluster = build_cluster(dict(
        n_nodes=4, procs_per_node=2, dram_mb=12, nvme_mb=96,
        page_size=256 * 1024, seed=seed))
    return dict(seed=seed, size=size, cluster=cluster,
                params=_gs_params(seed),
                # The seed names the checkpoint dataset, which is what
                # blob placement hashes.
                prefix=f"gs_ckpt_s{seed}")


def _gs_run(state):
    size, cluster = state["size"], state["cluster"]
    state["res"] = cluster.run(
        mm_gray_scott, size["L"], size["steps"], 1, None,
        state["params"], "posix://" + state["prefix"], True)
    # End of the job: drain the stager so checkpoints reach the PFS.
    cluster.shutdown()
    state["stats"] = cluster.system.stats()


def _gs_finish(state, full):
    res, size = state["res"], state["size"]
    L, steps = size["L"], size["steps"]
    u_ref, v_ref = gs_reference(L, steps, state["params"])
    u = np.concatenate([v[0] for v in res.values])
    v = np.concatenate([v[1] for v in res.values])
    fields_ok = (u.shape == u_ref.shape
                 and np.allclose(u, u_ref, rtol=0.0, atol=1e-12)
                 and np.allclose(v, v_ref, rtol=0.0, atol=1e-12))
    # Two initial fields, then two fields + two checkpoints per step.
    app_written = (2 + 4 * steps) * L ** 3 * 8
    counts = layer_counts(state["stats"], state["cluster"].sim,
                          app_written)
    last = f"{state['prefix']}_{steps}.u"
    on_disk = os.path.exists(last) and np.array_equal(
        np.fromfile(last, dtype=np.float64), u_ref.ravel())
    checks = {
        "not_oom": not res.oom,
        "fields_allclose_reference": bool(fields_ok),
        "last_checkpoint_equals_reference": bool(on_disk),
        "checkpoint_bytes_on_pfs":
            counts["storage.pfs_bytes_write"] >= 2 * steps * L ** 3 * 8,
    }
    return Outcome(
        sim={"sim_runtime_s": res.runtime,
             "sim_peak_dram_node_mb": _mb(res.peak_dram_node)},
        counts=counts, checks=checks, ops_total=len(res.values),
        ops_failed=0 if fields_ok else len(res.values),
        jobs_ok=int(not res.oom), checksum=_digest(u, v))


# ---------------------------------------------------------------------------
# serving_zipf / serving_page_rw
# ---------------------------------------------------------------------------

N_KEYS, OBJ_BYTES, LOOKUPS, ZIPF_S = 131072, 64, 16, 1.2


def _serving_cluster(seed, threshold):
    return build_cluster(dict(
        n_nodes=4, procs_per_node=2, dram_mb=48, nvme_mb=128,
        page_size=64 * 1024, pcache_size=512 * 1024,
        object_threshold_bytes=threshold, seed=seed))


def _latency_hists(cluster):
    """The per-node ``serving_latency`` histograms, in label order."""
    hists = cluster.monitor.metrics.histograms
    return [hists[key] for key in sorted(hists)
            if key[0] == "serving_latency"]


def _serving_setup(seed, size, api, write_frac, rates, p_at):
    """``rates`` are the open-loop steps' aggregate q/s (None
    saturates); ``p_at`` names the step whose latency percentiles are
    reported."""
    return dict(seed=seed, size=size, api=api, write_frac=write_frac,
                rates=rates, p_at=p_at,
                cluster=_serving_cluster(
                    seed, 4096 if api == "object" else 0))


def _zipf_setup(seed, size):
    return _serving_setup(seed, size, "object", 0.05,
                          list(size["rates"]) + [None],
                          size["rates"][1])


def _page_setup(seed, size):
    return _serving_setup(seed, size, "page", 0.2, [None], None)


def _serving_run(state):
    """The steps run back to back on one cluster, so only the first
    starts cold. ``mm_serving`` draws the key schedule from the
    cluster seed, the same for every step."""
    cluster = state["cluster"]
    state["steps"] = []
    for rate in state["rates"]:
        per_rank = SATURATING_QPS_PER_RANK if rate is None \
            else rate / cluster.spec.nprocs
        res = cluster.run(mm_serving, N_KEYS, OBJ_BYTES,
                          state["size"]["queries"], LOOKUPS, ZIPF_S,
                          state["write_frac"], per_rank, state["api"])
        # How far each node's histogram has got, to cut this step's
        # observations out later.
        seen = [h.count for h in _latency_hists(cluster)]
        state["steps"].append((rate, res, seen))


def _lateness_growing(per_node) -> bool:
    """A backlog shows as latency that keeps rising: on some node the
    later half of the queries waited more than twice as long as the
    earlier half."""
    for obs in per_node:
        half = len(obs) // 2
        if half and np.median(obs[half:]) > 2.0 * np.median(obs[:half]):
            return True
    return False


def _serving_finish(state, full):
    cluster, api, steps = state["cluster"], state["api"], state["steps"]
    per_step = state["size"]["queries"] * cluster.spec.nprocs
    sim = {"sim_runtime_s": sum(r.runtime for _, r, _ in steps),
           "sim_peak_dram_node_mb": _mb(steps[-1][1].peak_dram_node)}
    ops_failed = 0
    checksum = []
    slo_rate = None
    hists = _latency_hists(cluster)
    start = [0] * len(hists)
    for rate, res, seen in steps:
        # Raw observations of this step only: per node in completion
        # order, and pooled.
        per_node = [h.observations[a:b]
                    for h, a, b in zip(hists, start, seen)]
        start = seen
        pooled = np.sort(np.concatenate(per_node))
        done = sum(v[1] for v in res.values)
        ops_failed += per_step - min(done, len(pooled))
        checksum.append(np.float64(sum(v[0] for v in res.values)))
        p50, p99 = np.percentile(pooled, (50, 99))
        if rate is None:
            sim["sim_capacity_qps"] = len(pooled) / res.runtime
        elif (p99 <= SLO_P99_S and len(pooled) == per_step
                and not _lateness_growing(per_node)):
            slo_rate = rate
        if rate == state["p_at"]:
            sim["sim_p50_ms"], sim["sim_p99_ms"] = p50 * 1e3, p99 * 1e3
    # Offered write bytes: what the workload definition asks for.
    app_written = state["write_frac"] * per_step * OBJ_BYTES * len(steps)
    counts = layer_counts(steps[-1][1].stats, cluster.sim, app_written)
    checks = {"not_oom": not any(r.oom for _, r, _ in steps)}
    if api == "object":
        # 0 would mean no rung met the limit; the ladder is chosen so
        # that all do, with a wide margin.
        sim["sim_slo_rate_qps"] = float(slo_rate or 0.0)
        checks["object_reads>0"] = counts["core.object_reads"] > 0
        checks["slo_met_on_lowest_rate"] = slo_rate is not None
    else:
        checks["object_reads==0"] = counts["core.object_reads"] == 0
        checks["pcache_faults>0"] = counts["core.pcache_faults"] > 0
    if full:
        checks["p99_has_30_samples_beyond"] = per_step // 100 >= 30
    return Outcome(sim=sim, counts=counts, checks=checks,
                   ops_total=per_step * len(steps),
                   ops_failed=ops_failed,
                   jobs_ok=sum(1 for _, r, _ in steps if not r.oom),
                   checksum=_digest(*checksum))


# ---------------------------------------------------------------------------
# colocate_mixed
# ---------------------------------------------------------------------------

def _colocate_setup(seed, size):
    with open(COLOCATE_SPEC, encoding="utf-8") as fh:
        text = fh.read()
    text = re.sub(r"\bseed: (\d+)",
                  lambda m: f"seed: {int(m.group(1)) + seed}", text)
    jitter = np.random.default_rng(seed)
    text = re.sub(
        r"\barrival: ([0-9.]+)",
        lambda m: "arrival: %.6f" % (
            float(m.group(1)) * (1.0 + 0.02 * (jitter.random() - 0.5))),
        text)
    if size["n_div"] > 1:
        text = re.sub(
            r"\bn: (\d+)",
            lambda m: f"n: {max(1000, int(m.group(1)) // size['n_div'])}",
            text)
    text = re.sub(r"\bmax_iter: 6\b", f"max_iter: {size['max_iter']}",
                  text)
    with open("spec.yaml", "w", encoding="utf-8") as fh:
        fh.write(text)
    # Datasets are generated here so that they count as set-up;
    # run_colocation finds the files and skips them. The cluster is
    # built inside run_colocation and so inside the timed region.
    for job in load_colocation_spec(text)["jobs"]:
        prepare_dataset(job.get("dataset"), ".")
    return dict(seed=seed, size=size, cluster=None)


def _colocate_run(state):
    def on_cluster(cluster):
        cluster.tracer.enabled = state["trace"]
        state["cluster"] = cluster

    state["res"] = run_colocation("spec.yaml", workdir=".",
                                  on_cluster=on_cluster)


def _colocate_finish(state, full):
    res, cluster = state["res"], state["cluster"]
    rows = res.rows
    ok = [r for r in rows if r["status"] == "ok"]
    victims = [r for r in ok if r["kind"] == "mm_kmeans"]
    counts = layer_counts(res.stats, cluster.sim, 0.0)
    rates = [1.0 / r["service_s"] for r in ok if r["service_s"] > 0]
    counts["tenancy.decisions"] = float(len(res.decisions))
    counts["tenancy.jain_fairness"] = _ratio(
        sum(rates) ** 2, len(rates) * sum(x * x for x in rates))
    counts["tenancy.victim_hit_ratio_min"] = min(
        (float(r["hit_ratio"] or 0.0) for r in victims), default=0.0)
    peaks = [cluster.monitor.peak(f"{d.tiers[0].name}.used")
             for d in cluster.dmshs]
    sim = {"sim_runtime_s": res.makespan,
           "sim_peak_dram_node_mb": _mb(max(peaks)),
           "sim_jobs_per_s": len(ok) / res.makespan,
           "sim_victim_p99_ms": max((r["task_p99_ms"] for r in victims),
                                    default=0.0)}
    checks = {"all_jobs_reported": len(rows) == 10}
    if full:
        checks["realloc_moves>0"] = counts["tenancy.realloc_moves"] > 0
        checks["hdd_bytes_read>0"] = counts["storage.hdd_bytes_read"] > 0
    digest = "|".join(f"{r['job']}:{r['status']}:{r['finish_s']}"
                      for r in rows)
    return Outcome(sim=sim, counts=counts, checks=checks,
                   ops_total=10, ops_failed=10 - len(ok),
                   jobs_ok=len(ok), checksum=_digest(
                       np.frombuffer(digest.encode(), dtype=np.uint8)))


WORKLOADS = {w.name: w for w in (
    Workload("kmeans_scan", _kmeans_setup, _kmeans_run, _kmeans_finish),
    Workload("grayscott_ckpt", _gs_setup, _gs_run, _gs_finish),
    Workload("serving_zipf", _zipf_setup, _serving_run,
             _serving_finish),
    Workload("serving_page_rw", _page_setup, _serving_run,
             _serving_finish),
    Workload("colocate_mixed", _colocate_setup, _colocate_run,
             _colocate_finish),
)}
