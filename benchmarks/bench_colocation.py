"""Colocation study: the fast-memory reallocation loop vs static
partitioning, on the 10-tenant mixed campaign.

The headline multi-tenancy claim (MaxMem's regime, PAPERS.md): when
many jobs share one DMSH and the capacity tier is slow, a periodic
reallocation loop that shifts DRAM-tier quota toward high-reuse
tenants beats carving the fast tier into equal static slices. The
benchmark replays ``pipelines/colocate_mixed.yaml`` twice in the same
workdir — once with per-tenant quotas frozen at their configured 1 MB
(static partitioning), once with the reallocation loop on — and
compares:

* **Aggregate throughput** — completed jobs per simulated second of
  campaign makespan. The loop wins by promoting the KMeans tenants'
  re-read working sets out of the HDD spill tier while idle and
  streaming tenants donate the quota backing them.
* **Per-tenant tail task latency** — the tail a colocated tenant
  actually observes. The victims' tails are queue waits behind
  HDD-bound traffic; draining that traffic shortens them. A victim
  issues 375 tasks, so the tail compared is p97, the highest
  percentile with ten samples beyond it; the few tasks beyond p99
  fall almost entirely in the first pass, when every tenant stages in
  at once and the loop has not yet moved any quota — p99 is printed,
  not asserted.
* **Jain fairness index** — over per-tenant progress rates (1 /
  service time), reported for the whole campaign and for the
  four-way-identical KMeans cohort, where equal treatment is the
  expected outcome.

Both runs share one dataset directory and a fixed seed, so each mode
is bit-reproducible (see ``tests/tenancy/test_scheduler.py`` for the
determinism pins). Placement hashes dataset paths relative to the
workdir, so any workdir gives the same numbers. The
``colocation.jobs_per_sec`` record is gated by
``benchmarks/perf_floor.json`` in the CI colocation-smoke job.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest

from repro.pipeline import build_cluster, prepare_dataset
from repro.tenancy import JobScheduler, JobSpec, load_colocation_spec

SPEC = os.path.join(os.path.dirname(__file__), os.pardir,
                    "pipelines", "colocate_mixed.yaml")
#: Fixed workdir: both modes read the datasets generated there once.
WORKDIR = os.path.join(tempfile.gettempdir(), "megammap-colo-bench")

VICTIM_KIND = "mm_kmeans"
ANTAGONIST_KIND = "mm_stream"


def jain(xs):
    """Jain fairness index of the positive entries (1 = equal)."""
    xs = [x for x in xs if x > 0]
    if not xs:
        return 0.0
    return sum(xs) ** 2 / (len(xs) * sum(x * x for x in xs))


def campaign(spec, realloc: bool):
    """Run the campaign; every row also gets ``task_p97_ms``."""
    cluster = build_cluster(spec.get("cluster"))
    sched = JobScheduler(
        cluster, [JobSpec.from_dict(j) for j in spec["jobs"]],
        workdir=WORKDIR, realloc=realloc)
    res = sched.run()
    metrics = cluster.system.monitor.metrics
    for r in res.rows:
        hist = metrics.histogram("tenant_task_latency", tenant=r["job"])
        r["task_p97_ms"] = round(hist.percentile(97) * 1e3, 6)
    return res


def run_colocation_study():
    spec = load_colocation_spec(SPEC)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    for j in spec["jobs"]:
        job = JobSpec.from_dict(j)
        if job.dataset:
            prepare_dataset(job.dataset, WORKDIR)
    out = {}
    for mode in ("static", "dynamic"):
        res = campaign(spec, realloc=(mode == "dynamic"))
        ok = [r for r in res.rows if r["status"] == "ok"]
        out[mode] = dict(
            rows=res.rows,
            ok=len(ok),
            makespan=res.makespan,
            jobs_per_sec=len(ok) / res.makespan,
            reallocs=sum(1 for d in res.decisions
                         if d["kind"] == "realloc"),
            jain_all=jain([1.0 / r["service_s"] for r in ok
                           if r["service_s"]]),
            jain_victims=jain([1.0 / r["service_s"] for r in ok
                               if r["kind"] == VICTIM_KIND]),
        )
    return spec, out


def _victims(rows):
    return [r for r in rows if r["kind"] == VICTIM_KIND]


@pytest.mark.benchmark(group="colocation")
def test_colocation_realloc_beats_static(benchmark):
    from benchmarks.common import emit_result, print_table, write_csv
    spec, out = benchmark.pedantic(run_colocation_study,
                                   rounds=1, iterations=1)
    static, dynamic = out["static"], out["dynamic"]

    table = []
    for mode in ("static", "dynamic"):
        for r in out[mode]["rows"]:
            table.append(dict(mode=mode, **{
                k: r[k] for k in ("job", "kind", "status", "service_s",
                                  "task_p97_ms", "task_p99_ms",
                                  "hit_ratio", "dram_quota_mb")}))
    print_table(
        "Colocation — 10 tenants + antagonist, static vs realloc",
        table)
    summary = [dict(mode=m,
                    jobs_per_sec=round(out[m]["jobs_per_sec"], 3),
                    makespan_s=round(out[m]["makespan"], 4),
                    ok=out[m]["ok"],
                    reallocs=out[m]["reallocs"],
                    jain_all=round(out[m]["jain_all"], 4),
                    jain_victims=round(out[m]["jain_victims"], 4))
               for m in ("static", "dynamic")]
    print_table("Colocation summary", summary)
    write_csv("colocation", table)
    write_csv("colocation_summary", summary)

    # Every job completes in both modes: admission control queues
    # rather than rejects here, and nobody OOMs.
    assert static["ok"] == len(static["rows"])
    assert dynamic["ok"] == len(dynamic["rows"])
    # The loop actually ran (and only when asked to).
    assert static["reallocs"] == 0
    assert dynamic["reallocs"] > 0

    # Aggregate throughput: the loop must beat static partitioning
    # with real margin (measured 8.9x: 2.36 -> 20.85 jobs/s).
    assert dynamic["jobs_per_sec"] >= 1.15 * static["jobs_per_sec"], (
        dynamic["jobs_per_sec"], static["jobs_per_sec"])

    # Antagonist-case per-tenant tail: under static slices every
    # victim re-reads most of its pages from the HDD tier and queues
    # behind the antagonist there; the loop must cap the worst
    # victim's p97 well below static's worst (measured: -61%,
    # 56.27 -> 22.11 ms).
    sv = {r["job"]: r for r in _victims(static["rows"])}
    dv = {r["job"]: r for r in _victims(dynamic["rows"])}
    assert sv and set(sv) == set(dv)
    worst_static = max(r["task_p97_ms"] for r in sv.values())
    worst_dynamic = max(r["task_p97_ms"] for r in dv.values())
    assert worst_dynamic <= 0.92 * worst_static, (
        worst_dynamic, worst_static)
    for name in sv:
        # Every victim's working set moves into DRAM and its service
        # time drops materially (reference: -50%+ each).
        assert dv[name]["hit_ratio"] >= sv[name]["hit_ratio"] + 0.1, (
            name, dv[name]["hit_ratio"], sv[name]["hit_ratio"])
        assert dv[name]["service_s"] <= 0.9 * sv[name]["service_s"], (
            name, dv[name]["service_s"], sv[name]["service_s"])

    # The four identical KMeans victims are treated alike: the loop
    # must not starve one of them while it feeds the others.
    assert dynamic["jain_victims"] >= 0.9, dynamic["jain_victims"]

    # The antagonist is the donor, not a beneficiary: its hit ratio
    # must not improve under reallocation (small slack for
    # placement-hash drift).
    s_ant = [r for r in static["rows"] if r["kind"] == ANTAGONIST_KIND]
    d_ant = [r for r in dynamic["rows"] if r["kind"] == ANTAGONIST_KIND]
    assert s_ant and d_ant
    assert d_ant[0]["hit_ratio"] <= s_ant[0]["hit_ratio"] + 0.05

    sim_config = dict(spec.get("cluster") or {},
                      tenants=len(spec["jobs"]))
    emit_result("colocation", "colocation.jobs_per_sec",
                dynamic["jobs_per_sec"], "jobs/s", sim_config)
    emit_result("colocation", "colocation.realloc_speedup",
                dynamic["jobs_per_sec"] / static["jobs_per_sec"], "x",
                sim_config)
    emit_result("colocation", "colocation.victim_p97_improvement",
                worst_static / worst_dynamic, "x", sim_config)
