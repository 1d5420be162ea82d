"""Multi-tenant job scheduler over one shared MegaMmap deployment.

A colocation spec names N jobs (mixed MegaMmap / MPI / Spark apps with
staggered arrivals and per-tenant quotas) that all run against **one**
cluster — shared scache, devices and fabric. The scheduler:

* registers each job as a tenant with the :class:`QuotaManager`;
* admission-controls arrivals — a job whose ``min_dram`` cannot be
  committed against cluster DRAM capacity queues (retried in arrival
  order on each completion) or is rejected outright when it could
  never fit;
* launches admitted jobs as their own process groups (own
  :class:`~repro.mpi.MpiWorld`, own rng streams keyed by tenant name)
  against the shared system;
* optionally runs the MaxMem-style :class:`ReallocLoop` shifting
  DRAM-tier quota between tenants while jobs run.

A single-job spec with tenancy disabled takes the *plain* path — the
exact launcher :func:`repro.pipeline.run_pipeline` uses, same rng
streams, no quota manager — and is therefore bit-identical to running
the equivalent pipeline file.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster import AppContext, SimCluster
from repro.core.config import MB, load_yaml_subset
from repro.core.errors import QuotaExceededError
from repro.mpi import MpiWorld
from repro.pipeline import (APP_REGISTRY, PipelineError, build_cluster,
                            prepare_dataset)
from repro.sim import AllOf, rng_stream
from repro.tenancy.quota import QuotaManager, TenantQuota
from repro.tenancy.realloc import ReallocLoop

#: App kinds a colocated (multi-tenant) run can launch. Rank-style
#: entries get one process per job rank; driver-style entries run as a
#: single generator (the Spark driver model).
RANK_APPS = ("mm_kmeans", "mm_dbscan", "mm_gray_scott", "mm_stream")
DRIVER_APPS = ("spark_kmeans",)


@dataclass
class JobSpec:
    """One tenant's job: what to run, when it arrives, its quotas."""

    name: str
    app: Dict[str, Any]
    procs: int = 1
    arrival: float = 0.0
    dataset: Optional[Dict[str, Any]] = None
    pcache_quota: Optional[int] = None
    scache_quota: Optional[int] = None
    dram_quota: Optional[int] = None
    min_dram: int = 0
    slo: Optional[Dict[str, Any]] = None

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        if "name" not in data or "app" not in data:
            raise PipelineError("each job needs 'name' and 'app'")

        def mb(key):
            v = data.get(key)
            return None if v is None else int(float(v) * MB)

        return cls(
            name=str(data["name"]),
            app=dict(data["app"]),
            procs=int(data.get("procs", 1)),
            arrival=float(data.get("arrival", 0.0)),
            dataset=data.get("dataset"),
            pcache_quota=mb("pcache_quota_mb"),
            scache_quota=mb("scache_quota_mb"),
            dram_quota=mb("dram_quota_mb"),
            min_dram=int(float(data.get("min_dram_mb", 0)) * MB),
            slo=data.get("slo"),
        )


@dataclass
class ColocationResult:
    """Outcome of one colocated campaign."""

    rows: List[Dict[str, Any]]
    decisions: List[dict]
    makespan: float
    stats: dict = field(default_factory=dict)
    #: SLO compliance + alert report (None when no SLOs were attached).
    slo: Optional[Dict[str, Any]] = None
    #: Anomaly events from the live obs plane, oldest first.
    obs_events: List[dict] = field(default_factory=list)


def _dataset_url(job: JobSpec, workdir: str) -> str:
    if not job.dataset or "path" not in job.dataset:
        raise PipelineError(
            f"job {job.name!r}: app kind {job.app.get('kind')!r} needs "
            f"a dataset with a 'path'")
    return f"parquet://{os.path.join(workdir, job.dataset['path'])}"


def _rank_launcher(job: JobSpec, workdir: str) -> Tuple[Callable, tuple]:
    """(app_generator_fn, args) for a rank-style job."""
    app = job.app
    kind = app.get("kind")
    if kind == "mm_kmeans":
        from repro.apps.kmeans import mm_kmeans
        return mm_kmeans, (_dataset_url(job, workdir), app.get("k", 8),
                           app.get("max_iter", 4), app.get("seed", 0),
                           app.get("pcache"))
    if kind == "mm_dbscan":
        from repro.apps.dbscan import mm_dbscan
        return mm_dbscan, (_dataset_url(job, workdir),
                           float(app.get("eps", 8.0)),
                           app.get("min_pts", 64), app.get("seed", 0),
                           app.get("pcache"))
    if kind == "mm_gray_scott":
        from repro.apps.grayscott import mm_gray_scott
        return mm_gray_scott, (app.get("L", 32), app.get("steps", 3),
                               app.get("plotgap", 0), app.get("pcache"))
    if kind == "mm_stream":
        from repro.apps.stream import mm_stream
        return mm_stream, (_dataset_url(job, workdir),
                           app.get("passes", 1), app.get("pcache"))
    raise PipelineError(
        f"job {job.name!r}: app kind {kind!r} not colocatable; "
        f"known: {sorted(RANK_APPS + DRIVER_APPS)}")


class JobScheduler:
    """Admission control + launch + reallocation for one campaign."""

    def __init__(self, cluster: SimCluster, jobs: List[JobSpec],
                 workdir: str = ".",
                 realloc: bool = True, namespace: bool = True,
                 overcommit: float = 1.0):
        self.cluster = cluster
        self.system = cluster.system
        self.jobs = list(jobs)
        self.workdir = workdir
        self.realloc_enabled = realloc
        names = [j.name for j in self.jobs]
        if len(set(names)) != len(names):
            raise PipelineError(f"duplicate job names: {names}")
        self.qm = QuotaManager(self.system, namespace=namespace)
        for job in self.jobs:
            self.qm.register(TenantQuota(
                name=job.name, pcache_quota=job.pcache_quota,
                scache_quota=job.scache_quota,
                dram_quota=job.dram_quota, min_dram=job.min_dram))
        self.dram_capacity = int(overcommit * sum(
            dmsh.tiers[0].capacity for dmsh in self.system.dmshs))
        self._committed = 0
        self._release = self.system.sim.event()
        self._rows: Dict[str, Dict[str, Any]] = {}
        self._queued_logged: set = set()
        #: Library handles of each running job's ranks.
        self._clients: Dict[str, list] = {}

    # -- admission -------------------------------------------------------
    def _try_admit(self, job: JobSpec) -> str:
        if job.min_dram > self.dram_capacity:
            self.qm.log("reject", job=job.name,
                        min_dram=job.min_dram,
                        capacity=self.dram_capacity,
                        reason="min quota exceeds cluster DRAM")
            return "reject"
        if self._committed + job.min_dram > self.dram_capacity:
            if job.name not in self._queued_logged:
                self._queued_logged.add(job.name)
                self.qm.log("queue", job=job.name,
                            min_dram=job.min_dram,
                            committed=self._committed,
                            capacity=self.dram_capacity)
            return "queue"
        self._committed += job.min_dram
        self.qm.activate(job.name)
        self.qm.log("admit", job=job.name, min_dram=job.min_dram,
                    committed=self._committed)
        return "admit"

    def _signal_release(self) -> None:
        prev, self._release = self._release, self.system.sim.event()
        if not prev.triggered:
            prev.succeed(None)
        elif not prev.callbacks and not prev.processed:
            # Nothing ever waited; mark observed so the kernel's
            # unawaited-event accounting stays clean.
            prev.callbacks.append(lambda _e: None)

    # -- per-job lifecycle ----------------------------------------------
    def _job_entry(self, job: JobSpec):
        sim = self.system.sim
        if job.arrival > 0:
            yield sim.timeout(job.arrival)
        while True:
            decision = self._try_admit(job)
            if decision == "admit":
                break
            if decision == "reject":
                self._rows[job.name] = self._row(job, status="rejected",
                                                 start=sim.now,
                                                 finish=sim.now)
                return
            yield self._release
        start = sim.now
        status = "ok"
        try:
            yield from self._run_job(job)
        except Exception as exc:
            # One tenant's failure (e.g. a Spark OOM under memory
            # pressure) must not take the campaign down: record the
            # crash, release its commitment, keep scheduling.
            status = "crashed"
            self.qm.log("crash", job=job.name,
                        error=type(exc).__name__)
        finish = sim.now
        self.qm.deactivate(job.name)
        self._committed -= job.min_dram
        if status == "ok":
            self.qm.log("complete", job=job.name,
                        turnaround=round(finish - job.arrival, 9))
        self._rows[job.name] = self._row(job, status=status,
                                         start=start, finish=finish)
        self._signal_release()
        if status == "ok":
            # The ranks have returned: their private caches go back to
            # the nodes, or every finished tenant would keep its frames
            # reserved in DRAM the running ones are short of. (After a
            # crash the surviving ranks are still scheduled, so theirs
            # stay.)
            for mm in self._clients.pop(job.name, ()):
                yield from mm.close()

    def _run_job(self, job: JobSpec):
        sim = self.system.sim
        tenant = self.qm.tenants[job.name]
        kind = job.app.get("kind")
        n_nodes = len(self.system.dmshs)
        if kind in DRIVER_APPS:
            from repro.apps.kmeans import spark_kmeans
            gen = spark_kmeans(
                self.cluster, _dataset_url(job, self.workdir),
                job.app.get("k", 8), job.app.get("max_iter", 4),
                job.app.get("seed", 0))
            procs = [sim.process(gen, name=f"{job.name}:driver")]
        else:
            app_fn, args = _rank_launcher(job, self.workdir)
            world = MpiWorld(sim, self.system.network,
                             [r % n_nodes for r in range(job.procs)])
            procs = []
            for r in range(job.procs):
                comm = world.comm(r)
                mm = self.system.client(r, comm.node)
                mm.bind_tenant(tenant)
                self._clients.setdefault(job.name, []).append(mm)
                ctx = AppContext(
                    self.cluster, r, comm, mm, nprocs=job.procs,
                    rng=rng_stream(self.cluster.spec.seed, "tenant",
                                   job.name, "proc", r))
                procs.append(sim.process(app_fn(ctx, *args),
                                         name=f"{job.name}:rank{r}"))
        values = yield AllOf(sim, procs)
        return values

    def _row(self, job: JobSpec, status: str, start: float,
             finish: float) -> Dict[str, Any]:
        hist = self.system.monitor.metrics.histogram(
            "tenant_task_latency", tenant=job.name)
        fast, slow = self.qm.read_stats(job.name)
        return {
            "job": job.name,
            "kind": job.app.get("kind"),
            "procs": job.procs,
            "status": status,
            "arrival_s": job.arrival,
            "start_s": round(start, 9),
            "finish_s": round(finish, 9),
            "turnaround_s": round(finish - job.arrival, 9),
            "service_s": round(finish - start, 9),
            "task_p99_ms": round(hist.percentile(99) * 1e3, 6),
            "tasks": hist.count,
            "hit_ratio": round(self.qm.hit_ratio(job.name), 6)
            if (fast + slow) else "",
            "dram_quota_mb": round(
                (self.qm.tenants[job.name].dram_quota or 0) / MB, 3),
        }

    # -- campaign --------------------------------------------------------
    def run(self) -> ColocationResult:
        sim = self.system.sim
        t0 = sim.now
        order = sorted(range(len(self.jobs)),
                       key=lambda i: (self.jobs[i].arrival, i))
        entries = [
            sim.process(self._job_entry(self.jobs[i]),
                        name=f"sched:{self.jobs[i].name}")
            for i in order
        ]
        loop = None
        if self.realloc_enabled and len(self.jobs) > 1:
            loop = ReallocLoop(self.qm)
            sim.process(loop.run(), name="realloc")
        sim.run(until=AllOf(sim, entries))
        if loop is not None:
            loop.stop = True
        sim.run(until=sim.process(self.system.quiesce(),
                                  name="quiesce"))
        makespan = sim.now - t0
        rows = [self._rows[j.name] for j in self.jobs
                if j.name in self._rows]
        return ColocationResult(rows=rows, decisions=self.qm.decisions,
                                makespan=makespan,
                                stats=self.system.stats())


def load_colocation_spec(text_or_path: str) -> Dict[str, Any]:
    if os.path.exists(text_or_path):
        with open(text_or_path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = text_or_path
    spec = load_yaml_subset(text)
    if not isinstance(spec, dict) or "jobs" not in spec:
        raise PipelineError(
            "colocation spec must be a mapping with a 'jobs' list")
    return spec


def collect_slos(spec: Dict[str, Any], jobs: List[JobSpec],
                 extra=None) -> list:
    """SLO specs for one campaign: the spec's top-level ``slos:``
    list, each job's ``slo:`` block (tenant/name defaulted from the
    job), plus any externally supplied specs (``repro slo --slos``)."""
    from repro.obs.slo import SLOSpec
    specs = list(extra or [])
    for data in (spec.get("slos") or []):
        specs.append(SLOSpec.from_dict(dict(data)))
    for job in jobs:
        if not job.slo:
            continue
        data = dict(job.slo)
        data.setdefault("tenant", job.name)
        data.setdefault(
            "name", f"{job.name}-{data.get('objective', 'slo')}")
        specs.append(SLOSpec.from_dict(data))
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise PipelineError(f"duplicate SLO names: {names}")
    return specs


def run_colocation(text_or_path: str, workdir: Optional[str] = None,
                   on_cluster=None, slos=None
                   ) -> ColocationResult:
    """Execute a colocation spec; returns (and persists) per-job rows.

    Single-job specs with tenancy disabled run through the plain
    pipeline launcher (bit-identical to ``repro run`` on the
    equivalent pipeline file); everything else goes through the
    :class:`JobScheduler`.

    ``on_cluster(cluster)`` is invoked right after the cluster is
    built, before any job runs — the hook ``repro top``/``repro slo``
    use to install the live observability plane. ``slos`` (a list of
    :class:`~repro.obs.slo.SLOSpec`) is merged with SLOs embedded in
    the spec (top-level ``slos:`` and per-job ``slo:`` blocks); when
    any exist the obs plane is attached automatically and the result
    carries the compliance/alert report in ``.slo``.
    """
    spec = load_colocation_spec(text_or_path)
    if os.path.exists(text_or_path):
        default_dir = os.path.dirname(os.path.abspath(text_or_path))
    else:
        default_dir = os.getcwd()
    workdir = workdir or default_dir
    os.makedirs(workdir, exist_ok=True)
    jobs = [JobSpec.from_dict(j) for j in spec["jobs"]]
    tenancy = dict(spec.get("tenancy") or {})
    enabled = tenancy.get("enabled")
    if enabled is None:
        enabled = len(jobs) > 1
    if not enabled and len(jobs) != 1:
        # Validate before materializing datasets: a bad spec should
        # leave nothing behind in the workdir.
        raise QuotaExceededError(
            "tenancy cannot be disabled with more than one job")
    slo_specs = collect_slos(spec, jobs, extra=slos)
    for job in jobs:
        prepare_dataset(job.dataset, workdir)
    if not enabled:
        result = _run_plain(spec, jobs[0], workdir,
                            on_cluster=on_cluster)
    else:
        cluster = build_cluster(spec.get("cluster"))
        if on_cluster is not None:
            on_cluster(cluster)
        obs = None
        if slo_specs or getattr(cluster.system, "obs", None) is not None:
            from repro.obs import LiveObs
            obs = LiveObs.attach(cluster, slos=slo_specs,
                                 tenants=[j.name for j in jobs])
        sched = JobScheduler(
            cluster, jobs, workdir=workdir,
            realloc=bool(tenancy.get("realloc", True)),
            namespace=bool(tenancy.get("namespace", True)),
            overcommit=float(tenancy.get("overcommit", 1.0)))
        result = sched.run()
        if obs is not None:
            result.obs_events = list(obs.events)
            if obs.slo is not None:
                result.slo = obs.slo.report()
    out_path = os.path.join(workdir,
                            spec.get("output", "colocate_stats.csv"))
    if result.rows:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(result.rows[0]))
            writer.writeheader()
            writer.writerows(result.rows)
    return result


def _run_plain(spec: Dict[str, Any], job: JobSpec,
               workdir: str, on_cluster=None) -> ColocationResult:
    """Single-tenant fast path: the exact plain-pipeline launcher (no
    QuotaManager, global rank rng streams, same process names)."""
    kind = job.app.get("kind")
    if kind not in APP_REGISTRY:
        raise PipelineError(
            f"unknown app kind {kind!r}; known: {sorted(APP_REGISTRY)}")
    if job.arrival:
        raise PipelineError("plain (single-tenant) runs start at t=0")
    cluster = build_cluster(spec.get("cluster"))
    if on_cluster is not None:
        on_cluster(cluster)
    variant = {"app": dict(job.app), "dataset": job.dataset,
               "name": job.name}
    res = APP_REGISTRY[kind](cluster, variant, workdir)
    row = {
        "job": job.name,
        "kind": kind,
        "procs": cluster.spec.nprocs,
        "status": "crashed" if res.oom else "ok",
        "arrival_s": 0.0,
        "start_s": 0.0,
        "finish_s": round(res.runtime, 9),
        "turnaround_s": round(res.runtime, 9),
        "service_s": round(res.runtime, 9),
        "task_p99_ms": "",
        "tasks": "",
        "hit_ratio": "",
        "dram_quota_mb": "",
    }
    return ColocationResult(rows=[row], decisions=[],
                            makespan=res.runtime, stats=res.stats)
