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

What a job runs comes from the one app table
(:data:`repro.pipeline.APP_REGISTRY`): the same argument builder a
pipeline launch uses, for the kinds marked tenant-capable. A one-job
spec is a campaign like any other.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cluster import SimCluster
from repro.core.config import MB
from repro.mpi import MpiWorld
from repro.pipeline import (APP_REGISTRY, PipelineError, Urls, app_entry,
                            build_cluster, load_spec, prepare_dataset,
                            write_rows)
from repro.sim import AllOf
from repro.tenancy.quota import QuotaManager, TenantQuota
from repro.tenancy.realloc import ReallocLoop

#: ``tenancy:`` section keys of a colocation spec: the scheduler's
#: keyword arguments of the same names.
_TENANCY_KEYS = ("realloc", "namespace", "overcommit")


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

    def __post_init__(self):
        if not app_entry(self.app).tenant:
            raise PipelineError(
                f"job {self.name!r}: app kind {self.app['kind']!r} "
                f"cannot run as a tenant; tenant-capable: "
                f"{sorted(k for k, a in APP_REGISTRY.items() if a.tenant)}")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        if not isinstance(data, dict) or "name" not in data \
                or "app" not in data:
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
        self.system.hermes.mdm.workdir = workdir
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
        #: A job was handed an output URL (Gray-Scott checkpoints).
        self._wrote = False

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
        entry = APP_REGISTRY[job.app["kind"]]
        urls = Urls(job.dataset, self.workdir, owner=f"{job.name}.")
        fn, args = entry.load(), entry.args(job.app, urls, self.cluster)
        self._wrote |= urls.wrote
        if entry.driver:
            procs = [sim.process(fn(self.cluster, *args),
                                 name=f"{job.name}:driver")]
        else:
            n_nodes = len(self.system.dmshs)
            world = MpiWorld(sim, self.system.network,
                             [r % n_nodes for r in range(job.procs)])
            ctxs, procs = self.cluster.start(
                fn, args, world=world, job=job.name,
                tenant=self.qm.tenants[job.name])
            self._clients[job.name] = [ctx.mm for ctx in ctxs]
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
        result = ColocationResult(rows=rows, decisions=self.qm.decisions,
                                  makespan=makespan,
                                  stats=self.system.stats())
        if self._wrote:
            # As at the end of a checkpointing pipeline launch: drain
            # the stager so the checkpoints reach the PFS.
            self.cluster.shutdown()
        return result


def load_colocation_spec(source) -> Dict[str, Any]:
    spec, _workdir = _load(source)
    return spec


def _load(source, workdir: Optional[str] = None):
    spec, workdir = load_spec(source, workdir)
    if not isinstance(spec.get("jobs"), list) or not spec["jobs"]:
        raise PipelineError(
            "colocation spec must be a mapping with a 'jobs' list")
    unknown = sorted(set(spec.get("tenancy") or {}) - set(_TENANCY_KEYS))
    if unknown:
        raise PipelineError(f"unknown tenancy keys {unknown}; known: "
                            f"{sorted(_TENANCY_KEYS)}")
    return spec, workdir


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


def run_colocation(source, workdir: Optional[str] = None,
                   on_cluster=None, slos=None
                   ) -> ColocationResult:
    """Execute a colocation spec; returns (and persists) per-job rows.

    ``on_cluster(cluster)`` is invoked right after the cluster is
    built, before any job runs — the hook the CLI uses to switch on
    tracing and install the live observability plane (naming the
    jobs as its tenants). ``slos`` (a list of
    :class:`~repro.obs.slo.SLOSpec`) is merged with SLOs embedded in
    the spec (top-level ``slos:`` and per-job ``slo:`` blocks); when
    any exist the obs plane is attached automatically and the result
    carries the compliance/alert report in ``.slo``.
    """
    spec, workdir = _load(source, workdir)
    # Everything is validated before a dataset is materialized: a bad
    # spec leaves nothing behind in the workdir.
    jobs = [JobSpec.from_dict(j) for j in spec["jobs"]]
    slo_specs = collect_slos(spec, jobs, extra=slos)
    for job in jobs:
        prepare_dataset(job.dataset, workdir)
    cluster = build_cluster(spec.get("cluster"))
    if on_cluster is not None:
        on_cluster(cluster)
    obs = None
    if slo_specs:
        from repro.obs import LiveObs
        obs = LiveObs.attach(cluster, slos=slo_specs,
                             tenants=[j.name for j in jobs])
    result = JobScheduler(cluster, jobs, workdir=workdir,
                          **(spec.get("tenancy") or {})).run()
    if obs is not None:
        result.obs_events = list(obs.events)
        result.slo = obs.slo.report()
    write_rows(os.path.join(workdir,
                            spec.get("output", "colocate_stats.csv")),
               result.rows)
    return result
