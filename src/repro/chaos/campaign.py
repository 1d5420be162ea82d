"""Seeded chaos campaigns: run N cases, shrink failures, replay.

A *case* is one pipeline execution with a :class:`ChaosPlan` installed
and the coherence checker recording at the client boundary. A
*campaign* is a sweep of cases over consecutive seeds against one
pipeline. When a case fails (coherence violation, conservation breach,
or an app-level error under injection), the ddmin shrinker re-runs the
same seed on fault-subset projections of its plan until the repro is
1-minimal, and the offending plan is written to a replay file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.checker import CoherenceChecker, HistoryRecorder
from repro.chaos.inject import ChaosInjector
from repro.chaos.plan import FAULT_KINDS, ChaosPlan
from repro.pipeline import run_pipeline


@dataclass
class CaseResult:
    """Outcome of one seeded chaos case."""

    seed: int
    plan: Optional[ChaosPlan] = None
    violations: List[dict] = field(default_factory=list)
    conservation: List[str] = field(default_factory=list)
    error: Optional[str] = None
    trace_hash: str = ""
    events: int = 0
    checked_reads: int = 0
    faults_applied: int = 0
    faults_skipped: int = 0
    runtime_s: float = 0.0
    #: Barriers the durable deployment committed
    #: (``durability.barriers``): the commits the durability clause
    #: can hold to account. None when the deployment is not durable.
    barriers: Optional[int] = None
    #: One row per applied fault when the case ran with ``obs=True``:
    #: ``{"kind", "t_fault", "felt", "t_detect", "detection_s",
    #: "signal"}`` (``t_detect``/``detection_s``/``signal`` None if
    #: nothing fired; ``felt`` False for a window fault nothing met —
    #: ``ChaosInjector.felt``).
    detections: List[dict] = field(default_factory=list)
    obs_anomalies: int = 0
    obs_alerts: int = 0

    @property
    def ok(self) -> bool:
        return (not self.violations and not self.conservation
                and self.error is None)

    @property
    def detected(self) -> int:
        return sum(1 for d in self.detections
                   if d["detection_s"] is not None)

    def summary(self) -> str:
        n = len(self.plan.faults) if self.plan is not None else 0
        status = "ok" if self.ok else "FAIL"
        parts = [f"seed {self.seed}: {status}",
                 f"{self.faults_applied}/{n} faults applied",
                 f"{self.checked_reads} reads checked",
                 f"trace {self.trace_hash[:12]}"]
        if self.barriers is not None:
            parts.append(f"{self.barriers} barriers committed")
        if self.detections:
            parts.append(f"{self.detected}/{len(self.detections)} "
                         f"faults detected")
        if self.violations:
            parts.append(f"{len(self.violations)} violations")
        if self.conservation:
            parts.append(f"{len(self.conservation)} conservation")
        if self.error:
            parts.append(self.error)
        return "; ".join(parts)


#: The signal each fault class surfaces through: the counter that moves
#: when the fault bites a live operation -- a transfer held at a
#: partition, jittered or retransmitted, a device transfer stalled, a
#: node lost, a flipped bit caught by an integrity check.
FAULT_SIGNALS = {
    "crash": "chaos.crashes",
    "partition": "chaos.partition_stalls",
    "delay": "chaos.delays",
    "drop": "chaos.retransmits",
    "stall": "chaos.stalls",
    "corrupt": "reliability.corruptions",
}


def _attach_case_obs(cluster, slos, obs_window: Optional[float],
                     threshold: float, warmup: int):
    """Install the live observability plane on a chaos case's cluster.

    The stock detector bank (backlog spike, WAL growth) is the
    pipeline-shaped subset — chaos cases have no tenants — plus one
    ``fault:<kind>`` detector per fault class on the per-window
    increase of its :data:`FAULT_SIGNALS` counter, and, when the
    cluster traces, a detector on the windowed p99 of network spans.
    """
    from repro.obs import EwmaMadDetector, LiveObs
    live = LiveObs.attach(cluster, window=obs_window, slos=slos,
                          threshold=threshold, warmup=warmup)
    for kind, metric in FAULT_SIGNALS.items():
        def rate(store, _now, metric=metric):
            return store.delta(metric, (), store.window)
        live.detectors.append(EwmaMadDetector(
            f"fault:{kind}", metric, rate, threshold=threshold,
            warmup=warmup, direction="up"))
    tracer = cluster.tracer
    if tracer is not None and tracer.enabled:
        def net_p99(store, _now):
            stats = store.window_stats("span_seconds",
                                       {"category": "net"}, store.window)
            return stats.quantile(99) if stats is not None else None
        live.detectors.append(EwmaMadDetector(
            "net_p99", "span_seconds", net_p99, threshold=threshold,
            warmup=warmup, direction="up"))
    return live


def _detection_rows(live, injector) -> List[dict]:
    """First obs signal (anomaly event or SLO alert fire) at or after
    each applied fault's onset → per-fault detection latency."""
    signals = [(e["t"], f"anomaly:{e['detector']}")
               for e in live.events]
    if live.slo is not None:
        signals += [(a.fired_at, f"alert:{a.slo}")
                    for a in live.slo.history]
    signals.sort()
    rows = []
    for i, (kind, t, _desc) in enumerate(injector.applied):
        if kind == "restart":
            continue
        hit = next(((ts, sig) for ts, sig in signals if ts >= t), None)
        rows.append({
            "kind": kind, "t_fault": t, "felt": injector.felt(i),
            "t_detect": hit[0] if hit else None,
            "detection_s": (hit[0] - t) if hit else None,
            "signal": hit[1] if hit else None,
        })
    return rows


def run_case(pipeline: str, seed: int, *, horizon: float,
             kinds: Sequence[str] = FAULT_KINDS,
             intensity: float = 1.0, perturb: bool = False,
             workdir: Optional[str] = None, raw_check: bool = True,
             plan: Optional[ChaosPlan] = None,
             max_violations: int = 200, obs: bool = False,
             slos: Optional[Sequence] = None,
             obs_window: Optional[float] = None,
             obs_threshold: float = 4.0,
             obs_warmup: int = 8) -> CaseResult:
    """Run one pipeline under one seeded (or explicit) fault plan.

    ``pipeline`` is YAML text or a path, as for ``run_pipeline``. When
    ``plan`` is given it is used verbatim (replay / shrink subsets);
    otherwise :meth:`ChaosPlan.build` draws one from ``seed`` once the
    cluster exists (the node count comes from the cluster spec).
    ``raw_check=False`` weakens the checker to the stale-read-tolerant
    stub — only useful to *demonstrate* that the full checker catches
    mutations the stub misses.

    ``obs=True`` attaches the live observability plane (detectors and
    any ``slos``) and fills :attr:`CaseResult.detections` with the
    per-fault detection latency — the time from each applied fault's
    onset to the first anomaly event or SLO alert fire at or after it
    — also observed into the ``alert.detection_s{kind=}`` histogram on
    the case's own monitor. ``obs_window`` overrides the obs tick
    (default ``horizon / 256``: chaos horizons are tiny next to the
    cluster's operator-scale ``obs_window``, and detectors need tens
    of windows of baseline before the first fault lands); detection
    latency is quantized to it.
    """
    if obs and obs_window is None:
        obs_window = horizon / 256.0
    state: Dict[str, object] = {}

    def hook(cluster):
        system = cluster.system
        p = plan if plan is not None else ChaosPlan.build(
            seed, n_nodes=len(system.dmshs), horizon=horizon,
            kinds=kinds, intensity=intensity, perturb=perturb)
        # Durable deployments are held to the stricter clause: no
        # crash excuse for barrier-committed bytes.
        checker = CoherenceChecker(raw_check=raw_check,
                                   durability=system.durability.enabled,
                                   max_violations=max_violations)
        recorder = HistoryRecorder(system, checker)
        system.history = recorder
        injector = ChaosInjector(system, p, recorder).install()
        state.update(system=system, plan=p, checker=checker,
                     recorder=recorder, injector=injector)
        if obs:
            state["obs"] = _attach_case_obs(
                cluster, slos, obs_window, obs_threshold, obs_warmup)

    res = CaseResult(seed=seed)
    rows: List[dict] = []
    try:
        rows = run_pipeline(pipeline, workdir=workdir,
                            on_cluster=hook)
    except Exception as exc:  # app aborted under injection
        res.error = f"{type(exc).__name__}: {exc}"
    if "system" in state:
        checker: CoherenceChecker = state["checker"]  # type: ignore
        checker.finalize(state["system"])
        injector: ChaosInjector = state["injector"]  # type: ignore
        recorder: HistoryRecorder = state["recorder"]  # type: ignore
        res.plan = state["plan"]  # type: ignore
        res.violations = [dict(v) for v in checker.violations]
        res.conservation = list(injector.conservation_problems)
        res.trace_hash = recorder.trace_hash()
        res.events = recorder.events
        res.checked_reads = checker.checked_reads
        res.faults_applied = sum(1 for k, _t, _f in injector.applied
                                 if k != "restart")
        res.faults_skipped = len(injector.skipped)
        system = state["system"]
        monitor = system.monitor  # type: ignore[attr-defined]
        if system.durability.enabled:  # type: ignore[attr-defined]
            res.barriers = int(monitor.counter("durability.barriers"))
        if "obs" in state:
            live = state["obs"]  # type: ignore[assignment]
            res.obs_anomalies = len(live.events)  # type: ignore
            res.obs_alerts = len(live.slo.history) \
                if live.slo is not None else 0  # type: ignore
            res.detections = _detection_rows(live, injector)
            for d in res.detections:
                if d["detection_s"] is not None:
                    monitor.metrics.histogram(
                        "alert.detection_s",
                        kind=d["kind"]).observe(d["detection_s"])
    if rows:
        res.runtime_s = max(float(r.get("runtime_s", 0.0))
                            for r in rows)
    return res


def measure_horizon(pipeline: str, workdir: Optional[str] = None,
                    margin: float = 1.0) -> float:
    """Fault-free probe run; returns the simulated makespan × margin.

    The fault window is a fraction of the horizon, so the probe's own
    makespan (margin 1.0) already keeps every fault inside the run
    even though injection slows the faulted runs down.
    """
    rows = run_pipeline(pipeline, workdir=workdir)
    runtime = max(float(r.get("runtime_s", 0.0)) for r in rows)
    if runtime <= 0.0:
        raise ValueError("probe run reported a non-positive runtime")
    return runtime * margin


def run_campaign(pipeline: str, seeds: Sequence[int], *,
                 kinds: Sequence[str] = FAULT_KINDS,
                 intensity: float = 1.0, perturb: bool = False,
                 horizon: Optional[float] = None,
                 workdir: Optional[str] = None,
                 raw_check: bool = True,
                 log: Optional[Callable[[str], None]] = None,
                 obs: bool = False,
                 slos: Optional[Sequence] = None,
                 obs_window: Optional[float] = None,
                 obs_threshold: float = 4.0,
                 obs_warmup: int = 8) -> List[CaseResult]:
    """Run one case per seed; returns every :class:`CaseResult`.

    When ``horizon`` is ``None`` a fault-free probe run measures it
    first. The campaign does not stop at the first failure — every
    seed runs, so one flaky fault schedule cannot mask another.
    ``obs=True`` runs every case with the observability plane attached
    (see :func:`run_case`); aggregate with :func:`detection_stats`.
    """
    if horizon is None:
        horizon = measure_horizon(pipeline, workdir=workdir)
        if log is not None:
            log(f"probe: horizon {horizon:.6f} s (simulated)")
    results = []
    for seed in seeds:
        res = run_case(pipeline, seed, horizon=horizon, kinds=kinds,
                       intensity=intensity, perturb=perturb,
                       workdir=workdir, raw_check=raw_check, obs=obs,
                       slos=slos, obs_window=obs_window,
                       obs_threshold=obs_threshold,
                       obs_warmup=obs_warmup)
        results.append(res)
        if log is not None:
            log(res.summary())
    return results


def detection_stats(results: Sequence[CaseResult]) -> Dict[str, dict]:
    """Per-fault-kind detection rollup over a campaign.

    Returns ``{kind: {"faults", "felt", "detected", "mean_s",
    "max_s"}}`` (``felt``: faults that met a transfer or device
    operation; latency stats over the detected subset; None when none
    were).
    """
    out: Dict[str, dict] = {}
    for res in results:
        for d in res.detections:
            row = out.setdefault(d["kind"], {"faults": 0, "felt": 0,
                                             "detected": 0,
                                             "latencies": []})
            row["faults"] += 1
            row["felt"] += d["felt"]
            if d["detection_s"] is not None:
                row["detected"] += 1
                row["latencies"].append(d["detection_s"])
    for row in out.values():
        lat = row.pop("latencies")
        row["mean_s"] = sum(lat) / len(lat) if lat else None
        row["max_s"] = max(lat) if lat else None
    return out


def shrink_faults(predicate: Callable[[Sequence[int]], bool],
                  n_faults: int) -> List[int]:
    """ddmin over fault indices: smallest subset that still fails.

    ``predicate(indices)`` must return True when the projection of the
    plan onto ``indices`` still reproduces the failure. Returns a
    1-minimal index list (removing any single remaining chunk makes
    the failure vanish). The full set is assumed failing; if it is
    not, it is returned unchanged.
    """
    current = list(range(n_faults))
    if len(current) < 2 or not predicate(current):
        return current
    granularity = 2
    while len(current) >= 2:
        size = max(1, len(current) // granularity)
        chunks = [current[i:i + size]
                  for i in range(0, len(current), size)]
        reduced = False
        for c in chunks:  # try each chunk alone first
            if len(c) < len(current) and predicate(c):
                current, granularity, reduced = list(c), 2, True
                break
        if not reduced:  # then each complement
            for i in range(len(chunks)):
                rest = [x for j, c in enumerate(chunks) if j != i
                        for x in c]
                if len(rest) < len(current) and predicate(rest):
                    current = rest
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current


def shrink_case(pipeline: str, result: CaseResult, *,
                workdir: Optional[str] = None,
                raw_check: bool = True,
                log: Optional[Callable[[str], None]] = None
                ) -> Tuple[ChaosPlan, List[int]]:
    """Shrink a failing case's plan to a minimal failing sub-plan."""
    plan = result.plan
    if plan is None:
        raise ValueError("cannot shrink a case that never built a plan")

    def failing(indices: Sequence[int]) -> bool:
        sub = run_case(pipeline, result.seed, horizon=plan.horizon,
                       plan=plan.subset(indices), workdir=workdir,
                       raw_check=raw_check)
        if log is not None:
            log(f"  shrink probe {sorted(indices)}: "
                f"{'still failing' if not sub.ok else 'passes'}")
        return not sub.ok

    keep = shrink_faults(failing, len(plan.faults))
    return plan.subset(keep), keep


def write_replay(path: str, result: CaseResult,
                 minimal: Optional[ChaosPlan] = None) -> None:
    """Persist the failing plan (plus shrunk plan) as a replay file."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    doc = result.plan.to_dict() if result.plan is not None else {}
    if minimal is not None:
        doc["minimal_faults"] = minimal.to_dict()["faults"]
    doc["violations"] = result.violations[:20]
    doc["conservation"] = result.conservation[:20]
    doc["error"] = result.error
    doc["trace_hash"] = result.trace_hash
    import json
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
