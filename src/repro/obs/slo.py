"""Declarative SLOs with multi-window burn-rate alerting.

The colocation roadmap (PR 7's MaxMem-style reallocation loop) frames
tenant health as objectives — "95% of km1's tasks complete under
120 ms", "90% of its reads hit fast memory" — and the operator
question is not "what is the p99 right now" but "am I burning error
budget fast enough to care". This module implements the standard
answer: each SLO consumes *bad fraction* series from the windowed
store (:mod:`repro.obs.live`) and fires when the **burn rate**
(bad fraction / error budget) exceeds a threshold over both a fast
window (catch it quickly) and a slow window (don't page on blips) —
the multi-window multi-burn-rate policy of the SRE workbook, run on
simulated time.

Objectives:

``latency_p99``
    Bad = task latency above ``threshold_ms``; the fraction is exact
    over the windowed observations of ``tenant_task_latency{tenant=}``
    (``metric`` overrides the series name).
``hit_ratio``
    Bad = bytes read from slow tiers; the fraction is
    ``slow / (fast + slow)`` over the windowed
    ``tenant_read_bytes{tenant=,speed=}`` deltas.
``availability``
    Bad = ``bad_metric`` counter increments vs ``good_metric`` —
    generic enough for repair-vs-task or error-vs-request ratios.

Alert lifecycle: firing alerts are recorded as ``alert.*`` spans (the
tail sampler always keeps them) and ``slo_alerts{slo=,event=}``
labeled metrics; ``report()`` computes full-run compliance from the
registry's whole series (not just the retained windows), which is the
CLI's exit code.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.core.config import load_yaml_subset
from repro.sim.monitor import select

__all__ = ["SLOSpec", "Alert", "SLOMonitor", "load_slos"]

_OBJECTIVES = ("latency_p99", "hit_ratio", "availability")


class SLOSpec:
    """One declarative objective (parsed from YAML or a colocation
    job's ``slo:`` block)."""

    __slots__ = ("name", "tenant", "objective", "metric",
                 "threshold_ms", "target", "fast_window_s",
                 "slow_window_s", "fast_burn", "slow_burn",
                 "good_metric", "bad_metric", "min_count")

    def __init__(self, name: str, objective: str,
                 tenant: Optional[str] = None,
                 metric: Optional[str] = None,
                 threshold_ms: float = 0.0,
                 target: float = 0.95,
                 fast_window_s: float = 0.05,
                 slow_window_s: Optional[float] = None,
                 fast_burn: float = 2.0,
                 slow_burn: float = 1.0,
                 good_metric: Optional[str] = None,
                 bad_metric: Optional[str] = None,
                 min_count: float = 1.0):
        if objective not in _OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}; "
                             f"expected one of {_OBJECTIVES}")
        if not 0.0 < target < 1.0:
            raise ValueError(f"target must be in (0,1), got {target}")
        if objective == "latency_p99" and threshold_ms <= 0:
            raise ValueError("latency_p99 SLOs need threshold_ms > 0")
        if objective == "availability" and not bad_metric:
            raise ValueError("availability SLOs need bad_metric")
        self.name = name
        self.tenant = tenant
        self.objective = objective
        self.metric = metric or ("tenant_task_latency"
                                 if objective == "latency_p99"
                                 else "tenant_read_bytes")
        self.threshold_ms = float(threshold_ms)
        self.target = float(target)
        self.fast_window_s = float(fast_window_s)
        self.slow_window_s = (float(slow_window_s)
                              if slow_window_s is not None
                              else 5.0 * self.fast_window_s)
        if self.slow_window_s < self.fast_window_s:
            raise ValueError("slow_window_s must be >= fast_window_s")
        self.fast_burn = float(fast_burn)
        self.slow_burn = float(slow_burn)
        self.good_metric = good_metric
        self.bad_metric = bad_metric
        self.min_count = float(min_count)

    @property
    def budget(self) -> float:
        """Error budget: the tolerated bad fraction."""
        return 1.0 - self.target

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SLOSpec":
        known = set(cls.__slots__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SLO keys: {sorted(unknown)}")
        if "name" not in data or "objective" not in data:
            raise ValueError("an SLO needs at least name and objective")
        return cls(**data)

    def _labels(self) -> Dict[str, str]:
        return {"tenant": self.tenant} if self.tenant else {}

    # -- windowed bad fraction --------------------------------------------
    def bad_fraction(self, store, window_s: float):
        """``(bad_fraction, sample_mass)`` over the trailing window."""
        if self.objective == "latency_p99":
            return store.frac_above(self.metric,
                                    self.threshold_ms / 1e3,
                                    self._labels(), window_s)
        if self.objective == "hit_ratio":
            labels = self._labels()
            fast = store.delta(self.metric, {**labels, "speed": "fast"},
                               window_s)
            slow = store.delta(self.metric, {**labels, "speed": "slow"},
                               window_s)
            total = fast + slow
            return (slow / total if total else 0.0), total
        bad = store.delta(self.bad_metric, self._labels(), window_s)
        good = store.delta(self.good_metric, self._labels(),
                           window_s) if self.good_metric else 0.0
        total = good + bad
        return (bad / total if total else 0.0), total

    # -- exact full-run compliance ----------------------------------------
    def compliance(self, monitor) -> Dict[str, Any]:
        """Whole-run good fraction from the registry's series: the
        CLI's pass/fail basis."""
        metrics = monitor.metrics
        labels = self._labels()

        def total_of(name, **more):
            return sum(c.value for c in select(
                metrics.counters, name, {**labels, **more}))

        if self.objective == "latency_p99":
            obs = [v for h in select(metrics.histograms, self.metric,
                                     labels) for v in h.observations]
            bad = sum(1 for v in obs if v > self.threshold_ms / 1e3)
            total = float(len(obs))
        elif self.objective == "hit_ratio":
            bad = total_of(self.metric, speed="slow")
            total = bad + total_of(self.metric, speed="fast")
        else:
            bad = total_of(self.bad_metric)
            total = bad + (total_of(self.good_metric)
                           if self.good_metric else 0.0)
        good_frac = 1.0 - (bad / total) if total else 1.0
        return {"name": self.name, "tenant": self.tenant,
                "objective": self.objective, "target": self.target,
                "compliance": good_frac, "samples": total,
                "ok": good_frac >= self.target or not total}


class Alert:
    """One firing/resolved episode of one SLO."""

    __slots__ = ("slo", "fired_at", "resolved_at", "fast_burn",
                 "slow_burn")

    def __init__(self, slo: str, fired_at: float, fast_burn: float,
                 slow_burn: float):
        self.slo = slo
        self.fired_at = fired_at
        self.resolved_at: Optional[float] = None
        self.fast_burn = fast_burn
        self.slow_burn = slow_burn

    @property
    def firing(self) -> bool:
        return self.resolved_at is None

    def to_dict(self) -> Dict[str, Any]:
        return {"slo": self.slo, "fired_at": self.fired_at,
                "resolved_at": self.resolved_at,
                "fast_burn": self.fast_burn,
                "slow_burn": self.slow_burn}


class SLOMonitor:
    """Evaluates a set of :class:`SLOSpec` against the windowed store
    once per obs tick; owns the alert lifecycle.

    Fire when *both* the fast- and slow-window burn rates exceed their
    thresholds (and the fast window actually saw samples); resolve
    when both drop back below. Alerts land in three places: the
    ``history`` list (chaos detection-latency assertions), ``alert.*``
    spans on the tracer (kept by the tail sampler, visible in
    Perfetto), and ``slo_alerts{slo=,event=}`` metrics.
    """

    def __init__(self, obs, specs: List[SLOSpec]):
        self.obs = obs
        self.store = obs.store
        self.monitor = obs.monitor
        self.specs = list(specs)
        self.firing: Dict[str, Alert] = {}
        self.history: List[Alert] = []
        obs.slo = self

    def evaluate(self, now: float) -> None:
        store = self.store
        metrics = self.monitor.metrics
        tracer = self.obs.tracer
        for spec in self.specs:
            fast_frac, fast_n = spec.bad_fraction(store,
                                                  spec.fast_window_s)
            slow_frac, _slow_n = spec.bad_fraction(store,
                                                   spec.slow_window_s)
            budget = spec.budget
            fast_burn = fast_frac / budget
            slow_burn = slow_frac / budget
            metrics.gauge("slo_burn", slo=spec.name,
                          window="fast").set(fast_burn)
            metrics.gauge("slo_burn", slo=spec.name,
                          window="slow").set(slow_burn)
            alert = self.firing.get(spec.name)
            if alert is None:
                if fast_burn >= spec.fast_burn \
                        and slow_burn >= spec.slow_burn \
                        and fast_n >= spec.min_count:
                    alert = Alert(spec.name, now, fast_burn, slow_burn)
                    self.firing[spec.name] = alert
                    self.history.append(alert)
                    metrics.counter("slo_alerts", slo=spec.name,
                                    event="fire").inc()
                    if tracer is not None and tracer.enabled:
                        tracer.record(spec.name, "alert", -1, now, now,
                                      event="fire", slo=spec.name,
                                      fast_burn=round(fast_burn, 3),
                                      slow_burn=round(slow_burn, 3))
            elif fast_burn < spec.fast_burn \
                    and slow_burn < spec.slow_burn:
                alert.resolved_at = now
                del self.firing[spec.name]
                metrics.counter("slo_alerts", slo=spec.name,
                                event="resolve").inc()
                if tracer is not None and tracer.enabled:
                    tracer.record(spec.name, "alert", -1,
                                  alert.fired_at, now, event="episode",
                                  slo=spec.name)

    # -- reporting ---------------------------------------------------------
    def report(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Compliance + alert timeline, JSON-shaped like ``repro
        report`` (flat keys, ``violations`` drives the exit code)."""
        slos = [spec.compliance(self.monitor) for spec in self.specs]
        by_name = {s["name"]: s for s in slos}
        for alert in self.history:
            by_name[alert.slo].setdefault("alerts", []).append(
                alert.to_dict())
        for s in slos:
            s.setdefault("alerts", [])
        return {
            "slos": slos,
            "alerts": [a.to_dict() for a in self.history],
            "firing": sorted(self.firing),
            "violations": sum(1 for s in slos if not s["ok"]),
            "t": self.store.last_tick if now is None else now,
        }


def load_slos(text_or_path: str) -> List[SLOSpec]:
    """Parse an SLO spec document (YAML text or a path to one).

    Accepts either a top-level ``slos:`` list or a bare list of SLO
    mappings.
    """
    text = text_or_path
    if "\n" not in text_or_path and os.path.exists(text_or_path):
        with open(text_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    data = load_yaml_subset(text)
    if isinstance(data, dict):
        data = data.get("slos", [])
    if not isinstance(data, list):
        raise ValueError("SLO spec must be a list or have a "
                         "'slos:' list")
    return [SLOSpec.from_dict(d) for d in data]
