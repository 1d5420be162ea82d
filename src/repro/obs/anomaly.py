"""Online anomaly detection over windowed series (EWMA + MAD z-score).

SLOs catch what operators *declared*; the detector bank catches what
they did not: a tenant's hit ratio collapsing before its latency SLO
burns, runtime backlog spiking under a partition, a write-ahead log
growing without bound. Each detector keeps an exponentially weighted
moving average of its series and a matching EWMA of absolute
deviations (a streaming stand-in for the median absolute deviation);
a sample scores

    z = |x - ewma| / (1.4826 * mad + eps)

and an event is emitted when ``z`` exceeds the threshold *in the
watched direction* after a warmup period. Everything is a pure
function of the scraped windows — deterministic, replayable, and free
of hot-path hooks.

Structured events (``{"t", "detector", "metric", "value", "zscore",
"direction"}``) append to :attr:`LiveObs.events`, are counted as
``obs_anomalies{detector=}``, and are recorded as ``anomaly.*`` spans
when tracing — the tail sampler keeps those windows. Chaos campaigns
use them as detection signals (:mod:`repro.chaos.campaign`); nothing
in the simulated system reads them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

__all__ = ["EwmaMadDetector", "standard_detectors"]

#: Consistency constant making MAD comparable to a standard deviation
#: for normal data.
_MAD_K = 1.4826


class EwmaMadDetector:
    """One detector: a named windowed series scored online.

    ``source(store, now)`` extracts the sample for the just-closed
    window (return None to skip — e.g. no traffic). ``direction`` is
    ``"up"`` (spikes), ``"down"`` (collapses), or ``"both"``.
    Consecutive anomalous windows refresh ``last_event`` but emit only
    one event until the series re-enters the normal band
    (``rearm_below``), so a sustained fault yields one structured
    event with its onset time rather than an event per tick.
    """

    def __init__(self, name: str, metric: str,
                 source: Callable[[Any, float], Optional[float]],
                 threshold: float = 4.0, alpha: float = 0.3,
                 warmup: int = 8, direction: str = "up",
                 rearm_below: Optional[float] = None):
        if direction not in ("up", "down", "both"):
            raise ValueError(f"bad direction {direction!r}")
        if warmup < 2:
            raise ValueError("warmup must be at least 2 windows")
        self.name = name
        self.metric = metric
        self.source = source
        self.threshold = float(threshold)
        self.alpha = float(alpha)
        self.warmup = int(warmup)
        self.direction = direction
        self.rearm_below = (self.threshold / 2.0 if rearm_below is None
                            else float(rearm_below))
        self.ewma: Optional[float] = None
        self.mad: float = 0.0
        self.seen = 0
        self.active = False
        self.last_event: Optional[Dict[str, Any]] = None
        self.events = 0

    def zscore(self, value: float) -> float:
        if self.ewma is None:
            return 0.0
        dev = value - self.ewma
        if self.direction == "up" and dev < 0:
            return 0.0
        if self.direction == "down" and dev > 0:
            return 0.0
        scale = _MAD_K * self.mad + 1e-9 * max(1.0, abs(self.ewma))
        return abs(dev) / scale if scale else 0.0

    def _learn(self, value: float) -> None:
        a = self.alpha
        if self.ewma is None:
            self.ewma = value
            self.mad = 0.0
        else:
            dev = abs(value - self.ewma)
            self.mad = a * dev + (1.0 - a) * self.mad
            self.ewma = a * value + (1.0 - a) * self.ewma
        self.seen += 1

    def tick(self, store, now: float) -> List[Dict[str, Any]]:
        """Score the just-closed window; returns 0 or 1 events."""
        value = self.source(store, now)
        if value is None:
            return []
        warmed = self.seen >= self.warmup
        z = self.zscore(value) if warmed else 0.0
        out: List[Dict[str, Any]] = []
        if warmed and z >= self.threshold:
            if not self.active:
                self.active = True
                self.events += 1
                self.last_event = {
                    "t": now, "detector": self.name,
                    "metric": self.metric, "value": value,
                    "zscore": round(z, 3),
                    "direction": self.direction,
                }
                out.append(self.last_event)
            # Anomalous samples do not update the baseline: a fault
            # must not teach the detector that broken is normal.
            return out
        if self.active and z <= self.rearm_below:
            self.active = False
        self._learn(value)
        return out


def _hit_ratio_source(tenant: str, metric: str = "tenant_read_bytes"):
    def source(store, _now):
        fast = store.delta(metric, {"tenant": tenant, "speed": "fast"},
                           store.window)
        slow = store.delta(metric, {"tenant": tenant, "speed": "slow"},
                           store.window)
        total = fast + slow
        return fast / total if total else None
    return source


def _backlog_source(n_nodes: int):
    def source(store, _now):
        vals = [store.gauge_last("rt_backlog", {"node": n})
                for n in range(n_nodes)]
        vals = [v for v in vals if v is not None]
        return sum(vals) if vals else None
    return source


def _wal_source(n_nodes: int):
    def source(store, _now):
        vals = [store.gauge_last("wal_bytes", {"node": n})
                for n in range(n_nodes)]
        vals = [v for v in vals if v is not None]
        return sum(vals) if vals else None
    return source


def standard_detectors(tenants=(), n_nodes: int = 0,
                       threshold: float = 4.0,
                       warmup: int = 8) -> List[EwmaMadDetector]:
    """The stock bank wired to the signals ISSUE 9 names.

    * ``hit_ratio:<tenant>`` — per-window fast-read fraction collapse
      (direction down) for each named tenant;
    * ``rt_backlog`` — summed runtime queue depth spike;
    * ``wal_growth`` — summed per-node write-ahead-log bytes spike
      (only produces samples in durable mode).
    """
    dets: List[EwmaMadDetector] = []
    for tenant in tenants:
        dets.append(EwmaMadDetector(
            f"hit_ratio:{tenant}", "tenant_read_bytes",
            _hit_ratio_source(tenant), threshold=threshold,
            warmup=warmup, direction="down"))
    if n_nodes:
        dets.append(EwmaMadDetector(
            "rt_backlog", "rt_backlog", _backlog_source(n_nodes),
            threshold=threshold, warmup=warmup, direction="up"))
        dets.append(EwmaMadDetector(
            "wal_growth", "wal_bytes", _wal_source(n_nodes),
            threshold=threshold, warmup=warmup, direction="up"))
    return dets
