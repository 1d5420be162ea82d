"""Streaming windowed observability: the live rollup store and ticker.

:mod:`repro.obs.report` answers *where the time went* after a run;
this module answers *what is happening right now*, cheaply enough to
leave on for production-shaped runs. A sim-time ticker closes one
fixed window per ``obs_window`` seconds; at each tick the
:class:`WindowedStore` scrapes the
:class:`~repro.sim.monitor.MetricsRegistry`'s series and the tracer's
per-category durations into per-window rollups
(sum/count/min/max + a bounded :class:`QuantileSketch`) kept in a ring
of :data:`RETENTION` windows — O(1) memory regardless of run length.

Scrape-at-tick is the load-bearing design decision: nothing hooks the
hot paths, the ticker is a plain timeout-yielding process that only
*reads* simulated state, and the sampler/detector/SLO consumers all
run off the same scrape. Observability-on runs therefore produce
bit-identical application results to observability-off runs (the
kernel-equivalence suite pins this).

Consumers:

* :mod:`repro.obs.slo` evaluates burn-rate alerts against windowed
  bad-fractions each tick;
* :mod:`repro.obs.anomaly` detectors score windowed series each tick;
* the tracer's tail sampler refreshes its per-category slowness
  thresholds from the windowed duration quantiles each tick;
* ``repro top`` renders the store directly.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, \
    Optional, Tuple

from repro.obs.anomaly import standard_detectors
from repro.obs.slo import SLOMonitor
from repro.sim.monitor import LabelSet, Monitor, select

__all__ = ["QuantileSketch", "WindowStats", "WindowedStore", "LiveObs"]

#: Closed windows retained per series — the windowed store's ring size.
RETENTION = 120


class QuantileSketch:
    """Bounded, deterministic, mergeable quantile summary.

    A KLL-style multi-level compactor with deterministic survivor
    selection: level ``i`` buffers values that each stand for ``2**i``
    original observations; when a level's buffer exceeds ``capacity``
    it is sorted and every other value (parity alternating per
    compaction — deterministic, no randomness) is promoted to level
    ``i + 1``, discarding the rest. Memory is O(``capacity`` x
    log(n)); any rank is off by at most a small fraction of ``n``.
    Identical insertion sequences produce identical sketches, so
    sketch-derived alerts are reproducible run-to-run. ``count`` and
    ``total`` are tracked exactly regardless of compaction.
    """

    __slots__ = ("levels", "count", "total", "capacity", "_parity")

    CAPACITY = 64

    def __init__(self, capacity: Optional[int] = None):
        #: ``levels[i]`` holds values of implicit weight ``2**i``.
        self.levels: List[List[float]] = [[]]
        self.count = 0.0
        self.total = 0.0
        self.capacity = self.CAPACITY if capacity is None \
            else int(capacity)
        self._parity = 0

    @property
    def size(self) -> int:
        """Stored values across all levels (the memory bound)."""
        return sum(len(lvl) for lvl in self.levels)

    def add(self, value: float) -> None:
        self.count += 1.0
        self.total += value
        self.levels[0].append(value)
        if len(self.levels[0]) > self.capacity:
            self._compact()

    def add_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.add(v)

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` in level-wise (weights line up exactly)."""
        for i, lvl in enumerate(other.levels):
            while i >= len(self.levels):
                self.levels.append([])
            self.levels[i].extend(lvl)
        self.count += other.count
        self.total += other.total
        self._compact()
        return self

    def _compact(self) -> None:
        i = 0
        while i < len(self.levels):
            if len(self.levels[i]) > self.capacity:
                buf = sorted(self.levels[i])
                if i + 1 == len(self.levels):
                    self.levels.append([])
                self._parity ^= 1
                self.levels[i + 1].extend(buf[self._parity::2])
                self.levels[i] = []
            i += 1

    def _weighted(self) -> List[Tuple[float, float]]:
        out: List[Tuple[float, float]] = []
        for i, lvl in enumerate(self.levels):
            w = float(1 << i)
            out.extend((v, w) for v in lvl)
        return out

    def quantile(self, q: float) -> float:
        """Weighted nearest-rank quantile, ``q`` in [0, 100]."""
        entries = sorted(self._weighted())
        if not entries:
            return 0.0
        # Rank against the retained weight (survivor parity makes it
        # differ from ``count`` by at most one value per compaction).
        weight = sum(w for _v, w in entries)
        target = q / 100.0 * weight
        cum = 0.0
        for value, w in entries:
            cum += w
            if cum >= target:
                return value
        return entries[-1][0]

    def frac_above(self, threshold: float) -> float:
        """Fraction of observations strictly above ``threshold``."""
        entries = self._weighted()
        weight = sum(w for _v, w in entries)
        if not weight:
            return 0.0
        above = sum(w for v, w in entries if v > threshold)
        return above / weight


class WindowStats:
    """Rollup of the observations that landed in one window."""

    __slots__ = ("t0", "t1", "count", "total", "vmin", "vmax", "sketch")

    def __init__(self, t0: float, t1: float,
                 values: Optional[Iterable[float]] = None):
        self.t0 = t0
        self.t1 = t1
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        self.sketch = QuantileSketch()
        if values is not None:
            for v in values:
                self.observe(v)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        self.sketch.add(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class WindowedStore:
    """Fixed-interval rollup rings over every live metric source.

    Keys are ``(name, labelset)`` like the registry's; tracer
    categories appear as ``("trace.<category>", ())``. Queries take the
    registry's selector (:func:`~repro.sim.monitor.select`): labels
    asked for match every series that carries them. Three ring
    families:

    * **counters** — ``(t0, t1, delta)`` per window, appended only for
      nonzero deltas (queries treat missing windows as zero);
    * **gauges** — ``(t0, t1, value)`` point-sampled at each tick;
    * **histograms** — ``(t0, t1, WindowStats)`` over the observations
      (histogram ``observe`` calls, span durations) that landed in the
      window.

    Every ring is a ``deque(maxlen=retention)``; per-source cursors
    (last counter value, observation counts consumed) make each tick
    O(live series), not O(history).
    """

    def __init__(self, monitor: Monitor, tracer=None,
                 window: float = 0.01, retention: int = RETENTION):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if retention < 2:
            raise ValueError(f"retention must be >= 2, got {retention}")
        self.monitor = monitor
        self.tracer = tracer if tracer is not None else monitor.tracer
        self.window = window
        self.retention = retention
        self.counters: Dict[Tuple[str, LabelSet],
                            Deque[Tuple[float, float, float]]] = {}
        self.gauges: Dict[Tuple[str, LabelSet],
                          Deque[Tuple[float, float, float]]] = {}
        self.histograms: Dict[Tuple[str, LabelSet],
                              Deque[Tuple[float, float, WindowStats]]] = {}
        self._last_counter: Dict[Tuple[str, LabelSet], float] = {}
        self._last_obs: Dict[Tuple[str, LabelSet], int] = {}
        self.last_tick = monitor.sim.now
        self.ticks = 0

    # -- scraping ----------------------------------------------------------
    def _ring(self, rings, key):
        ring = rings.get(key)
        if ring is None:
            ring = rings[key] = deque(maxlen=self.retention)
        return ring

    def tick(self, now: float) -> None:
        """Close the window ``[last_tick, now)``."""
        t0 = self.last_tick
        if now <= t0:
            return
        self._scrape_counters(t0, now)
        self._scrape_gauges(t0, now)
        self._scrape_histograms(t0, now)
        self.last_tick = now
        self.ticks += 1

    def _scrape_counters(self, t0: float, t1: float) -> None:
        last = self._last_counter
        for key, c in self.monitor.metrics.counters.items():
            delta = c.value - last.get(key, 0.0)
            if delta:
                last[key] = c.value
                self._ring(self.counters, key).append((t0, t1, delta))

    def _scrape_gauges(self, t0: float, t1: float) -> None:
        for key, g in self.monitor.metrics.gauges.items():
            self._ring(self.gauges, key).append((t0, t1, g.value))

    def _scrape_histograms(self, t0: float, t1: float) -> None:
        consumed = self._last_obs
        for key, h in self.monitor.metrics.histograms.items():
            seen = consumed.get(key, 0)
            obs = h.observations
            if len(obs) > seen:
                consumed[key] = len(obs)
                self._ring(self.histograms, key).append(
                    (t0, t1, WindowStats(t0, t1, obs[seen:])))
        tracer = self.tracer
        if tracer is None or not getattr(tracer, "enabled", False):
            return
        for cat, durs in tracer._durations.items():
            if "[" in cat:       # tenant-split series duplicate the base
                continue
            key = (f"trace.{cat}", ())
            seen = consumed.get(key, 0)
            if len(durs) > seen:
                consumed[key] = len(durs)
                self._ring(self.histograms, key).append(
                    (t0, t1, WindowStats(t0, t1, durs[seen:])))

    # -- queries -----------------------------------------------------------
    def _windows(self, rings, name, labels, window_s, now):
        """Entries of every matching series, one series after the
        other."""
        entries = [e for ring in select(rings, name, labels) for e in ring]
        if window_s is None:
            return entries
        cutoff = (self.last_tick if now is None else now) - window_s
        return [entry for entry in entries if entry[1] > cutoff]

    def delta(self, name: str, labels=(), window_s: Optional[float] = None,
              now: Optional[float] = None) -> float:
        """Total counter increase over the trailing ``window_s``."""
        return sum(d for _t0, _t1, d in
                   self._windows(self.counters, name, labels,
                                 window_s, now))

    def rate(self, name: str, labels=(), window_s: Optional[float] = None,
             now: Optional[float] = None) -> float:
        """Counter increase per second over the trailing window."""
        if window_s is None:
            window_s = self.window * self.retention
        d = self.delta(name, labels, window_s, now)
        return d / window_s if window_s > 0 else 0.0

    def gauge_last(self, name: str, labels=()) -> Optional[float]:
        rings = select(self.gauges, name, labels)
        return sum(ring[-1][2] for ring in rings) if rings else None

    def gauge_series(self, name: str, labels=(),
                     window_s: Optional[float] = None
                     ) -> List[Tuple[float, float]]:
        """``(t1, value)`` samples over the trailing window, matching
        series added tick by tick."""
        out: Dict[float, float] = {}
        for _t0, t1, v in self._windows(self.gauges, name, labels,
                                        window_s, None):
            out[t1] = out.get(t1, 0.0) + v
        return sorted(out.items())

    def window_stats(self, name: str, labels=(),
                     window_s: Optional[float] = None,
                     now: Optional[float] = None
                     ) -> Optional[WindowStats]:
        """Merged rollup of every histogram window in the trailing
        ``window_s`` (None when no observations landed)."""
        entries = self._windows(self.histograms, name, labels,
                                window_s, now)
        if not entries:
            return None
        merged = WindowStats(min(e[0] for e in entries),
                             max(e[1] for e in entries))
        for _t0, _t1, stats in entries:
            merged.count += stats.count
            merged.total += stats.total
            merged.vmin = min(merged.vmin, stats.vmin)
            merged.vmax = max(merged.vmax, stats.vmax)
            merged.sketch.merge(stats.sketch)
        return merged

    def quantile(self, name: str, q: float, labels=(),
                 window_s: Optional[float] = None) -> float:
        stats = self.window_stats(name, labels, window_s)
        return stats.sketch.quantile(q) if stats is not None else 0.0

    def frac_above(self, name: str, threshold: float, labels=(),
                   window_s: Optional[float] = None
                   ) -> Tuple[float, float]:
        """``(fraction_above, observation_count)`` over the trailing
        window — the SLO monitor's bad-fraction primitive."""
        stats = self.window_stats(name, labels, window_s)
        if stats is None or not stats.count:
            return 0.0, 0.0
        return stats.sketch.frac_above(threshold), float(stats.count)


class LiveObs:
    """The always-on observability plane of one simulated deployment.

    Owns the :class:`WindowedStore` and the sim-time ticker process;
    optional attachments (SLO monitor, anomaly detectors, the trace
    sampler, ``repro top``'s renderer) all evaluate once per tick, in
    a fixed order:

    1. scrape the window into the store;
    2. refresh the tail sampler's per-category slowness thresholds;
    3. evaluate SLO burn rates (may fire/resolve alerts);
    4. run anomaly detectors (append structured events, mirrored
       into ``obs_anomalies{detector}`` and ``anomaly`` spans);
    5. invoke registered ``on_tick(obs, now)`` callbacks.

    The ticker never mutates simulated state, so installing it leaves
    application results bit-identical.
    """

    def __init__(self, sim, monitor: Monitor, tracer=None,
                 window: float = 0.01, retention: int = RETENTION):
        self.sim = sim
        self.monitor = monitor
        self.store = WindowedStore(monitor, tracer=tracer,
                                   window=window, retention=retention)
        self.slo = None
        self.detectors: List[Any] = []
        self.on_tick: List[Callable[["LiveObs", float], None]] = []
        #: Structured anomaly events, oldest first:
        #: ``{"t", "detector", "metric", "value", "zscore",
        #: "direction"}``.
        self.events: List[Dict[str, Any]] = []
        self.ticks = 0
        self._proc = None

    @classmethod
    def attach(cls, cluster, window: Optional[float] = None, slos=(),
               tenants=(), threshold: float = 4.0,
               warmup: int = 8) -> "LiveObs":
        """Install the plane on a :class:`~repro.cluster.SimCluster` —
        the ticker (the window defaults from the cluster's config), the
        SLO monitor when objectives are given, and the standard
        detector bank (whose ``realloc_thrash`` events the
        :class:`ReallocLoop` consumes for backoff). A cluster that has
        a plane (``system.obs``) keeps it: what is attached stays, what
        is missing is added, so a later call may name the tenants."""
        obs = getattr(cluster.system, "obs", None)
        if obs is None:
            cfg = cluster.spec.config
            obs = cls(cluster.sim, cluster.monitor, tracer=cluster.tracer,
                      window=cfg.obs_window if window is None else window
                      ).install(cluster.system)
        if slos and obs.slo is None:
            SLOMonitor(obs, list(slos))
        have = {d.name: d for d in obs.detectors}
        bank = standard_detectors(tenants, cluster.spec.n_nodes,
                                  threshold, warmup)
        obs.detectors = [have.pop(d.name, d) for d in bank] \
            + list(have.values())
        return obs

    def install(self, system=None) -> "LiveObs":
        """Spawn the ticker; expose self as ``system.obs`` so runtime
        components (ReallocLoop, chaos hooks) can consume events."""
        if system is not None:
            system.obs = self
        sampler = getattr(self.store.tracer, "sampler", None) \
            if self.store.tracer is not None else None
        if sampler is not None:
            sampler.obs = self
        if self._proc is None:
            self._proc = self.sim.process(self._run(), name="obs")
        return self

    def _run(self):
        while True:
            yield self.sim.timeout(self.store.window)
            self.tick()

    def tick(self) -> None:
        now = self.sim.now
        self.store.tick(now)
        self.ticks += 1
        tracer = self.store.tracer
        sampler = getattr(tracer, "sampler", None) if tracer else None
        if sampler is not None:
            sampler.refresh_thresholds(self.store)
        if self.slo is not None:
            self.slo.evaluate(now)
        for det in self.detectors:
            for event in det.tick(self.store, now):
                self.events.append(event)
                self.monitor.count("obs_anomalies",
                                   detector=event["detector"])
                if tracer is not None and tracer.enabled:
                    tracer.record(event["detector"], "anomaly", -1, now,
                                  now, metric=event["metric"],
                                  zscore=event["zscore"],
                                  direction=event["direction"])
        for cb in self.on_tick:
            cb(self, now)

    # -- consumption -------------------------------------------------------
    def events_since(self, t: float,
                     detector: Optional[str] = None
                     ) -> List[Dict[str, Any]]:
        """Anomaly events at or after simulated time ``t``."""
        return [e for e in self.events
                if e["t"] >= t and (detector is None
                                    or e["detector"] == detector)]

    def alert_active(self) -> bool:
        """Whether any attached SLO alert is currently firing (the
        tail sampler keeps every span inside firing windows)."""
        return self.slo is not None and bool(self.slo.firing)
