"""Streaming windowed observability: the live rollup store and ticker.

:mod:`repro.obs.report` answers *where the time went* after a run;
this module answers *what is happening right now*, cheaply enough to
leave on for production-shaped runs. A sim-time ticker closes one
fixed window per ``obs_window`` seconds; at each tick the
:class:`WindowedStore` indexes what the
:class:`~repro.sim.monitor.MetricsRegistry` gained in the window —
counter deltas, gauge samples, and for each histogram (span durations
are the ``span_seconds{category}`` histograms) the range of its
observations that landed — in a ring of :data:`RETENTION` windows.
The registry is the one store: a windowed quantile is an exact
nearest-rank over those slices of it, never a copy or a sketch.

Scrape-at-tick is the load-bearing design decision: nothing hooks the
hot paths, the ticker is a plain timeout-yielding process that only
*reads* simulated state, and the sampler/detector/SLO consumers all
run off the same scrape. No component of the simulated system reads
the plane back, so observability-on runs produce bit-identical
application results to observability-off runs (the kernel-equivalence
suite pins this).

Consumers:

* :mod:`repro.obs.slo` evaluates burn-rate alerts against windowed
  bad-fractions each tick;
* :mod:`repro.obs.anomaly` detectors score windowed series each tick;
* the tracer's tail sampler refreshes its per-category slowness
  thresholds from the windowed ``span_seconds`` p99 each tick;
* ``repro top`` renders the store directly.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, \
    Optional, Tuple

from repro.obs.anomaly import standard_detectors
from repro.obs.slo import SLOMonitor
from repro.sim.monitor import LabeledHistogram, LabelSet, Monitor, \
    nearest_rank, select

__all__ = ["WindowStats", "WindowedStore", "LiveObs"]

#: Closed windows retained per series — the windowed store's ring size.
RETENTION = 120


class WindowStats:
    """Exact rollup of the observations that landed in a span of
    windows: count, total, extremes, and nearest-rank quantiles over
    the values themselves."""

    __slots__ = ("t0", "t1", "values")

    def __init__(self, t0: float, t1: float,
                 values: Iterable[float] = ()):
        self.t0 = t0
        self.t1 = t1
        #: Every observation, ascending.
        self.values = sorted(values)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def vmin(self) -> float:
        return self.values[0] if self.values else float("inf")

    @property
    def vmax(self) -> float:
        return self.values[-1] if self.values else float("-inf")

    @property
    def mean(self) -> float:
        return self.total / self.count if self.values else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile, ``q`` in [0, 100]."""
        return nearest_rank(self.values, q)

    def frac_above(self, threshold: float) -> float:
        """Fraction of observations strictly above ``threshold``."""
        n = len(self.values)
        return (n - bisect_right(self.values, threshold)) / n if n \
            else 0.0


class _Slices(deque):
    """One histogram series' windows: ``(t0, t1, lo, hi)`` index ranges
    into ``series.observations`` (the registry's own list, never
    copied)."""

    def __init__(self, series: LabeledHistogram, retention: int):
        super().__init__(maxlen=retention)
        self.series = series


class WindowedStore:
    """Fixed-interval rollup rings over the metrics registry.

    Keys are ``(name, labelset)`` like the registry's — span durations
    are the ``span_seconds{category}`` histograms. Queries take the
    registry's selector (:func:`~repro.sim.monitor.select`): labels
    asked for match every series that carries them. Three ring
    families:

    * **counters** — ``(t0, t1, delta)`` per window, appended only for
      nonzero deltas (queries treat missing windows as zero);
    * **gauges** — ``(t0, t1, value)`` point-sampled at each tick;
    * **histograms** — ``(t0, t1, lo, hi)`` per window with new
      observations: the index range of the registry series'
      ``observations`` that landed in it. Queries read those slices,
      so windowed quantiles are exact.

    Every ring is a ``deque(maxlen=retention)``; per-source cursors
    (last counter value, the newest window's ``hi``) make each tick
    O(live series), not O(history).
    """

    def __init__(self, monitor: Monitor, window: float = 0.01,
                 retention: int = RETENTION):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if retention < 2:
            raise ValueError(f"retention must be >= 2, got {retention}")
        self.monitor = monitor
        self.window = window
        self.retention = retention
        self.counters: Dict[Tuple[str, LabelSet],
                            Deque[Tuple[float, float, float]]] = {}
        self.gauges: Dict[Tuple[str, LabelSet],
                          Deque[Tuple[float, float, float]]] = {}
        self.histograms: Dict[Tuple[str, LabelSet], _Slices] = {}
        self._last_counter: Dict[Tuple[str, LabelSet], float] = {}
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
        for key, h in self.monitor.metrics.histograms.items():
            ring = self.histograms.get(key)
            if ring is None:
                ring = self.histograms[key] = _Slices(h, self.retention)
            lo = ring[-1][3] if ring else 0
            hi = len(h.observations)
            if hi > lo:
                ring.append((t0, t1, lo, hi))

    # -- queries -----------------------------------------------------------
    def _cutoff(self, window_s, now) -> float:
        if window_s is None:
            return float("-inf")
        return (self.last_tick if now is None else now) - window_s

    def _windows(self, rings, name, labels, window_s, now):
        """Entries of every matching series, one series after the
        other."""
        cutoff = self._cutoff(window_s, now)
        return [entry for ring in select(rings, name, labels)
                for entry in ring if entry[1] > cutoff]

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
        """Every observation of every matching series in the trailing
        ``window_s``, rolled up exactly (None when none landed)."""
        cutoff = self._cutoff(window_s, now)
        values: List[float] = []
        t0, t1 = float("inf"), float("-inf")
        for ring in select(self.histograms, name, labels):
            obs = ring.series.observations
            for w0, w1, lo, hi in ring:
                if w1 > cutoff:
                    values.extend(obs[lo:hi])
                    t0, t1 = min(t0, w0), max(t1, w1)
        return WindowStats(t0, t1, values) if values else None

    def quantile(self, name: str, q: float, labels=(),
                 window_s: Optional[float] = None) -> float:
        stats = self.window_stats(name, labels, window_s)
        return stats.quantile(q) if stats is not None else 0.0

    def frac_above(self, name: str, threshold: float, labels=(),
                   window_s: Optional[float] = None
                   ) -> Tuple[float, float]:
        """``(fraction_above, observation_count)`` over the trailing
        window — the SLO monitor's bad-fraction primitive."""
        stats = self.window_stats(name, labels, window_s)
        if stats is None:
            return 0.0, 0.0
        return stats.frac_above(threshold), float(stats.count)


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

    The ticker never mutates simulated state and nothing in the
    simulated system reads the plane, so installing it leaves
    application results bit-identical.
    """

    def __init__(self, sim, monitor: Monitor, tracer=None,
                 window: float = 0.01, retention: int = RETENTION):
        self.sim = sim
        self.monitor = monitor
        #: Where alert and anomaly spans go, and whose sampler the
        #: tick refreshes.
        self.tracer = tracer if tracer is not None else monitor.tracer
        self.store = WindowedStore(monitor, window=window,
                                   retention=retention)
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
        detector bank. A cluster that has a plane (``system.obs``)
        keeps it: what is attached stays, what is missing is added, so
        a later call may name the tenants."""
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
        """Spawn the ticker; expose self as ``system.obs`` for the
        surfaces that render it (``repro top``/``slo``) and for
        :meth:`attach` to find."""
        if system is not None:
            system.obs = self
        sampler = getattr(self.tracer, "sampler", None)
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
        tracer = self.tracer
        sampler = getattr(tracer, "sampler", None)
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
