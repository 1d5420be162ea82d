"""Time-series statistics collection (the `pymonitor` stand-in).

The paper's artifact deploys a monitoring tool ("pymonitor") per node
producing time-series CSVs of CPU, network, and storage utilization,
which Jarvis aggregates into a ``stats_dict.csv``. :class:`Monitor`
plays that role: simulated components record gauges (bytes resident in
DRAM, device queue depth, ...) and counters (bytes read/written, page
faults), and the benchmark harness aggregates peaks/averages per run.

Every quantity lives once, in :class:`MetricsRegistry`, as a counter,
gauge or histogram keyed by ``(name, labels)`` — ``node=``, ``tier=``,
``vector=``, any string labels. A name is the dotted one
``RunResult.stats`` and ``stats_dict.csv`` carry (``hermes.gets``,
``node0.dram.used``); labels slice it further and never repeat what
the name says.
:class:`Monitor` fronts the registry for one-line call sites
(``monitor.count("rpc.batches", n)``); hot sites fetch a handle once
(``ctr = monitor.metrics.counter("pcache.faults", node=0)``) and pay
one attribute add per event — the same zero-cost-when-hot pattern the
tracer uses.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.sim.engine import Simulator

#: Sorted, hashable form of a labels dict.
LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, object]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def select(series: Dict[Tuple[str, LabelSet], object], name: str,
           labels=()) -> list:
    """Every series of ``name`` whose labels include ``labels`` (a
    dict or pairs): ``select(counters, "hermes.gets", {"node": 0})``
    is node 0's gets on every tier, and no labels selects them all.
    Readers sum what comes back (counters, histograms) or add last
    samples (gauges). A name carries one label schema, so an exact hit
    — the fast path — is the only match."""
    want = _labelset(dict(labels))
    hit = series.get((name, want))
    if hit is not None:
        return [hit]
    want = set(want)
    return [s for (n, ls), s in series.items()
            if n == name and want.issubset(ls)]


def nearest_rank(ordered: List[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in [0, 100]) of an
    ascending list; 0.0 when it is empty."""
    if not ordered:
        return 0.0
    n = len(ordered)
    return ordered[max(0, min(n - 1, int(-(-q * n // 100)) - 1))]


class TimeSeries:
    """A step-wise time series of (time, value) samples with bounded
    retention.

    Always-on monitoring records gauges for the whole run, so the raw
    sample list must not grow with run length. Once it exceeds
    ``max_samples`` the older half is *compacted*: its samples are
    folded into one rolled-up window ``(t0, t1, area, min, max)``
    appended to a bounded ring, and when the ring itself overflows its
    oldest window folds into a single base accumulator. Memory is
    therefore O(``max_samples`` + ``ROLLED_LIMIT``) regardless of run
    length, while the whole-run aggregates stay **exact**:

    * ``peak`` / ``minimum`` track running extremes over every sample
      ever recorded;
    * ``time_average(until)`` integrates base + rolled windows + raw
      tail, which reproduces the full step-function integral exactly
      for any ``until`` inside the raw tail (the only approximation is
      pro-rata interpolation for an ``until`` that lands *inside* an
      already-rolled window);
    * ``last`` always reflects the newest sample (the tail is never
      emptied).

    ``max_samples=None`` (the default) uses ``DEFAULT_MAX_SAMPLES``;
    pass ``0`` to disable retention (unbounded raw samples).
    """

    __slots__ = ("samples", "max_samples", "rolled",
                 "_base_t0", "_base_t1", "_base_area",
                 "_peak", "_min", "_count")

    #: Raw-tail cap applied when no explicit ``max_samples`` is given.
    #: Large enough that short runs (every current test and report)
    #: never compact; long always-on runs stay bounded.
    DEFAULT_MAX_SAMPLES = 65536
    #: Rolled-window ring size; beyond it history folds into the base
    #: accumulator (exact area, no per-window resolution).
    ROLLED_LIMIT = 256

    def __init__(self, max_samples: Optional[int] = None):
        self.samples: List[Tuple[float, float]] = []
        self.max_samples = (self.DEFAULT_MAX_SAMPLES
                            if max_samples is None else int(max_samples))
        #: Rolled-up windows ``(t0, t1, area, vmin, vmax)`` oldest
        #: first, contiguous: each window's t1 is the next segment's
        #: start (the step function continues across the boundary).
        self.rolled: List[Tuple[float, float, float, float, float]] = []
        self._base_t0 = 0.0
        self._base_t1 = 0.0
        self._base_area = 0.0
        self._peak = float("-inf")
        self._min = float("inf")
        self._count = 0

    def record(self, t: float, value: float) -> None:
        if self.samples and t < self.samples[-1][0]:
            raise ValueError("samples must be recorded in time order")
        self.samples.append((t, value))
        self._count += 1
        if value > self._peak:
            self._peak = value
        if value < self._min:
            self._min = value
        if self.max_samples and len(self.samples) > self.max_samples:
            self._compact()

    def _compact(self) -> None:
        """Fold the older half of the raw tail into one rolled window.

        Compaction triggers once per ``max_samples / 2`` records, and
        each sample is folded at most once — O(1) amortized per
        record.
        """
        samples = self.samples
        keep_from = len(samples) // 2
        boundary_t = samples[keep_from][0]
        evicted = samples[:keep_from]
        area = 0.0
        for (t0, v0), (t1, _v1) in zip(evicted, evicted[1:]):
            area += v0 * (t1 - t0)
        # The last evicted sample's value holds until the first
        # retained sample — the step function has no gap.
        area += evicted[-1][1] * (boundary_t - evicted[-1][0])
        vmin = min(v for _, v in evicted)
        vmax = max(v for _, v in evicted)
        self.rolled.append((evicted[0][0], boundary_t, area, vmin, vmax))
        self.samples = samples[keep_from:]
        if len(self.rolled) > self.ROLLED_LIMIT:
            t0, t1, a, _vmin, _vmax = self.rolled.pop(0)
            if self._base_t1 == self._base_t0 == 0.0 \
                    and self._base_area == 0.0:
                self._base_t0 = t0
            self._base_t1 = t1
            self._base_area += a

    @property
    def retained(self) -> int:
        """Raw samples currently held (tests assert the cap)."""
        return len(self.samples)

    @property
    def count(self) -> int:
        """Samples ever recorded (including compacted ones)."""
        return self._count

    @property
    def last(self) -> float:
        return self.samples[-1][1] if self.samples else 0.0

    @property
    def peak(self) -> float:
        return self._peak if self._count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self._count else 0.0

    @property
    def first_time(self) -> float:
        """Timestamp of the earliest sample ever recorded."""
        if self._base_area or self._base_t1 > self._base_t0:
            return self._base_t0
        if self.rolled:
            return self.rolled[0][0]
        return self.samples[0][0] if self.samples else 0.0

    def _area_until(self, end: float) -> float:
        """Step-function integral over ``[first sample, end)``."""
        total = 0.0
        if self._base_area:
            if end >= self._base_t1:
                total += self._base_area
            elif end > self._base_t0:
                frac = (end - self._base_t0) \
                    / (self._base_t1 - self._base_t0)
                return self._base_area * frac
            else:
                return 0.0
        for (t0, t1, area, _vmin, _vmax) in self.rolled:
            if end >= t1:
                total += area
            elif end > t0:
                return total + area * (end - t0) / (t1 - t0)
            else:
                return total
        samples = self.samples
        if not samples:
            return total
        for (t0, v0), (t1, _v1) in zip(samples, samples[1:]):
            if t0 >= end:
                return total
            total += v0 * (min(t1, end) - t0)
        if samples[-1][0] < end:
            total += samples[-1][1] * (end - samples[-1][0])
        return total

    def time_average(self, until: Optional[float] = None) -> float:
        """Time-weighted average over ``[first sample, until)``,
        treating the series as a step function.

        An empty window (no samples, or ``until`` at or before the
        first sample) averages to 0.0; samples past ``until`` are
        clipped rather than counted. Exact for any ``until`` at or
        past the start of the retained raw tail; pro-rata within
        rolled-up history.
        """
        if not self._count:
            return 0.0
        end = until if until is not None else self.samples[-1][0]
        span = end - self.first_time
        if span <= 0:
            return 0.0
        return self._area_until(end) / span


class LabeledCounter:
    """Monotonic counter for one (name, labelset). Handles are cheap
    to hold: hot sites fetch once and call :meth:`inc` per event."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, delta: float = 1.0) -> None:
        self.value += delta


class LabeledGauge:
    """Instantaneous quantity for one (name, labelset), sampled as a
    step-function time series against simulated time so reports can
    compute a time average (the Little's-law L comparison)."""

    __slots__ = ("sim", "value", "series")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.value = 0.0
        self.series = TimeSeries()

    def set(self, value: float) -> None:
        self.value = value
        self.series.record(self.sim.now, value)

    def add(self, delta: float = 1.0) -> None:
        self.set(self.value + delta)

    def sub(self, delta: float = 1.0) -> None:
        self.set(self.value - delta)

    @property
    def peak(self) -> float:
        return self.series.peak

    def time_average(self) -> float:
        return self.series.time_average(until=self.sim.now)


class LabeledHistogram:
    """Observation histogram for one (name, labelset); exported as
    Prometheus summary quantiles (:func:`nearest_rank`, the rule every
    percentile of the run uses)."""

    __slots__ = ("observations",)

    def __init__(self):
        self.observations: List[float] = []

    def observe(self, value: float) -> None:
        self.observations.append(value)

    @property
    def count(self) -> int:
        return len(self.observations)

    @property
    def total(self) -> float:
        return sum(self.observations)

    def percentile(self, q: float) -> float:
        return nearest_rank(sorted(self.observations), q)


class MetricsRegistry:
    """Dimensioned counters/gauges/histograms keyed by (name, labels).

    ``monitor.metrics.counter("scache.reads", node=0)`` gets-or-creates
    a handle; labels are normalized to a sorted tuple of string pairs
    so any kwarg order maps to the same series.
    """

    def __init__(self, monitor: "Monitor"):
        self.monitor = monitor
        self.counters: Dict[Tuple[str, LabelSet], LabeledCounter] = {}
        self.gauges: Dict[Tuple[str, LabelSet], LabeledGauge] = {}
        self.histograms: Dict[Tuple[str, LabelSet],
                              LabeledHistogram] = {}

    def counter(self, name: str, **labels) -> LabeledCounter:
        key = (name, _labelset(labels))
        handle = self.counters.get(key)
        if handle is None:
            handle = self.counters[key] = LabeledCounter()
        return handle

    def gauge(self, name: str, **labels) -> LabeledGauge:
        key = (name, _labelset(labels))
        handle = self.gauges.get(key)
        if handle is None:
            handle = self.gauges[key] = LabeledGauge(self.monitor.sim)
        return handle

    def histogram(self, name: str, **labels) -> LabeledHistogram:
        key = (name, _labelset(labels))
        handle = self.histograms.get(key)
        if handle is None:
            handle = self.histograms[key] = LabeledHistogram()
        return handle


class Monitor:
    """One-line front over :class:`MetricsRegistry`, the only store."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: Every counter, gauge and histogram of the run.
        self.metrics = MetricsRegistry(self)
        #: Optional :class:`~repro.sim.trace.Tracer` whose per-category
        #: latency percentiles fold into :meth:`summary`.
        self.tracer = None

    def gauge(self, name: str, **labels) -> LabeledGauge:
        return self.metrics.gauge(name, **labels)

    def count(self, name: str, delta: float = 1.0, **labels) -> None:
        self.metrics.counter(name, **labels).inc(delta)

    def counter(self, name: str) -> float:
        """Total of ``name`` over all of its label sets."""
        return sum(c.value for c in select(self.metrics.counters, name))

    def peak(self, name: str) -> float:
        g = self.metrics.gauges.get((name, ()))
        return g.peak if g else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat dict of every counter summed over its label sets, plus
        peak and time average of each label-free gauge, plus
        per-category trace latency percentiles when a tracer is
        attached and was enabled.

        ``kernel.*`` keys report host-side scheduling counters; they
        describe wall-clock behaviour, not simulated time, so
        equivalence comparisons between kernels should exclude them.
        """
        out: Dict[str, float] = {}
        for (name, _ls), c in self.metrics.counters.items():
            out[name] = out.get(name, 0.0) + c.value
        for (name, ls), g in self.metrics.gauges.items():
            if ls:
                continue
            out[f"{name}.peak"] = g.peak
            avg = g.time_average()
            out[f"{name}.avg"] = avg if math.isfinite(avg) else 0.0
        sim = self.sim
        out["kernel.fast_events"] = float(sim.fast_events)
        out["kernel.heap_events"] = float(sim.heap_events)
        out["kernel.trampolines"] = float(sim.trampolines)
        if self.tracer is not None:
            out.update(self.tracer.latency_summary())
        return out
