"""Structured span tracing against simulated time.

The paper attributes MegaMmap's wins to *overlap*: prefetching, async
eviction, and organizer sweeps hide device and network time behind
compute. Flat counters cannot show whether that overlap actually
happens — only a timeline can. :class:`Tracer` records nested spans
``(name, category, node, start, end, attrs)`` so one trace shows a
page fault decomposed into runtime queue wait, device I/O, network
transfer, and install (the role UMap's application-visible telemetry
and MaxMem's per-page latency tracking play for real tiered-memory
systems).

Design constraints:

* **Zero cost when disabled.** Call sites do
  ``with tracer.span(...):`` unconditionally; a disabled tracer hands
  back a shared no-op context manager and records nothing.
* **Correct nesting across interleaved processes.** Simulated
  processes interleave arbitrarily, so a single global span stack
  would corrupt parentage. Spans are stacked *per simulated process*
  (the engine's currently-active :class:`~repro.sim.engine.Process`),
  within which execution is serial.
* **Chrome trace export.** :meth:`Tracer.export_chrome` writes the
  Trace Event Format JSON (``ph: "X"`` complete events plus thread
  metadata) that ``chrome://tracing`` and Perfetto load directly.
  Spans still open at export time (a pipeline that raised mid-run)
  are emitted closed at the current simulated time with an
  ``unfinished: true`` attribute, so crash traces load too.

Causal-edge contract (consumed by :mod:`repro.obs`): spans carry
cross-process causality in their *attributes*, so the edges survive
the Chrome JSON round trip unchanged:

* ``cause: <span_id>`` on a span means "the span with that id caused
  this one across a process boundary" (an RPC submit causing the
  owning runtime's queue-wait and service spans, a prefetch issue
  causing the fill).
* ``wait_on: [<span_id>, ...]`` on a span means "this span blocked on
  those spans" (a fault waiting for an in-flight prefetch install).

:meth:`Tracer.current_span_id` exposes the innermost open span of the
active simulated process so call sites can stamp ``cause`` onto work
they hand to another process.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.monitor import LabeledHistogram, MetricsRegistry, \
    Monitor, nearest_rank

__all__ = ["Span", "Tracer", "TraceSampler", "NOOP_TRACER"]


class Span:
    """One timed interval on a track, possibly nested inside another."""

    __slots__ = ("name", "category", "node", "start", "end", "attrs",
                 "track", "parent_id", "span_id", "keep")

    def __init__(self, name: str, category: str, node: int,
                 start: float, attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.category = category
        self.node = node
        self.start = start
        self.end = start
        self.attrs = attrs or {}
        self.track = ""
        self.parent_id: Optional[int] = None
        self.span_id = 0
        #: Retention verdict under tail-based sampling (always True
        #: without a sampler). Children inherit the root's head
        #: decision; a slow/error/alert-window child promotes itself
        #: and its open ancestors at close time.
        self.keep = True

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __setitem__(self, key: str, value: Any) -> None:
        """Attach an attribute mid-span (``sp["nbytes"] = n``)."""
        self.attrs[key] = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span {self.category}:{self.name} node={self.node} "
                f"[{self.start:.6f}, {self.end:.6f})>")


class _NoopSpan:
    """Shared do-nothing context manager for disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def __setitem__(self, key: str, value: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()

#: A finished span is "slow" — and tail-promoted into the kept sample —
#: when its duration exceeds this many times the recent windowed p99 of
#: its category.
SLOW_FACTOR = 4.0


class TraceSampler:
    """Tail-based adaptive retention policy for always-on tracing.

    Head-sample: each *root* span draws once against ``head_rate``
    from a dedicated seeded RNG stream, and every descendant inherits
    the verdict — sampling is per trace, not per span, so kept traces
    are complete trees. Tail-promote: a span that closes "interesting"
    is kept regardless of the head draw, along with its still-open
    ancestors. Interesting means any of:

    * slow — duration above the category's dynamic threshold
      (``slow_factor`` x the recent windowed p99, refreshed each obs
      tick from the :class:`~repro.obs.live.WindowedStore`);
    * an always-keep category (fault injection, repairs, alerts,
      anomalies) or recovery span name;
    * an error attribute (``error``/``unfinished``/``corrupt``);
    * closing inside a firing-alert window (``obs.alert_active()``).

    Per-category duration statistics are *never* sampled — every
    span's duration lands in ``span_seconds{category}`` — so
    ``latency_summary`` stays exact; only span-object retention (the
    memory and export cost) is reduced. The RNG stream is seeded and
    private, so enabling sampling perturbs no other random draw and
    simulated results stay bit-identical.
    """

    ALWAYS_KEEP_CATEGORIES = frozenset({"chaos", "alert", "anomaly"})
    ALWAYS_KEEP_NAMES = frozenset({"recover", "repair", "wal_recover"})
    ERROR_ATTRS = ("error", "unfinished", "corrupt")

    def __init__(self, rng, head_rate: float,
                 slow_factor: float = SLOW_FACTOR):
        if not 0.0 < head_rate <= 1.0:
            raise ValueError(f"head_rate must be in (0,1], got "
                             f"{head_rate}")
        self.rng = rng
        self.head_rate = head_rate
        self.slow_factor = slow_factor
        #: Per-category slowness cutoffs in simulated seconds,
        #: refreshed from the windowed store by the obs ticker.
        self.thresholds: Dict[str, float] = {}
        #: Observability plane providing ``alert_active()`` (attached
        #: by :meth:`LiveObs.install` when both are present).
        self.obs = None
        self.sampled_out = 0
        self.tail_promoted = 0

    def head_decision(self) -> bool:
        return self.rng.random() < self.head_rate

    def tail_keep(self, span: Span) -> bool:
        """Whether a head-rejected span must be kept anyway."""
        if span.category in self.ALWAYS_KEEP_CATEGORIES \
                or span.name in self.ALWAYS_KEEP_NAMES:
            return True
        if span.attrs:
            for key in self.ERROR_ATTRS:
                if span.attrs.get(key):
                    return True
        threshold = self.thresholds.get(span.category)
        if threshold is not None and span.duration > threshold:
            return True
        obs = self.obs
        return obs is not None and obs.alert_active()

    def refresh_thresholds(self, store) -> None:
        """Pull ``slow_factor`` x windowed-p99 per category from a
        :class:`~repro.obs.live.WindowedStore`'s ``span_seconds``
        series."""
        for (name, labels) in store.histograms:
            if name != "span_seconds":
                continue
            p99 = store.quantile(name, 99, labels)
            if p99 > 0.0:
                self.thresholds[dict(labels)["category"]] = \
                    self.slow_factor * p99


class _SpanCtx:
    """Context manager that opens a span on ``__enter__`` and closes
    it at the simulated time of ``__exit__``.

    Works inside generator-style processes: the ``with`` block
    suspends and resumes with the generator, so the close time is the
    simulated time when the block actually completes.
    """

    __slots__ = ("tracer", "span", "_track_key")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span
        self._track_key: Optional[int] = None

    def __enter__(self) -> Span:
        self._track_key = self.tracer._open(self.span)
        return self.span

    def __exit__(self, *exc) -> bool:
        self.tracer._close(self.span, self._track_key)
        return False


class Tracer:
    """Span recorder for one simulation.

    ``enabled`` may be flipped at any time; spans opened while enabled
    are recorded even if the tracer is disabled before they close.
    ``max_spans`` bounds memory: past it, span objects are dropped
    (the drop count is reported in :meth:`latency_summary` so the
    truncation is never silent) but every duration is still observed
    into ``span_seconds{category}``, keeping percentiles exact.

    Durations live in ``metrics`` (the run's
    :class:`~repro.sim.monitor.MetricsRegistry`; a private one when
    none is given), so the live plane windows them like any other
    histogram.
    """

    def __init__(self, sim: Simulator, enabled: bool = False,
                 max_spans: int = 500_000,
                 metrics: Optional[MetricsRegistry] = None):
        self.sim = sim
        self.enabled = enabled
        self.max_spans = max_spans
        self.metrics = metrics if metrics is not None \
            else Monitor(sim).metrics
        self.spans: List[Span] = []
        self.dropped = 0
        #: Optional :class:`TraceSampler`; None keeps every span.
        self.sampler: Optional[TraceSampler] = None
        #: ``span_seconds`` handle per category.
        self._hists: Dict[str, LabeledHistogram] = {}
        self._stacks: Dict[int, List[Span]] = {}
        self._next_id = 1

    # -- recording ---------------------------------------------------------
    def span(self, name: str, category: str, node: int = -1, **attrs):
        """Open a nested span: ``with tracer.span("fault", "pcache",
        node=0, page=3) as sp:``. No-op when disabled."""
        if not self.enabled:
            return _NOOP_SPAN
        return _SpanCtx(self, Span(name, category, node, self.sim.now,
                                   attrs))

    def record(self, name: str, category: str, node: int,
               start: float, end: float, **attrs) -> None:
        """Record an already-elapsed interval (e.g. a queue wait
        measured as ``now - enqueue_time``). No-op when disabled."""
        if not self.enabled:
            return
        span = Span(name, category, node, start, attrs)
        span.end = end
        span.span_id = self._next_id
        self._next_id += 1
        span.track = self._track_name()
        if self.sampler is not None:
            proc = self.sim._active
            stack = self._stacks.get(
                id(proc) if proc is not None else 0)
            span.keep = stack[-1].keep if stack \
                else self.sampler.head_decision()
            if not span.keep and self.sampler.tail_keep(span):
                span.keep = True
                self.sampler.tail_promoted += 1
                if stack:
                    for open_span in stack:
                        open_span.keep = True
        self._finish(span)

    def _track_name(self) -> str:
        proc = self.sim._active
        return proc.name if proc is not None else "main"

    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span of the active simulated
        process (None when disabled or no span is open). Call sites
        stamp this onto cross-process work as the ``cause`` attr."""
        if not self.enabled:
            return None
        proc = self.sim._active
        stack = self._stacks.get(id(proc) if proc is not None else 0)
        return stack[-1].span_id if stack else None

    def open_spans(self) -> List[Span]:
        """Spans opened but not yet closed (innermost last per
        process). Nonempty during a run, or after a crash unwound
        processes without running their ``__exit__`` handlers."""
        out: List[Span] = []
        for stack in self._stacks.values():
            out.extend(stack)
        return out

    def _open(self, span: Span) -> int:
        proc = self.sim._active
        key = id(proc) if proc is not None else 0
        span.track = proc.name if proc is not None else "main"
        span.span_id = self._next_id
        self._next_id += 1
        stack = self._stacks.get(key)
        if stack:
            span.parent_id = stack[-1].span_id
        else:
            stack = self._stacks[key] = []
        if self.sampler is not None:
            # Per-trace head sampling: descendants inherit the root's
            # draw, so a kept trace is a complete tree.
            span.keep = stack[-1].keep if stack \
                else self.sampler.head_decision()
        stack.append(span)
        return key

    def _close(self, span: Span, key: Optional[int]) -> None:
        span.end = self.sim.now
        stack = self._stacks.get(key)
        if stack and stack[-1] is span:
            stack.pop()
            if not stack:
                del self._stacks[key]
                stack = None
        elif stack and span in stack:  # pragma: no cover - defensive
            stack.remove(span)
        if self.sampler is not None and not span.keep \
                and self.sampler.tail_keep(span):
            # Tail promotion: keep this span and its open ancestors so
            # the exported trace shows the slow path in context.
            span.keep = True
            self.sampler.tail_promoted += 1
            if stack:
                for open_span in stack:
                    open_span.keep = True
        self._finish(span)

    def _finish(self, span: Span) -> None:
        hist = self._hists.get(span.category)
        if hist is None:
            hist = self._hists[span.category] = self.metrics.histogram(
                "span_seconds", category=span.category)
        hist.observe(span.duration)
        if not span.keep:
            # Head-rejected and not tail-promoted: the duration above
            # is still counted (percentiles stay exact), only the span
            # object is discarded.
            self.sampler.sampled_out += 1
            return
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1

    # -- statistics --------------------------------------------------------
    def latency_summary(self) -> Dict[str, float]:
        """Flat dict of per-category latency statistics from the
        ``span_seconds`` histograms, keyed ``trace.<category>.<stat>``
        — the block :meth:`~repro.sim.monitor.Monitor.summary` folds
        in."""
        out: Dict[str, float] = {}
        for cat, hist in self._hists.items():
            ordered = sorted(hist.observations)
            n = len(ordered)
            out[f"trace.{cat}.count"] = float(n)
            out[f"trace.{cat}.total"] = sum(ordered)
            out[f"trace.{cat}.mean"] = sum(ordered) / n
            for q in (50, 95, 99):
                out[f"trace.{cat}.p{q}"] = nearest_rank(ordered, q)
        if self.dropped:
            out["trace.dropped_spans"] = float(self.dropped)
        if self.sampler is not None:
            out["trace.sampled_out"] = float(self.sampler.sampled_out)
            out["trace.tail_promoted"] = float(
                self.sampler.tail_promoted)
        return out

    # -- export ------------------------------------------------------------
    def to_chrome_events(self) -> List[Dict[str, Any]]:
        """Spans as Chrome Trace Event Format dicts (µs timestamps).

        Spans still open (a pipeline crashed mid-run and its ``with``
        blocks never ran ``__exit__``) are emitted closed at the
        current simulated time and tagged ``unfinished: true`` — a
        crash trace must still load in Perfetto. The live Span objects
        are not mutated: a span that later closes normally records its
        real end.
        """
        events: List[Dict[str, Any]] = []
        tids: Dict[Tuple[int, str], int] = {}
        pids = set()
        now = self.sim.now if self.sim is not None else 0.0
        open_ids = set()
        pending: List[Tuple[Span, bool]] = []
        for span in self.open_spans():
            open_ids.add(span.span_id)
            pending.append((span, True))
        closed = [(s, False) for s in self.spans
                  if s.span_id not in open_ids]
        for span, unfinished in closed + pending:
            pid = span.node if span.node >= 0 else -1
            tkey = (pid, span.track)
            tid = tids.get(tkey)
            if tid is None:
                tid = tids[tkey] = len(tids) + 1
                events.append({
                    "ph": "M", "name": "thread_name", "pid": pid,
                    "tid": tid, "args": {"name": span.track}})
            if pid not in pids:
                pids.add(pid)
                events.append({
                    "ph": "M", "name": "process_name", "pid": pid,
                    "args": {"name": f"node{pid}" if pid >= 0
                             else "cluster"}})
            args = {k: v for k, v in span.attrs.items()}
            if span.parent_id is not None:
                args["parent"] = span.parent_id
            args["id"] = span.span_id
            end = span.end
            if unfinished:
                args["unfinished"] = True
                end = max(now, span.start)
            events.append({
                "name": span.name, "cat": span.category, "ph": "X",
                "ts": span.start * 1e6,
                "dur": (end - span.start) * 1e6,
                "pid": pid, "tid": tid, "args": args})
        return events

    def export_chrome(self, path: str) -> str:
        """Write the trace as Chrome-trace-format JSON; returns
        ``path``. Load in ``chrome://tracing`` or Perfetto."""
        doc = {"traceEvents": self.to_chrome_events(),
               "displayTimeUnit": "ms",
               "otherData": {"dropped_spans": self.dropped}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


#: Shared disabled tracer for components constructed without one
#: (standalone Network/Monitor in unit tests). Never enable it: it has
#: no simulator to take timestamps from.
NOOP_TRACER = Tracer(sim=None)  # type: ignore[arg-type]
