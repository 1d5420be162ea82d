"""Causal span graph + critical-path engine.

Builds a dependency graph over recorded spans and computes the
end-to-end critical path of a run (the CRISP/Jaeger-style backward
walk). Edges come from three sources:

* **hierarchy** — a span's children (same-process nesting, recorded by
  the tracer as ``parent_id``);
* **cause** — explicit cross-process edges: a span whose ``cause``
  attr names span ``S`` is downstream work *of* ``S`` (rpc submit ->
  runtime queue/service, prefetch issue -> fill);
* **wait_on** — a span whose ``wait_on`` attr lists span ids blocked
  on those spans (a fault waiting for an in-flight prefetch install),
  so they are dependencies of the waiter.

The walk attributes every instant of the run window to exactly one
span: starting from a virtual root spanning ``[t0, t1]``, it descends
into the latest-ending dependency covering the current time, charges
the gaps between dependencies to the current span, and charges root
gaps (no span anywhere on the causal frontier) to **compute** — the
application thinking between memory operations. By construction the
attributed durations sum exactly to the makespan.

The **overlap ratio** is |IO-busy time ∩ compute-attributed critical
path| / |IO-busy time|: the fraction of I/O that ran shadowed behind
application compute instead of stalling it — the paper's central
overlap claim as a single number.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["IO_CATEGORIES", "SpanNode", "SpanGraph", "load_trace",
           "merge_intervals", "intersect_intervals", "interval_total"]

#: Categories whose spans count as I/O busy time for the overlap
#: ratio: device/network/storage work plus the runtime service that
#: drives it (but not the client-visible rpc/pcache wrappers, which
#: *contain* compute-side waiting).
IO_CATEGORIES = frozenset({
    "net", "scache", "scache.batch", "stager", "hermes", "rt.service",
})


class SpanNode:
    """One span in the analysis graph (loaded from a tracer or a
    Chrome-trace JSON file)."""

    __slots__ = ("span_id", "name", "category", "node", "start", "end",
                 "parent_id", "cause", "wait_on", "track", "attrs",
                 "unfinished")

    def __init__(self, span_id: int, name: str, category: str,
                 node: int, start: float, end: float,
                 parent_id: Optional[int] = None,
                 cause: Optional[int] = None,
                 wait_on: Optional[List[int]] = None,
                 track: str = "", attrs: Optional[Dict] = None,
                 unfinished: bool = False):
        self.span_id = span_id
        self.name = name
        self.category = category
        self.node = node
        self.start = start
        self.end = max(end, start)
        self.parent_id = parent_id
        self.cause = cause
        self.wait_on = wait_on or []
        self.track = track
        self.attrs = attrs or {}
        self.unfinished = unfinished

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def tier(self) -> str:
        """Storage tier this span touched, when its attrs say so."""
        for key in ("tier", "dst_tier", "src_tier"):
            v = self.attrs.get(key)
            if v:
                return str(v)
        return "-"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SpanNode #{self.span_id} {self.category}:{self.name} "
                f"[{self.start:.6f}, {self.end:.6f})>")


# -- interval helpers --------------------------------------------------------

def merge_intervals(intervals: Iterable[Tuple[float, float]]
                    ) -> List[Tuple[float, float]]:
    """Union of possibly-overlapping [start, end) intervals."""
    out: List[Tuple[float, float]] = []
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if out and s <= out[-1][1]:
            if e > out[-1][1]:
                out[-1] = (out[-1][0], e)
        else:
            out.append((s, e))
    return out


def intersect_intervals(a: List[Tuple[float, float]],
                        b: List[Tuple[float, float]]
                        ) -> List[Tuple[float, float]]:
    """Intersection of two *merged* (sorted, disjoint) interval lists."""
    out: List[Tuple[float, float]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def interval_total(intervals: Iterable[Tuple[float, float]]) -> float:
    return sum(e - s for s, e in intervals)


# -- graph -------------------------------------------------------------------

class SpanGraph:
    """Dependency graph over a run's spans, with the critical-path
    walk and derived statistics."""

    def __init__(self, spans: List[SpanNode]):
        self.spans = sorted(spans, key=lambda s: (s.start, s.end))
        self.by_id: Dict[int, SpanNode] = {
            s.span_id: s for s in self.spans}
        self._deps: Dict[int, List[SpanNode]] = {}
        wait_targets = set()
        for s in self.spans:
            if s.parent_id is not None and s.parent_id in self.by_id:
                self._deps.setdefault(s.parent_id, []).append(s)
            if s.cause is not None and s.cause in self.by_id:
                self._deps.setdefault(s.cause, []).append(s)
            for w in s.wait_on:
                target = self.by_id.get(w)
                if target is not None:
                    self._deps.setdefault(s.span_id, []).append(target)
                    wait_targets.add(w)
        # Dedupe dep lists, preserving order.
        for key, deps in self._deps.items():
            seen: set = set()
            uniq = []
            for d in deps:
                if d.span_id not in seen:
                    seen.add(d.span_id)
                    uniq.append(d)
            self._deps[key] = uniq
        self._roots = [
            s for s in self.spans
            if (s.parent_id is None or s.parent_id not in self.by_id)
            and (s.cause is None or s.cause not in self.by_id)
            and s.span_id not in wait_targets]

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def window(self) -> Tuple[float, float]:
        """[earliest span start, latest span end] — the run makespan."""
        if not self.spans:
            return (0.0, 0.0)
        return (min(s.start for s in self.spans),
                max(s.end for s in self.spans))

    @property
    def makespan(self) -> float:
        t0, t1 = self.window
        return t1 - t0

    def deps(self, span: SpanNode) -> List[SpanNode]:
        return self._deps.get(span.span_id, [])

    def roots(self) -> List[SpanNode]:
        """Top-level spans: no hierarchy parent, no causal parent, and
        not the target of any ``wait_on`` edge."""
        return self._roots

    # -- critical path -----------------------------------------------------
    def critical_path(self) -> List[Tuple[float, float,
                                          Optional[SpanNode]]]:
        """Attribute every instant of the run window to one span.

        Returns ``[(start, end, span_or_None), ...]`` segments; the
        ``None`` owner is the virtual root — time when nothing on the
        causal frontier was running, i.e. application **compute**.
        Segment durations sum exactly to the makespan.
        """
        t0, t1 = self.window
        segments: List[Tuple[float, float, Optional[SpanNode]]] = []
        if t1 <= t0:
            return segments
        on_path: set = set()

        def walk(deps: List[SpanNode], lo: float, hi: float,
                 owner: Optional[SpanNode]) -> None:
            t = hi
            for dep in sorted(deps, key=lambda d: d.end, reverse=True):
                if t <= lo:
                    break
                if dep.span_id in on_path:
                    continue  # causal cycle (malformed edge): skip
                d_end = min(dep.end, t)
                d_start = max(dep.start, lo)
                if d_end <= lo or d_start >= d_end:
                    continue
                if d_end < t:
                    # Gap after this dep belongs to the current owner.
                    segments.append((d_end, t, owner))
                on_path.add(dep.span_id)
                walk(self.deps(dep), d_start, d_end, dep)
                on_path.discard(dep.span_id)
                t = d_start
            if t > lo:
                segments.append((lo, t, owner))

        walk(self.roots(), t0, t1, None)
        segments.sort(key=lambda seg: seg[0])
        return segments

    def critical_breakdown(self) -> Dict[str, Any]:
        """Critical-path length attributed per category / node / tier.

        The virtual-root share appears as category ``compute`` (node
        ``-``, tier ``-``). Values sum to ``total`` (== makespan) by
        construction.
        """
        by_category: Dict[str, float] = {}
        by_node: Dict[str, float] = {}
        by_tier: Dict[str, float] = {}
        total = 0.0
        for s, e, owner in self.critical_path():
            d = e - s
            total += d
            cat = owner.category if owner is not None else "compute"
            node = str(owner.node) if owner is not None \
                and owner.node >= 0 else "-"
            tier = owner.tier if owner is not None else "-"
            by_category[cat] = by_category.get(cat, 0.0) + d
            by_node[node] = by_node.get(node, 0.0) + d
            by_tier[tier] = by_tier.get(tier, 0.0) + d
        return {"total": total, "by_category": by_category,
                "by_node": by_node, "by_tier": by_tier}

    # -- overlap ratio -----------------------------------------------------
    def io_busy(self) -> List[Tuple[float, float]]:
        """Merged wall-intervals during which any I/O-category span
        was in flight."""
        return merge_intervals(
            (s.start, s.end) for s in self.spans
            if s.category in IO_CATEGORIES)

    def overlap_ratio(self) -> float:
        """Fraction of I/O-busy time shadowed by critical-path
        compute: 1.0 means every I/O second ran behind application
        compute (perfect overlap), 0.0 means every I/O second stalled
        the critical path. Returns 0.0 when the run did no I/O.
        """
        io = self.io_busy()
        io_total = interval_total(io)
        if io_total <= 0:
            return 0.0
        compute = merge_intervals(
            (s, e) for s, e, owner in self.critical_path()
            if owner is None)
        shadowed = interval_total(intersect_intervals(io, compute))
        return shadowed / io_total

    # -- queueing ----------------------------------------------------------
    def queueing_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-node runtime-queue statistics from the ``rt.queue``
        wait spans, with the Little's-law quantities: arrival rate
        ``lambda = count / T``, mean wait ``W``, and the implied
        time-average queue length ``L = lambda * W``.
        """
        t0, t1 = self.window
        horizon = max(t1 - t0, 1e-30)
        waits: Dict[str, List[float]] = {}
        for s in self.spans:
            if s.category != "rt.queue":
                continue
            key = f"node{s.node}" if s.node >= 0 else "node?"
            waits.setdefault(key, []).append(s.duration)
        out: Dict[str, Dict[str, float]] = {}
        for key, durs in sorted(waits.items()):
            lam = len(durs) / horizon
            w = sum(durs) / len(durs)
            out[key] = {"count": float(len(durs)),
                        "arrival_rate": lam,
                        "mean_wait": w,
                        "little_L": lam * w}
        return out

    # -- misc --------------------------------------------------------------
    def top_spans(self, k: int = 10) -> List[SpanNode]:
        return sorted(self.spans, key=lambda s: s.duration,
                      reverse=True)[:k]

    # -- construction ------------------------------------------------------
    @classmethod
    def from_tracer(cls, tracer) -> "SpanGraph":
        """Build a graph from a live :class:`~repro.sim.trace.Tracer`
        (closed spans plus open spans clipped at the current simulated
        time, matching the crash-safe export)."""
        now = tracer.sim.now if tracer.sim is not None else 0.0
        nodes = []
        open_ids = set()
        for span in tracer.open_spans():
            open_ids.add(span.span_id)
            nodes.append(_from_span(span, end=max(now, span.start),
                                    unfinished=True))
        for span in tracer.spans:
            if span.span_id not in open_ids:
                nodes.append(_from_span(span, end=span.end))
        return cls(nodes)

    @classmethod
    def from_chrome_events(cls, events: List[Dict[str, Any]]
                           ) -> "SpanGraph":
        """Build a graph from Chrome Trace Event Format dicts (the
        tracer's export; timestamps are µs)."""
        nodes = []
        fallback_id = -1
        for ev in events:
            if ev.get("ph") != "X":
                continue
            args = ev.get("args") or {}
            span_id = args.get("id")
            if span_id is None:
                span_id = fallback_id
                fallback_id -= 1
            wait_on = args.get("wait_on") or []
            if not isinstance(wait_on, list):
                wait_on = [wait_on]
            start = float(ev.get("ts", 0.0)) / 1e6
            dur = float(ev.get("dur", 0.0)) / 1e6
            nodes.append(SpanNode(
                span_id=int(span_id),
                name=str(ev.get("name", "")),
                category=str(ev.get("cat", "")),
                node=int(ev.get("pid", -1)),
                start=start, end=start + dur,
                parent_id=args.get("parent"),
                cause=args.get("cause"),
                wait_on=[int(w) for w in wait_on],
                attrs=args,
                unfinished=bool(args.get("unfinished", False))))
        return cls(nodes)


def _from_span(span, end: float, unfinished: bool = False) -> SpanNode:
    attrs = span.attrs
    wait_on = attrs.get("wait_on") or []
    if not isinstance(wait_on, list):
        wait_on = [wait_on]
    return SpanNode(
        span_id=span.span_id, name=span.name, category=span.category,
        node=span.node, start=span.start, end=end,
        parent_id=span.parent_id, cause=attrs.get("cause"),
        wait_on=list(wait_on), track=span.track, attrs=attrs,
        unfinished=unfinished)


def load_trace(path: str) -> SpanGraph:
    """Load a Chrome-trace JSON file (the ``repro trace`` /
    ``export_chrome`` output) into a :class:`SpanGraph`."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    events = doc.get("traceEvents", doc) if isinstance(doc, dict) \
        else doc
    if not isinstance(events, list):
        raise ValueError(f"{path}: not a Chrome trace document")
    return SpanGraph.from_chrome_events(events)
