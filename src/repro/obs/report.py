"""Triage reports over a :class:`~repro.obs.graph.SpanGraph`.

:func:`analyze` distills a graph (plus, in live mode, the run's
:class:`~repro.sim.monitor.Monitor`) into one JSON-serializable dict;
:func:`render_report` pretty-prints it; :func:`diff_analyses` /
:func:`render_diff` align two runs by span category and report which
categories account for the runtime delta. :func:`render_top` /
:func:`top_json` and :func:`render_slo` print the live plane's final
windows and SLO report (``repro top`` / ``repro slo``).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from repro.obs.graph import SpanGraph

__all__ = ["analyze", "render_report", "render_top", "top_json",
           "render_slo", "diff_analyses", "render_diff"]

#: Relative tolerance for the Little's-law cross-check between the
#: span-derived L and the independently sampled backlog gauge. Loose on
#: purpose: the gauge measures queue+dispatch residency over the whole
#: run while the spans measure completed waits.
LITTLE_RTOL = 0.5

_SPARK = " .:-=+*#%@"

#: The counters every monitored ``Device`` registers as
#: ``<device>.<suffix>`` (``node0.nvme``, ``pfs4.hdd``) and the report's
#: device lines read.
DEVICE_SERIES = ("busy_s", "requests", "bytes_read", "bytes_write")

#: The scache read counters the report prints side by side: every read
#: served, and those answered with the bytes of their own stage-in.
SCACHE_SERIES = ("scache.reads", "scache.staged_reads")


def _sparkline(series, t0: float, t1: float, width: int = 40) -> str:
    """Render a step-function TimeSeries as a fixed-width occupancy
    strip (each cell is the time-average level over its bucket)."""
    samples = series.samples
    if not samples or t1 <= t0:
        return ""
    peak = max(v for _, v in samples) or 1.0
    cells = []
    step = (t1 - t0) / width
    idx = 0
    value = 0.0
    for b in range(width):
        lo, hi = t0 + b * step, t0 + (b + 1) * step
        area = 0.0
        t = lo
        while idx < len(samples) and samples[idx][0] <= hi:
            st, sv = samples[idx]
            if st > t:
                area += value * (st - t)
                t = st
            value = sv
            idx += 1
        area += value * (hi - t)
        level = (area / step) / peak
        cells.append(_SPARK[min(len(_SPARK) - 1,
                                int(level * (len(_SPARK) - 1) + 0.5))])
    return "".join(cells)


def analyze(graph: SpanGraph, monitor=None,
            top_k: int = 10) -> Dict[str, Any]:
    """Distill a span graph into the report dict.

    ``monitor`` (live mode only — unavailable when analyzing a trace
    file) adds per-tier occupancy timelines from the ``*.used`` gauges,
    each device's load (simulated seconds its queue was held, as a
    share of the makespan; requests; bytes per request), the scache's
    reads (:data:`SCACHE_SERIES`) and the independent backlog-gauge
    leg of the Little's-law check.
    """
    t0, t1 = graph.window
    breakdown = graph.critical_breakdown()
    queueing = graph.queueing_stats()
    if monitor is not None:
        for (name, labels), g in monitor.metrics.gauges.items():
            if name != "rt_backlog":
                continue
            node = dict(labels).get("node")
            key = f"node{node}"
            if key in queueing:
                q = queueing[key]
                gauge_l = g.time_average()
                q["gauge_L"] = gauge_l
                # Both legs near zero is trivially consistent.
                scale = max(q["little_L"], gauge_l, 1e-12)
                q["consistent"] = bool(
                    abs(q["little_L"] - gauge_l) / scale <= LITTLE_RTOL
                    or max(q["little_L"], gauge_l) < 0.05)
    occupancy: Dict[str, Dict[str, Any]] = {}
    if monitor is not None:
        for (name, _ls), gauge in sorted(monitor.metrics.gauges.items()):
            if not name.endswith(".used") \
                    or not name.startswith("node"):
                continue
            occupancy[name[:-len(".used")]] = {
                "peak": gauge.peak,
                "avg": gauge.time_average(),
                "timeline": _sparkline(gauge.series, t0, t1),
            }
    devices: Dict[str, Dict[str, float]] = {}
    if monitor is not None:
        for (name, _ls), c in sorted(monitor.metrics.counters.items()):
            if not name.endswith(".requests") or not c.value:
                continue
            dev = name[:-len(".requests")]
            series = [f"{dev}.{suffix}" for suffix in DEVICE_SERIES]
            busy, n, read, write = map(monitor.counter, series)
            devices[dev] = {
                "busy_s": busy,
                "busy_share": busy / graph.makespan
                if graph.makespan else 0.0,
                "requests": int(n),
                "bytes_per_request": (read + write) / n,
            }
    scache = {name.split(".", 1)[1]: int(monitor.counter(name))
              for name in SCACHE_SERIES} if monitor is not None else {}
    return {
        "t0": t0,
        "t1": t1,
        "makespan": graph.makespan,
        "n_spans": len(graph),
        "critical_path": breakdown,
        "overlap_ratio": graph.overlap_ratio(),
        "top_spans": [
            {"name": s.name, "category": s.category, "node": s.node,
             "start": s.start, "duration": s.duration,
             "unfinished": s.unfinished}
            for s in graph.top_spans(top_k)],
        "queueing": queueing,
        "occupancy": occupancy,
        "devices": devices,
        "scache": scache,
    }


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def _bar(frac: float, width: int = 28) -> str:
    n = int(round(max(0.0, min(1.0, frac)) * width))
    return "#" * n + "-" * (width - n)


def render_report(analysis: Dict[str, Any],
                  title: str = "run") -> str:
    """Human-readable triage report for one analyzed run."""
    lines: List[str] = []
    mk = analysis["makespan"]
    cp = analysis["critical_path"]
    lines.append(f"== repro report: {title} ==")
    lines.append(f"makespan            {_fmt_s(mk)}   "
                 f"({analysis['n_spans']} spans)")
    lines.append(f"critical path total {_fmt_s(cp['total'])}")
    lines.append(f"overlap ratio       "
                 f"{analysis['overlap_ratio'] * 100:.1f}%  "
                 f"(I/O time shadowed by compute)")
    lines.append("")
    lines.append("critical path by category:")
    total = max(cp["total"], 1e-30)
    for cat, dur in sorted(cp["by_category"].items(),
                           key=lambda kv: -kv[1]):
        lines.append(f"  {cat:<16} {_fmt_s(dur):>10}  "
                     f"{dur / total * 100:5.1f}%  "
                     f"{_bar(dur / total)}")
    if cp.get("by_node"):
        lines.append("critical path by node:")
        for node, dur in sorted(cp["by_node"].items(),
                                key=lambda kv: -kv[1]):
            lines.append(f"  {node:<16} {_fmt_s(dur):>10}  "
                         f"{dur / total * 100:5.1f}%")
    tiers = {t: d for t, d in (cp.get("by_tier") or {}).items()
             if t != "-"}
    if tiers:
        lines.append("critical path by tier:")
        for tier, dur in sorted(tiers.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {tier:<16} {_fmt_s(dur):>10}  "
                         f"{dur / total * 100:5.1f}%")
    lines.append("")
    lines.append(f"top {len(analysis['top_spans'])} spans:")
    for s in analysis["top_spans"]:
        mark = "  [unfinished]" if s.get("unfinished") else ""
        lines.append(f"  {_fmt_s(s['duration']):>10}  "
                     f"{s['category']}:{s['name']}  node={s['node']}  "
                     f"@{s['start']:.4f}{mark}")
    if analysis.get("queueing"):
        lines.append("")
        lines.append("runtime queueing (Little's law: L = lambda*W):")
        for node, q in sorted(analysis["queueing"].items()):
            extra = ""
            if "gauge_L" in q:
                verdict = "ok" if q.get("consistent") else "MISMATCH"
                extra = (f"  gauge L={q['gauge_L']:.3f} "
                         f"[{verdict}]")
            lines.append(
                f"  {node}: n={int(q['count'])} "
                f"lambda={q['arrival_rate']:.1f}/s "
                f"W={_fmt_s(q['mean_wait'])} "
                f"L={q['little_L']:.3f}{extra}")
    if analysis.get("occupancy"):
        lines.append("")
        lines.append("tier occupancy (time ->):")
        for dev, occ in sorted(analysis["occupancy"].items()):
            lines.append(
                f"  {dev:<14} |{occ['timeline']}| "
                f"peak={occ['peak'] / 2 ** 20:.1f}MB "
                f"avg={occ['avg'] / 2 ** 20:.1f}MB")
    if analysis.get("devices"):
        lines.append("")
        lines.append("device load (busy share of the makespan, requests, "
                     "bytes per request):")
        for dev, d in sorted(analysis["devices"].items()):
            lines.append(
                f"  {dev:<14} {d['busy_share'] * 100:6.1f}%  "
                f"busy={_fmt_s(d['busy_s']):>9}  "
                f"requests={d['requests']:<7d} "
                f"{d['bytes_per_request']:.0f} B/request")
    if analysis.get("scache"):
        lines.append("")
        lines.append(f"scache reads        {analysis['scache']['reads']}  "
                     f"({analysis['scache']['staged_reads']} answered "
                     f"from their own stage-in)")
    return "\n".join(lines)


def _fmt_series(name: str, labels) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def render_top(title: str, obs, limit: int) -> str:
    """``repro top``: the final windowed dashboard of a
    :class:`~repro.obs.live.LiveObs` plane."""
    store = obs.store
    now = store.last_tick
    lines = [f"== top: {title} @ t={now:.3f}s  "
             f"(window {store.window * 1e3:g} ms x {store.retention}, "
             f"{store.ticks} ticks) =="]

    counters = sorted(
        ((store.delta(name, ls), name, ls)
         for name, ls in store.counters), reverse=True)[:limit]
    if counters:
        lines.append("-- counters (retained window) --")
        width = max(len(_fmt_series(n, ls)) for _d, n, ls in counters)
        for delta, name, ls in counters:
            lines.append(f"  {_fmt_series(name, ls).ljust(width)}  "
                         f"+{delta:.6g}  "
                         f"({store.rate(name, ls):.6g}/s)")

    gauges = sorted(store.gauges)[:limit]
    if gauges:
        lines.append("-- gauges (last sample) --")
        width = max(len(_fmt_series(n, ls)) for n, ls in gauges)
        for name, ls in gauges:
            lines.append(f"  {_fmt_series(name, ls).ljust(width)}  "
                         f"{store.gauge_last(name, ls):.6g}")

    hists = []
    for name, ls in sorted(store.histograms):
        stats = store.window_stats(name, ls)
        if stats is not None:
            hists.append((stats.count, name, ls, stats))
    hists.sort(reverse=True, key=lambda h: (h[0], h[1]))
    if hists:
        lines.append("-- latencies (retained window, ms) --")
        width = max(len(_fmt_series(n, ls))
                    for _c, n, ls, _s in hists[:limit])
        for count, name, ls, stats in hists[:limit]:
            p50 = stats.quantile(50) * 1e3
            p99 = stats.quantile(99) * 1e3
            lines.append(f"  {_fmt_series(name, ls).ljust(width)}  "
                         f"n={count:<6d} mean={stats.mean * 1e3:.4g} "
                         f"p50={p50:.4g} p99={p99:.4g}")

    if obs.slo is not None and obs.slo.history:
        lines.append("-- alerts --")
        for alert in obs.slo.history:
            state = ("firing" if alert.firing else
                     f"resolved at {alert.resolved_at:.3f}s")
            lines.append(f"  {alert.slo}: fired at "
                         f"{alert.fired_at:.3f}s, {state} "
                         f"(burn fast {alert.fast_burn:.2f}x / "
                         f"slow {alert.slow_burn:.2f}x)")

    if obs.events:
        lines.append("-- anomalies --")
        for e in obs.events[-limit:]:
            lines.append(f"  t={e['t']:.3f}s {e['detector']} "
                         f"{e['direction']} z={e['zscore']:.1f} "
                         f"value={e['value']:.6g}")
    return "\n".join(lines)


def top_json(obs) -> dict:
    """``repro top --json``: :func:`render_top` as one document."""
    store = obs.store
    doc = {"t": store.last_tick, "ticks": store.ticks,
           "window_s": store.window, "retention": store.retention,
           "counters": {}, "gauges": {}, "histograms": {},
           "anomalies": list(obs.events)}
    for name, ls in sorted(store.counters):
        doc["counters"][_fmt_series(name, ls)] = {
            "delta": store.delta(name, ls),
            "rate": store.rate(name, ls)}
    for name, ls in sorted(store.gauges):
        doc["gauges"][_fmt_series(name, ls)] = store.gauge_last(name, ls)
    for name, ls in sorted(store.histograms):
        stats = store.window_stats(name, ls)
        if stats is None:
            continue
        doc["histograms"][_fmt_series(name, ls)] = {
            "count": stats.count, "mean": stats.mean,
            "p50": stats.quantile(50),
            "p99": stats.quantile(99)}
    if obs.slo is not None:
        doc["alerts"] = [a.to_dict() for a in obs.slo.history]
    return doc


def render_slo(title: str, report: dict) -> str:
    """``repro slo``: one :meth:`SLOMonitor.report` as a table and
    alert timeline."""
    lines = [f"== slo: {title} @ t={report['t']:.3f}s =="]
    rows = report["slos"]
    if rows:
        cols = ("name", "tenant", "objective", "target", "compliance",
                "samples", "alerts", "ok")

        def cell(s, col):
            if col == "alerts":
                return str(len(s["alerts"]))
            if col == "ok":
                return "ok" if s["ok"] else "VIOLATED"
            v = s.get(col)
            if isinstance(v, float):
                return f"{v:.4f}" if col == "compliance" else f"{v:g}"
            return str(v if v is not None else "-")

        table = [[cell(s, c) for c in cols] for s in rows]
        widths = [max(len(c), *(len(r[i]) for r in table))
                  for i, c in enumerate(cols)]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        for r in table:
            lines.append("  ".join(v.ljust(w)
                                   for v, w in zip(r, widths)))
    for alert in report["alerts"]:
        state = ("still firing" if alert["resolved_at"] is None else
                 f"resolved at {alert['resolved_at']:.3f}s")
        lines.append(f"  alert {alert['slo']}: fired at "
                     f"{alert['fired_at']:.3f}s, {state}")
    n = len(report["slos"])
    lines.append(f"{n - report['violations']}/{n} SLOs met"
                 + (f", {report['violations']} violated"
                    if report["violations"] else ""))
    return "\n".join(lines)


def diff_analyses(a: Dict[str, Any], b: Dict[str, Any]
                  ) -> Dict[str, Any]:
    """Align two analyzed runs by critical-path category and report
    which categories account for the makespan delta (B - A)."""
    cat_a = a["critical_path"]["by_category"]
    cat_b = b["critical_path"]["by_category"]
    cats = sorted(set(cat_a) | set(cat_b))
    deltas = []
    for cat in cats:
        da, db = cat_a.get(cat, 0.0), cat_b.get(cat, 0.0)
        deltas.append({"category": cat, "a": da, "b": db,
                       "delta": db - da})
    deltas.sort(key=lambda d: -abs(d["delta"]))
    total_delta = b["makespan"] - a["makespan"]
    abs_sum = sum(abs(d["delta"]) for d in deltas) or 1e-30
    for d in deltas:
        d["share"] = abs(d["delta"]) / abs_sum
    return {
        "makespan_a": a["makespan"],
        "makespan_b": b["makespan"],
        "makespan_delta": total_delta,
        "overlap_ratio_a": a.get("overlap_ratio"),
        "overlap_ratio_b": b.get("overlap_ratio"),
        "by_category": deltas,
    }


def render_diff(diff: Dict[str, Any], label_a: str = "A",
                label_b: str = "B") -> str:
    lines: List[str] = []
    lines.append(f"== repro diff: {label_a} vs {label_b} ==")
    lines.append(f"makespan {label_a}={_fmt_s(diff['makespan_a'])}  "
                 f"{label_b}={_fmt_s(diff['makespan_b'])}  "
                 f"delta={diff['makespan_delta']:+.6f}s")
    if diff.get("overlap_ratio_a") is not None:
        lines.append(
            f"overlap ratio {label_a}="
            f"{diff['overlap_ratio_a'] * 100:.1f}%  {label_b}="
            f"{diff['overlap_ratio_b'] * 100:.1f}%")
    lines.append("")
    lines.append(f"critical-path delta by category ({label_b} - "
                 f"{label_a}, largest first):")
    for d in diff["by_category"]:
        if math.isclose(d["delta"], 0.0, abs_tol=1e-12):
            continue
        lines.append(
            f"  {d['category']:<16} {d['delta']:+.6f}s  "
            f"({d['share'] * 100:5.1f}% of total change)  "
            f"[{_fmt_s(d['a'])} -> {_fmt_s(d['b'])}]")
    return "\n".join(lines)


def analysis_summary(analysis: Dict[str, Any]) -> Dict[str, Any]:
    """Compact slice of an analysis for embedding in BENCH_*.json
    records (`benchmarks.common.emit_result` breakdown field)."""
    return {
        "total": analysis["critical_path"]["total"],
        "by_category": analysis["critical_path"]["by_category"],
        "overlap_ratio": analysis["overlap_ratio"],
        "makespan": analysis["makespan"],
    }
