"""Observability analysis layer: causal span graph, critical path,
overlap ratio, and the `repro report` / `repro diff` triage tooling.

The tracer (:mod:`repro.sim.trace`) records *what happened*; this
package answers *where the time went*: it links spans into a causal
graph (hierarchy parents plus the cross-process ``cause``/``wait_on``
edges the instrumentation sites emit), walks the end-to-end critical
path of a run, and attributes its length per category/node/tier —
including the overlap ratio that quantifies the paper's central claim
(compute time shadowed by in-flight I/O).
"""

from repro.obs.graph import (IO_CATEGORIES, SpanGraph, SpanNode,
                             load_trace)
from repro.obs.report import analyze, diff_analyses, render_diff, \
    render_report, render_slo, render_top, top_json
from repro.obs.live import LiveObs, WindowedStore
from repro.obs.slo import SLOMonitor, SLOSpec, load_slos
from repro.obs.anomaly import EwmaMadDetector, standard_detectors

__all__ = [
    "IO_CATEGORIES", "SpanGraph", "SpanNode", "load_trace",
    "analyze", "diff_analyses", "render_diff", "render_report",
    "render_slo", "render_top", "top_json",
    "LiveObs", "WindowedStore",
    "SLOMonitor", "SLOSpec", "load_slos",
    "EwmaMadDetector", "standard_detectors",
]
