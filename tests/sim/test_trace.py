"""Unit tests for the span tracer (repro.sim.trace)."""

import json

import pytest

from repro.sim import AllOf, Simulator
from repro.sim.trace import _NOOP_SPAN, NOOP_TRACER, Span, Tracer


@pytest.fixture
def sim():
    return Simulator()


def _run(sim, *gens):
    procs = [sim.process(g, name=f"p{i}") for i, g in enumerate(gens)]
    return sim.run(until=AllOf(sim, procs))


# -- disabled path ----------------------------------------------------------

def test_disabled_tracer_is_noop(sim):
    tr = Tracer(sim, enabled=False)

    def proc():
        with tr.span("fault", "pcache", node=0) as sp:
            sp["k"] = 1          # attribute set must not blow up
            yield sim.timeout(1.0)
        tr.record("wait", "rt.queue", 0, 0.0, 1.0)

    _run(sim, proc())
    assert tr.spans == []
    assert tr.metrics.histograms == {}
    assert tr.latency_summary() == {}


def test_disabled_span_is_shared_singleton(sim):
    tr = Tracer(sim, enabled=False)
    assert tr.span("a", "x") is tr.span("b", "y")
    assert tr.span("a", "x") is _NOOP_SPAN


def test_noop_tracer_module_singleton():
    # Constructed with sim=None; must never crash while disabled.
    assert NOOP_TRACER.enabled is False
    with NOOP_TRACER.span("a", "x"):
        pass
    NOOP_TRACER.record("a", "x", 0, 0.0, 1.0)
    assert NOOP_TRACER.spans == []


# -- recording + nesting ----------------------------------------------------

def test_span_times_and_nesting_within_process(sim):
    tr = Tracer(sim, enabled=True)

    def proc():
        with tr.span("outer", "pcache", node=1, page=7) as outer:
            yield sim.timeout(1.0)
            with tr.span("inner", "net", node=1):
                yield sim.timeout(2.0)
            yield sim.timeout(0.5)
        assert outer.duration == pytest.approx(3.5)

    _run(sim, proc())
    assert len(tr.spans) == 2
    inner, outer = tr.spans  # inner closes first
    assert inner.name == "inner" and outer.name == "outer"
    assert outer.start == pytest.approx(0.0)
    assert outer.end == pytest.approx(3.5)
    assert inner.start == pytest.approx(1.0)
    assert inner.end == pytest.approx(3.0)
    # Nesting: inner's parent is outer, outer is a root.
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert outer.attrs["page"] == 7
    # Child interval is enclosed by the parent's.
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_interleaved_processes_do_not_corrupt_parentage(sim):
    tr = Tracer(sim, enabled=True)

    def proc(delay):
        with tr.span("outer", "a"):
            yield sim.timeout(delay)
            with tr.span("inner", "b"):
                yield sim.timeout(delay)

    _run(sim, proc(1.0), proc(1.7))
    inners = [s for s in tr.spans if s.name == "inner"]
    outers = {s.track: s for s in tr.spans if s.name == "outer"}
    assert len(inners) == 2 and len(outers) == 2
    for inner in inners:
        # Each inner's parent is the outer on the SAME track, even
        # though the two processes interleave in simulated time.
        assert inner.parent_id == outers[inner.track].span_id
    assert {s.track for s in tr.spans} == {"p0", "p1"}


def test_record_pre_elapsed_interval(sim):
    tr = Tracer(sim, enabled=True)
    tr.record("wait", "rt.queue", 3, 1.0, 4.5, pool="low")
    (sp,) = tr.spans
    assert sp.start == 1.0 and sp.end == 4.5
    assert sp.duration == pytest.approx(3.5)
    assert sp.node == 3 and sp.attrs["pool"] == "low"


def test_enable_mid_run_records_only_while_enabled(sim):
    tr = Tracer(sim, enabled=False)

    def proc():
        with tr.span("before", "x"):
            yield sim.timeout(1.0)
        tr.enabled = True
        with tr.span("after", "x"):
            yield sim.timeout(1.0)

    _run(sim, proc())
    assert [s.name for s in tr.spans] == ["after"]


# -- statistics -------------------------------------------------------------

def _span_hist(tr, category):
    return tr.metrics.histograms[("span_seconds",
                                  (("category", category),))]


def test_percentiles_nearest_rank(sim):
    tr = Tracer(sim, enabled=True)
    for i in range(1, 101):  # durations 1..100
        tr.record("op", "cat", 0, 0.0, float(i))
    hist = _span_hist(tr, "cat")
    assert hist.percentile(50) == 50.0
    assert hist.percentile(95) == 95.0
    assert hist.percentile(99) == 99.0
    assert hist.percentile(100) == 100.0
    assert set(tr.metrics.histograms) == {("span_seconds",
                                           (("category", "cat"),))}


def test_latency_summary_keys(sim):
    tr = Tracer(sim, enabled=True)
    for d in (1.0, 2.0, 3.0, 4.0):
        tr.record("op", "pcache", 0, 0.0, d)
    out = tr.latency_summary()
    assert out["trace.pcache.count"] == 4.0
    assert out["trace.pcache.total"] == pytest.approx(10.0)
    assert out["trace.pcache.mean"] == pytest.approx(2.5)
    assert out["trace.pcache.p50"] == 2.0
    assert out["trace.pcache.p95"] == 4.0
    assert out["trace.pcache.p99"] == 4.0
    assert "trace.dropped_spans" not in out


def test_max_spans_cap_counts_drops_keeps_percentiles(sim):
    tr = Tracer(sim, enabled=True, max_spans=3)
    for i in range(1, 11):
        tr.record("op", "cat", 0, 0.0, float(i))
    assert len(tr.spans) == 3
    assert tr.dropped == 7
    # Durations keep accumulating past the cap: percentiles stay exact.
    assert _span_hist(tr, "cat").percentile(100) == 10.0
    out = tr.latency_summary()
    assert out["trace.cat.count"] == 10.0
    assert out["trace.dropped_spans"] == 7.0


# -- Chrome export ----------------------------------------------------------

def test_chrome_export(sim, tmp_path):
    tr = Tracer(sim, enabled=True)

    def proc():
        with tr.span("fault", "pcache", node=0, page=1):
            yield sim.timeout(0.25)
            with tr.span("transfer", "net", node=0, nbytes=4096):
                yield sim.timeout(0.5)

    _run(sim, proc())
    path = tr.export_chrome(str(tmp_path / "trace.json"))
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert len(xs) == 2
    # Timestamps are microseconds of simulated time.
    fault = next(e for e in xs if e["name"] == "fault")
    xfer = next(e for e in xs if e["name"] == "transfer")
    assert fault["ts"] == pytest.approx(0.0)
    assert fault["dur"] == pytest.approx(0.75e6)
    assert xfer["ts"] == pytest.approx(0.25e6)
    assert xfer["dur"] == pytest.approx(0.5e6)
    assert fault["cat"] == "pcache" and xfer["cat"] == "net"
    # Same pid (node) + tid (process track); integer tids.
    assert fault["pid"] == xfer["pid"] == 0
    assert isinstance(fault["tid"], int)
    assert fault["tid"] == xfer["tid"]
    # The child event carries its parent's span id.
    assert xfer["args"]["parent"] == fault["args"]["id"]
    # Metadata names the process and thread.
    assert any(m["name"] == "process_name" for m in metas)
    assert any(m["name"] == "thread_name"
               and m["args"]["name"] == "p0" for m in metas)
    assert doc["otherData"]["dropped_spans"] == 0


def test_span_setitem_attaches_attrs(sim):
    tr = Tracer(sim, enabled=True)

    def proc():
        with tr.span("fault", "pcache") as sp:
            yield sim.timeout(0.1)
            sp["miss_bytes"] = 123

    _run(sim, proc())
    assert tr.spans[0].attrs["miss_bytes"] == 123
