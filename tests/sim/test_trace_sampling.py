"""Tail-based trace sampling: head decisions per trace, tail
promotion of slow/error/alert spans, exact percentiles despite
dropped span objects."""

import pytest

from repro.sim import Monitor, Simulator
from repro.sim.rand import py_rng
from repro.sim.trace import Span, Tracer, TraceSampler


def _tracer(head_rate=0.1, seed=0, **kw):
    sim = Simulator()
    tracer = Tracer(sim, enabled=True)
    tracer.sampler = TraceSampler(py_rng(seed, "trace-sample"),
                                  head_rate, **kw)
    return sim, tracer


def _burst(sim, tracer, n, category="pcache", dur=0.001):
    def work():
        for _ in range(n):
            with tracer.span("op", category, node=0):
                yield sim.timeout(dur)
    sim.run(until=sim.process(work(), name="w"))


def test_head_rate_validated():
    with pytest.raises(ValueError):
        TraceSampler(py_rng(0, "t"), 0.0)
    with pytest.raises(ValueError):
        TraceSampler(py_rng(0, "t"), 1.5)


def test_head_sampling_drops_most_spans_keeps_stats():
    sim, tracer = _tracer(head_rate=0.1)
    _burst(sim, tracer, 1000)
    kept = len(tracer.spans)
    assert kept < 300                      # ~100 expected at 10%
    assert tracer.sampler.sampled_out == 1000 - kept
    # Percentiles come from span_seconds, which saw every span.
    summary = tracer.latency_summary()
    assert summary["trace.pcache.count"] == 1000.0
    assert summary["trace.sampled_out"] == float(1000 - kept)


def test_sampling_deterministic_per_seed():
    def kept_ids(seed):
        sim, tracer = _tracer(head_rate=0.2, seed=seed)
        _burst(sim, tracer, 200)
        return [s.span_id for s in tracer.spans]
    assert kept_ids(3) == kept_ids(3)
    assert kept_ids(3) != kept_ids(4)


def test_children_inherit_head_decision():
    sim, tracer = _tracer(head_rate=0.5)

    def work():
        for _ in range(50):
            with tracer.span("parent", "pcache", node=0):
                yield sim.timeout(0.001)
                with tracer.span("child", "net", node=0):
                    yield sim.timeout(0.001)

    sim.run(until=sim.process(work(), name="w"))
    by_id = {s.span_id: s for s in tracer.spans}
    kept_children = [s for s in tracer.spans if s.name == "child"]
    kept_parents = [s for s in tracer.spans if s.name == "parent"]
    # Traces are kept or dropped whole: every kept child's parent is
    # kept and vice versa.
    assert len(kept_children) == len(kept_parents)
    for child in kept_children:
        assert child.parent_id in by_id


def test_always_keep_categories_survive():
    sim, tracer = _tracer(head_rate=0.01, seed=1)

    def work():
        for _ in range(20):
            with tracer.span("op", "pcache", node=0):
                yield sim.timeout(0.001)
        with tracer.span("repair", "chaos", node=0):
            yield sim.timeout(0.001)
        tracer.record("anom", "anomaly", -1, sim.now, sim.now)

    sim.run(until=sim.process(work(), name="w"))
    cats = [s.category for s in tracer.spans]
    assert "chaos" in cats and "anomaly" in cats
    assert tracer.sampler.tail_promoted >= 2


def test_error_attr_promotes():
    sim, tracer = _tracer(head_rate=0.01, seed=1)

    def work():
        for _ in range(20):
            with tracer.span("op", "pcache", node=0):
                yield sim.timeout(0.001)
        with tracer.span("op", "pcache", node=0, error=True):
            yield sim.timeout(0.001)

    sim.run(until=sim.process(work(), name="w"))
    assert any(s.attrs.get("error") for s in tracer.spans)


def test_slow_span_promotes_with_ancestors():
    sim, tracer = _tracer(head_rate=0.01, seed=1)
    tracer.sampler.thresholds["net"] = 0.01   # as the obs tick would

    def work():
        # Fast traces: dropped at 1% head rate.
        for _ in range(30):
            with tracer.span("parent", "pcache", node=0):
                with tracer.span("xfer", "net", node=0):
                    yield sim.timeout(0.001)
        # One slow transfer: promoted along with its open parent.
        with tracer.span("parent", "pcache", node=0):
            with tracer.span("xfer", "net", node=0):
                yield sim.timeout(0.5)

    sim.run(until=sim.process(work(), name="w"))
    slow = [s for s in tracer.spans
            if s.name == "xfer" and s.duration > 0.01]
    assert len(slow) == 1
    parents = [s for s in tracer.spans
               if s.span_id == slow[0].parent_id]
    assert parents and parents[0].name == "parent"


def test_refresh_thresholds_from_store():
    from repro.obs.live import WindowedStore
    sim = Simulator()
    mon = Monitor(sim)
    tracer = Tracer(sim, enabled=True, metrics=mon.metrics)
    tracer.sampler = TraceSampler(py_rng(0, "trace-sample"), 0.5,
                                  slow_factor=4.0)
    store = WindowedStore(mon, window=1.0, retention=8)
    for _ in range(20):
        tracer.record("op", "pcache", 0, 0.0, 0.01)
    sim._now = 1.0
    store.tick(1.0)
    tracer.sampler.refresh_thresholds(store)
    assert tracer.sampler.thresholds["pcache"] == pytest.approx(0.04)


def test_alert_window_keeps_all_traces():
    sim, tracer = _tracer(head_rate=0.01, seed=1)

    class _Obs:
        def alert_active(self):
            return True

    tracer.sampler.obs = _Obs()
    _burst(sim, tracer, 50)
    assert len(tracer.spans) == 50   # everything kept while firing


def test_no_sampler_keeps_everything():
    sim = Simulator()
    tracer = Tracer(sim, enabled=True)

    def work():
        for _ in range(100):
            with tracer.span("op", "pcache", node=0):
                yield sim.timeout(0.001)

    sim.run(until=sim.process(work(), name="w"))
    assert len(tracer.spans) == 100
    assert "trace.sampled_out" not in tracer.latency_summary()
