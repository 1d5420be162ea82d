"""Labeled metrics registry + Monitor.summary() edge cases."""

import pytest

from repro.sim import Simulator
from repro.sim.monitor import Monitor, parse_prometheus
from repro.sim.trace import Tracer


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def monitor(sim):
    return Monitor(sim)


# -- registry semantics -----------------------------------------------------

def test_counter_get_or_create_is_identity(monitor):
    a = monitor.metrics.counter("net.bytes", node=3)
    b = monitor.metrics.counter("net.bytes", node=3)
    assert a is b
    # Label order never matters.
    c = monitor.metrics.counter("x", tier="dram", node=0)
    d = monitor.metrics.counter("x", node=0, tier="dram")
    assert c is d
    # Different labels are different series.
    assert monitor.metrics.counter("net.bytes", node=4) is not a


def test_counter_accumulates(monitor):
    ctr = monitor.metrics.counter("scache.reads", node=1)
    ctr.inc()
    ctr.inc(41.0)
    assert ctr.value == pytest.approx(42.0)


def test_gauge_tracks_peak_and_time_average(sim, monitor):
    g = monitor.metrics.gauge("rt_backlog", node=0)

    def proc():
        g.add(2)
        yield sim.timeout(1.0)
        g.add(2)
        yield sim.timeout(1.0)
        g.sub(3)
        yield sim.timeout(2.0)

    sim.process(proc())
    sim.run()
    assert g.value == pytest.approx(1.0)
    assert g.peak == pytest.approx(4.0)
    # 2 for 1s, 4 for 1s, 1 for 2s over a 4s horizon.
    assert g.time_average() == pytest.approx((2 + 4 + 2) / 4.0)


def test_histogram_single_sample_percentiles_collapse(monitor):
    h = monitor.metrics.histogram("lat", node=0)
    h.observe(0.25)
    assert h.count == 1
    assert h.percentile(50) == h.percentile(95) == h.percentile(99) \
        == pytest.approx(0.25)


def test_snapshot_shape(monitor):
    monitor.metrics.counter("a", node=0).inc(2)
    monitor.metrics.gauge("b", node=1).set(5)
    monitor.metrics.histogram("c").observe(1.0)
    snap = monitor.metrics.snapshot()
    assert {c["name"] for c in snap["counters"]} == {"a"}
    assert snap["counters"][0]["labels"] == {"node": "0"}
    assert snap["counters"][0]["value"] == 2.0
    assert snap["gauges"][0]["peak"] == 5.0
    assert snap["histograms"][0]["count"] == 1


# -- Prometheus exporter round trip ----------------------------------------

def test_prometheus_round_trip(monitor):
    monitor.metrics.counter("net.bytes", node=3).inc(1024)
    monitor.metrics.counter("net.bytes", node=4).inc(2048)
    monitor.gauge("node0.dram.used").set(777)
    text = monitor.metrics.to_prometheus()
    parsed = parse_prometheus(text)
    assert parsed[("net_bytes", (("node", "3"),))] == 1024.0
    assert parsed[("net_bytes", (("node", "4"),))] == 2048.0
    assert parsed[("node0_dram_used", ())] == 777.0


def test_prometheus_escapes_label_values(monitor):
    monitor.metrics.counter("weird", path='a"b\\c\nd').inc(7)
    text = monitor.metrics.to_prometheus()
    parsed = parse_prometheus(text)
    assert parsed[("weird", (("path", 'a"b\\c\nd'),))] == 7.0


def test_prometheus_backslash_n_is_not_newline(monitor):
    # Regression: unescaping with sequential str.replace turned an
    # escaped backslash followed by a literal 'n' (wire form
    # ``\\n``) into a newline. The scan-based unescape must keep
    # a literal backslash + 'n' distinct from an escaped newline.
    monitor.metrics.counter("tricky", a="back\\nslash").inc(1)
    monitor.metrics.counter("tricky", a="new\nline").inc(2)
    parsed = parse_prometheus(monitor.metrics.to_prometheus())
    assert parsed[("tricky", (("a", "back\\nslash"),))] == 1.0
    assert parsed[("tricky", (("a", "new\nline"),))] == 2.0


def test_prometheus_brace_inside_label_value(monitor):
    # Regression: the line regex used ``\{([^}]*)\}``, so a ``}`` in
    # a quoted label value truncated the label block mid-value.
    monitor.metrics.counter("braces", expr='f(x) = {x}').inc(3)
    monitor.metrics.gauge("braces2", js='{"k": "v"}').set(4)
    parsed = parse_prometheus(monitor.metrics.to_prometheus())
    assert parsed[("braces", (("expr", 'f(x) = {x}'),))] == 3.0
    assert parsed[("braces2", (("js", '{"k": "v"}'),))] == 4.0


def test_prometheus_label_value_round_trip_property(monitor):
    # Property test: any printable label value survives the
    # export/parse round trip — quotes, backslashes, newlines,
    # braces, commas, equals signs, and every pairing of them.
    import random
    rng = random.Random(20240807)
    alphabet = '"\\\n{}=,ab 0'
    values = ['"', "\\", "\n", "\\n", '\\"', "{", "}", "=,", '",v"']
    values += ["".join(rng.choice(alphabet)
                       for _ in range(rng.randrange(1, 12)))
               for _ in range(120)]
    for i, v in enumerate(values):
        monitor.metrics.counter("prop", idx=str(i), v=v).inc(i + 1)
    parsed = parse_prometheus(monitor.metrics.to_prometheus())
    for i, v in enumerate(values):
        key = ("prop", (("idx", str(i)), ("v", v)))
        assert parsed[key] == float(i + 1), repr(v)


def test_prometheus_tab_cr_unicode_label_values(monitor):
    # Only backslash, quote and newline are escaped on the wire;
    # tabs, carriage returns and non-ASCII must survive verbatim
    # inside the quoted value (CR is not a line terminator for the
    # parser's newline split).
    values = ["tab\there", "cr\rhere", "crlf\r\nmix", "\t", "\r",
              "café", "中文", "emoji \U0001f600",
              "é\r\t\"\\\n中"]
    for i, v in enumerate(values):
        monitor.metrics.counter("adv", idx=str(i), v=v).inc(i + 1)
    parsed = parse_prometheus(monitor.metrics.to_prometheus())
    for i, v in enumerate(values):
        key = ("adv", (("idx", str(i)), ("v", v)))
        assert parsed[key] == float(i + 1), repr(v)


def test_prometheus_sanitizes_metric_names(monitor):
    monitor.metrics.counter("pcache.faults-total", node=0).inc()
    text = monitor.metrics.to_prometheus()
    assert "pcache_faults_total" in text
    assert "pcache.faults-total" not in text


def test_prometheus_histogram_quantiles(monitor):
    h = monitor.metrics.histogram("wait", node=2)
    for v in (1.0, 2.0, 3.0, 4.0):
        h.observe(v)
    text = monitor.metrics.to_prometheus()
    parsed = parse_prometheus(text)
    assert parsed[("wait_count", (("node", "2"),))] == 4.0
    assert parsed[("wait_sum", (("node", "2"),))] == 10.0
    q50 = parsed[("wait", (("node", "2"), ("quantile", "0.50")))]
    assert q50 == pytest.approx(2.0)


# -- Monitor.summary() edge cases ------------------------------------------

def test_summary_disabled_tracer_contributes_no_trace_keys(sim,
                                                           monitor):
    monitor.tracer = Tracer(sim, enabled=False)
    monitor.count("pcache.faults")
    summary = monitor.summary()
    assert not any(k.startswith("trace.") for k in summary)
    assert summary["pcache.faults"] == 1.0


def test_summary_single_sample_trace_percentiles_collapse(sim,
                                                          monitor):
    tr = Tracer(sim, enabled=True)
    monitor.tracer = tr
    tr.record("op", "net", 0, 0.0, 0.5)
    summary = monitor.summary()
    assert summary["trace.net.count"] == 1
    assert summary["trace.net.p50"] == summary["trace.net.p95"] \
        == summary["trace.net.p99"] == pytest.approx(0.5)


def test_summary_sums_labeled_counters_and_skips_labeled_gauges(
        sim, monitor):
    # One store: a labeled counter appears in the summary as the sum
    # over its label sets, a labeled gauge does not appear at all.
    before = set(monitor.summary())
    monitor.metrics.counter("net.bytes", node=0).inc(3)
    monitor.count("net.bytes", 4, node=1)
    monitor.metrics.gauge("rt_backlog", node=0).set(3)
    summary = monitor.summary()
    assert set(summary) == before | {"net.bytes"}
    assert summary["net.bytes"] == 7 == monitor.counter("net.bytes")
