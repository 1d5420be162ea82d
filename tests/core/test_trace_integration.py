"""End-to-end tracing: one remote fault decomposes into rpc, queue
wait, service, scache, and network spans, and the summary/export carry
the latency histograms."""

import json

import numpy as np

from repro.core import MM_READ_WRITE, MM_WRITE_ONLY, SeqTx
from tests.core.conftest import build_system, run_procs

PAGE = 4096


def _traced_workload():
    """Writer on node 0, reader on node 1 → remote faults with network
    transfers; returns (sim, system) after the run.

    Batching is disabled: these tests pin down the *per-task* span
    decomposition (fault → rpc → queue wait → service → scache); the
    batched pipeline has its own categories (``rpc.batch``,
    ``scache.batch``) covered by test_batching.py.
    """
    sim, system = build_system(batching_enabled=False)
    system.tracer.enabled = True
    c0 = system.client(rank=0, node=0)
    c1 = system.client(rank=1, node=1)
    ready = sim.event()

    def writer():
        vec = yield from c0.vector("w", dtype=np.uint8, size=4 * PAGE)
        yield from vec.tx_begin(SeqTx(0, 4 * PAGE, MM_WRITE_ONLY))
        yield from vec.write_range(
            0, np.arange(4 * PAGE, dtype=np.uint8))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        ready.succeed()

    def reader():
        vec = yield from c1.vector("w", dtype=np.uint8, size=4 * PAGE)
        yield ready
        yield from vec.tx_begin(SeqTx(0, 4 * PAGE, MM_READ_WRITE))
        out = yield from vec.read_range(0, 4 * PAGE)
        yield from vec.tx_end()
        yield from c1.drain()
        return out

    _, out = run_procs(sim, writer(), reader())
    assert np.array_equal(out, np.arange(4 * PAGE) % 256)
    return sim, system


def test_fault_lifecycle_categories_present():
    _, system = _traced_workload()
    cats = {dict(ls)["category"] for name, ls
            in system.monitor.metrics.histograms if name == "span_seconds"}
    assert {"pcache", "rpc", "rt.queue", "rt.service",
            "scache", "net"} <= cats


def test_submit_nests_under_fault_and_scache_under_service():
    _, system = _traced_workload()
    spans = system.tracer.spans
    by_id = {s.span_id: s for s in spans}
    # Every rpc submit issued during a fault has that fault as parent
    # (same simulated process, nested `with` blocks).
    submit_parents = {by_id[s.parent_id].category
                      for s in spans
                      if s.category == "rpc" and s.parent_id is not None}
    assert "pcache" in submit_parents
    # Device I/O executes inside the runtime's service span.
    scache_parents = {by_id[s.parent_id].category
                      for s in spans
                      if s.category == "scache"
                      and s.parent_id is not None}
    assert scache_parents == {"rt.service"}


def test_queue_wait_and_service_fall_inside_some_fault():
    """Cross-process decomposition: a blocking fault's interval covers
    the queue wait and service time of the task it submitted."""
    _, system = _traced_workload()
    spans = system.tracer.spans
    faults = [s for s in spans
              if s.category == "pcache" and s.name == "fault"]
    assert faults

    def enclosed(child):
        return any(f.start <= child.start and child.end <= f.end
                   for f in faults)

    waits = [s for s in spans if s.category == "rt.queue"
             and s.attrs.get("vector") == "w"
             and s.name == "wait:read"]
    execs = [s for s in spans if s.category == "rt.service"
             and s.attrs.get("vector") == "w"
             and s.name == "exec:read"]
    assert waits and execs
    assert all(enclosed(s) for s in waits)
    assert all(enclosed(s) for s in execs)
    # The split is complete: wait + service never exceeds the fault.
    for w in waits:
        assert w.duration >= 0.0


def test_monitor_summary_has_latency_histograms():
    _, system = _traced_workload()
    out = system.monitor.summary()
    for cat in ("pcache", "rpc", "rt.queue", "rt.service", "scache",
                "net"):
        for stat in ("count", "mean", "p50", "p95", "p99"):
            assert f"trace.{cat}.{stat}" in out, (cat, stat)
        assert out[f"trace.{cat}.p50"] <= out[f"trace.{cat}.p99"]
        assert out[f"trace.{cat}.count"] >= 1


def test_chrome_export_nests_fault_queue_io(tmp_path):
    _, system = _traced_workload()
    path = system.tracer.export_chrome(str(tmp_path / "t.json"))
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    by_cat = {}
    for e in xs:
        by_cat.setdefault(e["cat"], []).append(e)
    faults = [e for e in by_cat["pcache"] if e["name"] == "fault"]
    assert faults

    def inside(child, parent):
        return (parent["ts"] <= child["ts"]
                and child["ts"] + child["dur"]
                <= parent["ts"] + parent["dur"] + 1e-6)

    # fault -> runtime queue/service -> device/network I/O, by
    # time-containment in the exported µs timeline.
    assert any(inside(q, f) for q in by_cat["rt.queue"]
               for f in faults)
    assert any(inside(io, svc) for io in by_cat["scache"]
               for svc in by_cat["rt.service"])
    assert any(inside(n, f) for n in by_cat["net"] for f in faults)
    # pids are nodes; the writer faulted on node 0 (write-allocate)
    # and the reader on node 1.
    assert {e["pid"] for e in faults} == {0, 1}


def test_disabled_tracing_records_nothing_in_workload():
    sim, system = build_system()
    assert system.tracer.enabled is False
    c0 = system.client(rank=0, node=0)

    def app():
        vec = yield from c0.vector("d", dtype=np.uint8, size=PAGE)
        yield from vec.tx_begin(SeqTx(0, PAGE, MM_WRITE_ONLY))
        yield from vec.write_range(0, np.zeros(PAGE, dtype=np.uint8))
        yield from vec.tx_end()
        yield from c0.drain()

    run_procs(sim, app())
    assert system.tracer.spans == []
    assert not any(k.startswith("trace.")
                   for k in system.monitor.summary())
