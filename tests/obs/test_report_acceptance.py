"""Acceptance tests for the critical-path analyzer (ISSUE PR 4).

* On the fixed-seed two-node KMeans pipeline, `repro report` produces
  a critical path whose category durations sum to the makespan within
  1%.
* `repro diff` of batching-on vs batching-off attributes the majority
  of the runtime delta to the rpc/net categories.
"""

import math

import numpy as np
import pytest

from benchmarks.common import testbed
from repro.core import MM_READ_ONLY, MM_READ_WRITE, MM_WRITE_ONLY, SeqTx
from repro.obs import SpanGraph, analyze, diff_analyses, load_trace, \
    render_diff, render_report
from repro.pipeline import run_pipeline

KMEANS_2N = """
name: KMeans-2n
cluster:
  n_nodes: 2
  procs_per_node: 2
  dram_mb: 16
  nvme_mb: 64
  page_size: 65536
  seed: 0
dataset:
  kind: points
  n: 4000
  k: 4
  seed: 7
  path: pts.parquet
app:
  kind: mm_kmeans
  k: 4
  max_iter: 2
  seed: 0
"""

PAGE = 64 * 1024
EXCHANGE_PAGES = 16


def test_kmeans_report_categories_sum_to_makespan(tmp_path):
    trace = tmp_path / "km.json"
    rows = run_pipeline(KMEANS_2N, workdir=str(tmp_path),
                        trace_path=str(trace))
    assert len(rows) == 1 and not rows[0]["crashed"]
    graph = load_trace(str(trace))
    assert len(graph) > 0
    analysis = analyze(graph)
    cp = analysis["critical_path"]
    makespan = analysis["makespan"]
    assert makespan > 0
    # The acceptance bound: per-category durations tile the makespan.
    assert abs(sum(cp["by_category"].values()) - makespan) \
        <= 0.01 * makespan
    assert abs(cp["total"] - makespan) <= 0.01 * makespan
    # Overlap ratio is present and finite.
    assert math.isfinite(analysis["overlap_ratio"])
    assert 0.0 <= analysis["overlap_ratio"] <= 1.0
    # Queueing stats cover the runtime queues seen in the trace.
    assert analysis["queueing"], "no rt.queue spans analyzed"
    for q in analysis["queueing"].values():
        assert q["little_L"] == pytest.approx(
            q["arrival_rate"] * q["mean_wait"])
    # The cold dataset read is booked where it happens -- the stager's
    # backend wait, on the pfs tier -- not under the pcache that asked.
    assert max(cp["by_category"], key=cp["by_category"].get) == "stager"
    assert cp["by_category"]["stager"] \
        > cp["by_category"].get("pcache", 0.0)
    assert cp["by_tier"]["pfs"] > 0
    # The text renderer covers the whole analysis without crashing.
    text = render_report(analysis, title="km")
    assert "critical path by category" in text
    assert "overlap ratio" in text


def _cold_scan(ctx, url, n):
    vec = yield from ctx.mm.vector(url, dtype=np.uint8)
    yield from vec.tx_begin(SeqTx(0, n, MM_READ_ONLY))
    out = yield from vec.read_range(0, n)
    yield from vec.tx_end()
    return int(out[::4099].sum())


def test_cold_scan_states_its_backend_requests(tmp_path, monkeypatch):
    """A cold scan by four ranks, one vocabulary: each backend request
    is a ``stager`` span on the pfs tier naming what caused it -- the
    scache span that asked or, for a request read ahead on an idle
    server (``ahead``), the request whose issue or return set it off
    --, a rank that found its pages in flight names the requests it
    waited for (``wait_on``), and the request counters say how the
    bytes came in. All of it holds wherever the pages land."""
    n = 2 * 1024 * 1024 + 300_000
    # A relative URL: pages are placed by a hash of the URL.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scan.bin").write_bytes(np.random.default_rng(1).integers(
        0, 256, n, dtype=np.uint8).tobytes())
    c = testbed(n_nodes=2, procs_per_node=2, dram_mb=8, nvme_mb=64,
                page_size=PAGE, trace=True, prefetch_enabled=False)
    res = c.run(_cold_scan, "posix://./scan.bin", n)
    assert len(set(res.values)) == 1
    spans = {s.span_id: s for s in c.tracer.spans}
    reads = [s for s in spans.values()
             if s.category == "stager" and s.name == "stage_in"]
    # One request per PFS server run: the stripe asked for carries the
    # next stripe on its server (stripe 0 with stripe 2, adjacent in
    # that server's datafile), and the other server reads stripe 1.
    assert len(reads) == 2
    assert sorted(t for s in reads for t in s.attrs["stripes"]) \
        == [0, 1, 2]
    assert sum(s.attrs["nbytes"] for s in reads) == n
    for s in reads:
        assert s.attrs["tier"] == "pfs" and s.attrs["pages"] >= 1
        assert len({t % 2 for t in s.attrs["stripes"]}) == 1
        cause = spans[s.attrs["cause"]]
        if s.attrs["ahead"]:
            assert cause in reads and s.start in (cause.start, cause.end)
            assert len(s.attrs["stripes"]) == 1
        else:
            assert cause.category in ("scache", "scache.batch")
            assert len(s.attrs["stripes"]) <= 2
    # Whoever faults first asks for stripe 0, or stripes 0 and 1; with
    # two PFS servers the other server's stripe goes out beside it,
    # unasked, in the first case.
    ahead = sum(s.attrs["ahead"] for s in reads)
    assert ahead <= 1
    joins = [s for s in spans.values() if s.name == "stage_in_join"]
    assert joins and all(
        s.attrs["wait_on"]
        and set(s.attrs["wait_on"]) <= {r.span_id for r in reads}
        for s in joins)
    # Bytes per request is readable from the run's stats, which sum
    # the per-node series the live plane scrapes.
    assert res.stats["stager.requests_in"] == 2
    assert res.stats["stager.requests_ahead"] == ahead
    assert res.stats["stager.bytes_in"] == n
    per_node = {name: [c.value for (nm, ls), c
                       in c.monitor.metrics.counters.items()
                       if nm == name and "node" in dict(ls)]
                for name in ("stager.requests_in", "stager.bytes_in")}
    assert sum(per_node["stager.requests_in"]) == 2
    assert sum(per_node["stager.bytes_in"]) == n


def _exchange(ctx, n_pages):
    half = n_pages * PAGE
    vec = yield from ctx.mm.vector("diffbench", dtype=np.uint8,
                                   size=2 * half)
    lo = ctx.rank * half
    data = ((np.arange(half) + ctx.rank) % 199).astype(np.uint8)
    yield from vec.tx_begin(SeqTx(lo, half, MM_WRITE_ONLY))
    yield from vec.write_range(lo, data)
    yield from vec.tx_end()
    yield from vec.flush(wait=True)
    yield from ctx.barrier()
    other = (1 - ctx.rank) * half
    yield from vec.tx_begin(SeqTx(other, half, MM_READ_WRITE))
    out = yield from vec.read_range(other, half)
    yield from vec.tx_end()
    yield from ctx.mm.drain()
    return out


def _run_exchange(batching: bool):
    c = testbed(n_nodes=2, procs_per_node=1,
                pcache=(EXCHANGE_PAGES + 4) * PAGE,
                batching_enabled=batching, prefetch_enabled=False,
                trace=True)
    res = c.run(_exchange, EXCHANGE_PAGES)
    graph = SpanGraph.from_tracer(c.tracer)
    return analyze(graph, monitor=c.monitor), res, c


def test_diff_attributes_batching_delta_to_rpc_and_net():
    a_on, res_on, _c = _run_exchange(batching=True)
    a_off, res_off, _c = _run_exchange(batching=False)
    # Batching must actually have been faster for the diff to mean
    # anything.
    assert res_on.runtime < res_off.runtime
    diff = diff_analyses(a_on, a_off)
    assert diff["makespan_delta"] > 0
    wire = [d for d in diff["by_category"]
            if d["category"].startswith(("rpc", "net"))]
    # The acceptance bound: rpc/net categories carry the majority of
    # the total per-category change.
    assert sum(d["share"] for d in wire) > 0.5, diff["by_category"]
    # And they moved in the right direction (per-page costs more).
    assert sum(d["delta"] for d in wire) > 0
    text = render_diff(diff, label_a="batched", label_b="per-page")
    assert "critical-path delta by category" in text


def _repair_workload(ctx):
    """Write + replicate, then sabotage one replica so the background
    repair loop has real under-replication to fix."""
    system = ctx.mm.system
    vec = yield from ctx.mm.vector("repaired", dtype=np.uint8,
                                   size=4 * PAGE)
    if ctx.rank == 0:
        yield from vec.tx_begin(SeqTx(0, 4 * PAGE, MM_WRITE_ONLY))
        yield from vec.write_range(0, np.ones(4 * PAGE, np.uint8))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        yield system.sim.timeout(0.5)  # let replication land
        info = next(i for i in system.hermes.mdm
                    .list_bucket("repaired") if i.replicas)
        node, tier = info.replicas.pop(0)
        dev = system.dmshs[node].tier(tier)
        if ("repaired", info.key) in dev:
            dev.delete(("repaired", info.key))
        # Sleep past several repair periods (REPAIR_PERIOD).
        yield system.sim.timeout(1.0)
    yield from ctx.barrier()


def test_repair_loop_emits_metric_and_chaos_span():
    """The repair loop is observable: each top-up increments
    ``reliability.repairs`` and opens a ``chaos``-category span — the
    signals the chaos campaign's triage reports key off."""
    c = testbed(n_nodes=3, procs_per_node=1, page_size=PAGE,
                trace=True, replication_factor=2)
    c.run(_repair_workload)
    assert c.monitor.counter("reliability.repairs") > 0
    repair_spans = [s for s in c.tracer.spans
                    if s.name == "repair" and s.category == "chaos"]
    assert repair_spans, "repair ran without a chaos-category span"


def test_live_analysis_includes_gauge_leg_and_occupancy():
    analysis, _res, _c = _run_exchange(batching=True)
    # Live mode (monitor passed) adds the independent Little's-law leg
    # and tier occupancy timelines; trace-file mode cannot.
    assert any("gauge_L" in q for q in analysis["queueing"].values())
    for q in analysis["queueing"].values():
        if "gauge_L" in q:
            assert "consistent" in q
    assert analysis["occupancy"]
    for occ in analysis["occupancy"].values():
        assert occ["peak"] >= occ["avg"] >= 0


def test_live_analysis_states_each_devices_load():
    """Every device that served an operation has a load line: its queue
    was held ``latency`` per operation plus its bytes over the
    bandwidth (the ``<device>.busy_s`` / ``.requests`` counters), shown
    as a share of the makespan with the mean bytes per request."""
    analysis, _res, c = _run_exchange(batching=True)
    devices = {d.name: d for dmsh in c.dmshs for d in dmsh}
    assert analysis["devices"] and set(analysis["devices"]) <= set(devices)
    for name, load in analysis["devices"].items():
        dev, n = devices[name], load["requests"]
        assert n >= 1
        assert load["busy_s"] == pytest.approx(
            n * dev.spec.latency + dev.bytes_read / dev.spec.read_bw
            + dev.bytes_written / dev.spec.write_bw)
        assert load["busy_share"] == pytest.approx(
            load["busy_s"] / analysis["makespan"])
        assert load["bytes_per_request"] == pytest.approx(
            (dev.bytes_read + dev.bytes_written) / n)
    assert "device load" in render_report(analysis)
