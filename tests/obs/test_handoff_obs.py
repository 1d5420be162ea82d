"""What the asynchronous write path and the runtime's core scaling
leave for an operator to read: one backlog number with two agreeing
legs, two labeled gauges, and a causal chain from the write that
dirtied a page to the service that applied it."""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.core import MM_WRITE_ONLY, SeqTx
from repro.obs import LiveObs, SpanGraph, analyze
from repro.pipeline import build_cluster, run_pipeline

PAGE = 64 * 1024

KMEANS_4N = """
name: KMeans-4n
cluster:
  n_nodes: 4
  procs_per_node: 2
  dram_mb: 1
  nvme_mb: 64
  page_size: 65536
  seed: 0
dataset:
  kind: points
  n: 40000
  k: 4
  seed: 7
  path: pts.parquet
app:
  kind: mm_kmeans
  k: 4
  max_iter: 2
  seed: 0
"""


def test_littles_law_legs_agree_on_every_node_of_a_kmeans_run(
        tmp_path):
    """``L`` from the ``rt.queue`` wait spans and ``L`` from the
    ``rt_backlog`` gauge count the same tasks over the same window:
    the gauge is sampled from construction, and it is the number the
    scaling rule reads."""
    legs = {}

    def live(cluster, _variant, _row):
        analysis = analyze(SpanGraph.from_tracer(cluster.tracer),
                           monitor=cluster.monitor)
        legs.update(analysis["queueing"])
        for rt in cluster.system.runtimes:
            assert rt.backlog == 0 == cluster.monitor.metrics.gauge(
                "rt_backlog", node=rt.node_id).value

    run_pipeline(KMEANS_4N, workdir=str(tmp_path),
                 trace_path=str(tmp_path / "t.json"), on_variant=live)
    assert sorted(legs) == ["node0", "node1", "node2", "node3"]
    for node, q in legs.items():
        assert q["count"] > 10 and q["little_L"] > 0, node
        assert q["gauge_L"] == pytest.approx(q["little_L"], rel=0.01), node
        assert q["consistent"], node


def _checkpoint(ctx, n):
    vec = yield from ctx.mm.vector("ckpt", dtype=np.uint8, size=n)
    if ctx.rank == 0:
        yield from vec.tx_begin(SeqTx(0, n, MM_WRITE_ONLY))
        for off in range(0, n, PAGE):
            yield from vec.write_range(
                off, np.full(PAGE, off // PAGE, np.uint8))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
    yield from ctx.barrier()


def _traced_checkpoint(pages=16, window=1e-5):
    cluster = build_cluster(dict(n_nodes=2, procs_per_node=1, dram_mb=8,
                                 nvme_mb=16, page_size=PAGE))
    cluster.tracer.enabled = True
    obs = LiveObs.attach(cluster, window=window)
    cluster.run(_checkpoint, pages * PAGE)
    return cluster, obs


def test_async_write_is_one_causal_chain_from_write_to_service():
    """The submit span of a handed-off WRITE closes at the hand-off;
    the shipment is its own ``rpc`` span caused by it, and the owner's
    queue-wait and service spans still name the submit span -- so the
    graph `repro report` walks reaches write -> ship -> queue ->
    service, each starting where the one before ended."""
    cluster, _obs = _traced_checkpoint()
    graph = SpanGraph.from_tracer(cluster.tracer)
    writes = [s for s in graph.spans
              if s.category == "pcache" and s.name == "write_behind"]
    assert len(writes) == 16
    remote = 0
    for wb in writes:
        # (The page's score ships under its own ``submit:score``.)
        (submit,) = [d for d in graph.deps(wb) if d.category == "rpc"
                     and d.name != "submit:score"]
        assert submit.name == "submit:write"
        assert submit.attrs["wait"] is False and submit.duration == 0.0
        caused = {d.category: d for d in graph.deps(submit)}
        assert set(caused) == {"rpc", "rt.queue", "rt.service"}
        ship, wait, service = (caused[c] for c in
                               ("rpc", "rt.queue", "rt.service"))
        assert ship.name == "ship:write"
        assert ship.attrs["cause"] == submit.span_id
        assert ship.start == submit.end
        assert wait.start == ship.end       # enqueued when it landed
        assert service.start == wait.end
        # The wire time is the shipment's, not the writer's.
        (net,) = [d for d in graph.deps(ship) if d.category == "net"]
        assert net.attrs["nbytes"] == ship.attrs["nbytes"] > PAGE
        assert wb.end < net.end
        remote += net.name == "transfer"
    assert remote > 0
    # None of the three is a root: the critical-path walk only enters
    # them through the write that caused them.
    roots = {s.span_id for s in graph.roots()}
    assert not roots & {s.span_id for s in graph.spans
                        if s.name in ("ship:write", "wait:write",
                                      "exec:write")}


def test_cores_and_inflight_gauges_reach_the_live_plane():
    """`repro top` has no static list: both gauges resolve through the
    registry scrape, and say what they should."""
    cluster, obs = _traced_checkpoint(pages=64)
    store = obs.store
    names = {name for name, _ls in store.gauges}
    assert {"rt_cores", "pcache_inflight_bytes", "rt_backlog"} <= names
    cfg = cluster.spec.config
    for node in (0, 1):
        assert store.gauge_last(
            "rt_cores", dict(node=node, pool="low")) \
            == cfg.low_latency_workers
    high = [v for _t, v in store.gauge_series(
        "rt_cores", dict(node=1, pool="high"))]
    assert cfg.workers_min <= min(high) and max(high) <= cfg.workers_max
    assert max(high) > cfg.workers_min      # the burst grew the pool
    inflight = [v for _t, v in store.gauge_series(
        "pcache_inflight_bytes", dict(node=0))]
    assert max(inflight) >= PAGE and inflight[-1] == 0
    assert store.gauge_last("pcache_inflight_bytes", dict(node=1)) == 0


MINI = """
name: mini-gs
cluster:
  n_nodes: 2
  procs_per_node: 1
  dram_mb: 8
  nvme_mb: 16
app:
  kind: mm_gray_scott
  L: 16
  steps: 2
"""


def test_cli_top_lists_both_gauges(tmp_path, capsys):
    path = tmp_path / "mini.yaml"
    path.write_text(MINI)
    rc = main(["top", str(path), "--workdir", str(tmp_path / "wd"),
               "--window", "0.0002", "--json"])
    assert rc == 0
    gauges = json.loads(capsys.readouterr().out)["gauges"]
    assert "rt_cores{node=0,pool=high}" in gauges
    assert "rt_cores{node=1,pool=low}" in gauges
    assert "pcache_inflight_bytes{node=0}" in gauges


def test_a_rank_computing_while_its_scores_ship_is_booked_as_compute():
    """A SCORE batch is fire-and-forget: its ship and its service at
    the owner run while the rank computes, and nobody waits for them.
    They hang under the ``submit:score`` span that issued them, so the
    critical path books the rank's compute as compute instead of
    charging the ship's wire time (a root span before) to ``net``."""
    from tests.core.conftest import build_system, run_procs
    sim, system = build_system(n_nodes=2)
    system.tracer.enabled = True
    client = system.client(rank=0, node=0)
    T = 1e-3
    window = []

    def app():
        vec = yield from client.vector("v", dtype=np.int32, size=8192)
        remote = [p for p in range(vec.shared.n_pages)
                  if vec.shared.owner_node(p, 0) == 1]
        assert remote
        t0 = sim.now
        yield from client.submit_scores(
            vec.shared, [(p, 0.0, 0) for p in range(vec.shared.n_pages)])
        yield sim.timeout(T)
        window.append((t0, sim.now))
        with system.tracer.span("marker", "pcache", node=0):
            yield sim.timeout(1e-6)

    run_procs(sim, app())
    t0, t1 = window[0]
    graph = SpanGraph.from_tracer(system.tracer)
    # The ship's transfer runs inside the window.
    assert any(s.category == "net" and t0 <= s.start and s.end <= t1
               for s in graph.spans)
    booked = {}
    for s, e, owner in graph.critical_path():
        lo, hi = max(s, t0), min(e, t1)
        if hi > lo:
            cat = "compute" if owner is None else owner.category
            booked[cat] = booked.get(cat, 0.0) + hi - lo
    assert booked == {"compute": pytest.approx(T)}
