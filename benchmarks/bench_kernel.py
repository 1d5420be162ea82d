"""Wall-clock throughput of the simulation kernel and data plane.

Unlike every other benchmark in this directory, the metrics here are
*host* seconds, not simulated seconds: the kernel fast paths
(microqueue + trampoline, DESIGN.md "Kernel fast paths") and the
zero-copy payload plumbing change how fast the simulator runs, never
what it computes. Three tiers of measurement:

* **Event churn** — a generator that triggers and consumes immediate
  events as fast as the kernel allows; the fast-path kernel must beat
  the heap-only kernel (``MEGAMMAP_SLOW_KERNEL=1`` equivalent,
  constructed here as ``Simulator(fast=False)``) by >= 2x.
* **Heap-bound timers** — all events carry nonzero delays, so both
  kernels do the same heap work; guards against the fast paths' checks
  taxing the workloads they cannot help.
* **Two-node exchange + KMeans pipeline** — end-to-end faults/sec and
  data-plane MB/s through pcache/scache/hermes/net, plus the proof
  that both kernels produce bit-identical simulated results.

Every metric lands in ``benchmarks/results/BENCH_kernel.json`` via
:func:`benchmarks.common.emit_result`; CI gates on the events/sec
floor in ``benchmarks/perf_floor.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.apps.datagen import write_parquet_points
from repro.apps.grayscott import GSParams, gs_reference, mm_gray_scott
from repro.apps.kmeans import mm_kmeans
from repro.core import MM_READ_WRITE, MM_WRITE_ONLY, SeqTx
from repro.sim.engine import Event, Simulator
from benchmarks.common import critical_breakdown, emit_result, \
    print_table, testbed, write_csv

PAGE = 64 * 1024
PAGES_PER_RANK = 32
CHURN_EVENTS = 200_000
TIMER_EVENTS = 100_000
REPEATS = 3


# -- kernel microbenches ----------------------------------------------------
def _churn(sim: Simulator, n: int) -> None:
    """Immediate-event churn: every yield is already triggered."""
    def proc():
        for _ in range(n):
            e = Event(sim)
            e.succeed()
            yield e
        return sim.now

    sim.process(proc())
    sim.run()


def _timers(sim: Simulator, n: int) -> None:
    """Heap-bound churn: every event carries a nonzero delay."""
    def proc(delay):
        for _ in range(n):
            yield sim.timeout(delay)

    # Two interleaved processes so the heap always holds future work.
    sim.process(proc(1.0))
    sim.process(proc(1.5))
    sim.run()


def _best_rate(workload, fast: bool, n: int) -> float:
    """Best events/sec over REPEATS runs (min-noise estimator)."""
    best = 0.0
    for _ in range(REPEATS):
        sim = Simulator(fast=fast)
        t0 = time.perf_counter()
        workload(sim, n)
        dt = time.perf_counter() - t0
        best = max(best, (sim.fast_events + sim.heap_events) / dt)
    return best


@pytest.mark.benchmark(group="kernel")
def test_event_churn_speedup(benchmark):
    def run():
        slow = _best_rate(_churn, fast=False, n=CHURN_EVENTS)
        fast = _best_rate(_churn, fast=True, n=CHURN_EVENTS)
        return slow, fast

    slow, fast = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = fast / slow
    rows = [dict(kernel="heap-only", events_per_sec=round(slow)),
            dict(kernel="fast-path", events_per_sec=round(fast)),
            dict(kernel="speedup", events_per_sec=round(ratio, 2))]
    print_table("Kernel event churn (immediate events)", rows)
    cfg = dict(events=CHURN_EVENTS, repeats=REPEATS)
    emit_result("kernel", "kernel.events_per_sec", fast, "events/s", cfg)
    emit_result("kernel", "kernel.events_per_sec_slow", slow, "events/s",
                cfg)
    emit_result("kernel", "kernel.churn_speedup", ratio, "x", cfg)
    # The tentpole claim: the fast paths at least double immediate-event
    # throughput over the heap-only kernel.
    assert ratio >= 2.0, rows


@pytest.mark.benchmark(group="kernel")
def test_heap_bound_parity(benchmark):
    def run():
        slow = _best_rate(_timers, fast=False, n=TIMER_EVENTS)
        fast = _best_rate(_timers, fast=True, n=TIMER_EVENTS)
        return slow, fast

    slow, fast = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [dict(kernel="heap-only", events_per_sec=round(slow)),
            dict(kernel="fast-path", events_per_sec=round(fast))]
    print_table("Kernel heap-bound timers", rows)
    cfg = dict(events=TIMER_EVENTS, repeats=REPEATS)
    emit_result("kernel", "kernel.timer_events_per_sec", fast,
                "events/s", cfg)
    emit_result("kernel", "kernel.timer_events_per_sec_slow", slow,
                "events/s", cfg)
    # Fast paths must not tax workloads they cannot help: heap-bound
    # events run within noise of the heap-only kernel, never at half.
    assert fast >= 0.5 * slow, rows


# -- data-plane pipeline ----------------------------------------------------
def _exchange(ctx, n_pages):
    """Write my half, barrier, sequentially read the peer's half."""
    half = n_pages * PAGE
    vec = yield from ctx.mm.vector("kernelbench", dtype=np.uint8,
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


def _run_exchange(slow_kernel: bool):
    prev = os.environ.get("MEGAMMAP_SLOW_KERNEL")
    os.environ["MEGAMMAP_SLOW_KERNEL"] = "1" if slow_kernel else "0"
    try:
        c = testbed(n_nodes=2, procs_per_node=1,
                    pcache=(PAGES_PER_RANK + 4) * PAGE,
                    prefetch_enabled=False)
        t0 = time.perf_counter()
        res = c.run(_exchange, PAGES_PER_RANK)
        wall = time.perf_counter() - t0
    finally:
        if prev is None:
            os.environ.pop("MEGAMMAP_SLOW_KERNEL", None)
        else:
            os.environ["MEGAMMAP_SLOW_KERNEL"] = prev
    stats = res.stats
    row = dict(
        kernel="heap-only" if slow_kernel else "fast-path",
        wall_s=round(wall, 3),
        events_per_sec=round((stats["kernel.fast_events"]
                              + stats["kernel.heap_events"]) / wall),
        faults_per_sec=round(stats.get("pcache.faults", 0.0) / wall),
        net_mb_per_sec=round(stats.get("net.bytes", 0.0) / 2**20 / wall,
                             1),
        bytes_copied_mb=round(stats.get("bytes.copied", 0.0) / 2**20, 2),
        sim_runtime_s=res.runtime,
    )
    return row, res, wall


@pytest.mark.benchmark(group="kernel")
def test_two_node_exchange_dataplane(benchmark):
    def run():
        return _run_exchange(slow_kernel=True), \
            _run_exchange(slow_kernel=False)

    (row_slow, res_slow, _), (row_fast, res_fast, wall) = \
        benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [row_slow, row_fast]
    print_table(f"Two-node exchange ({PAGES_PER_RANK} pages/rank)", rows)
    write_csv("kernel_exchange", rows)
    # Bit-for-bit equivalence of the simulated outcome: same values,
    # same simulated clock, same counters (kernel.* describe host-side
    # scheduling and differ by construction).
    assert res_fast.runtime == res_slow.runtime
    for got, want in zip(res_fast.values, res_slow.values):
        assert np.array_equal(got, want)
    skip = ("kernel.",)
    stats_fast = {k: v for k, v in res_fast.stats.items()
                  if not k.startswith(skip)}
    stats_slow = {k: v for k, v in res_slow.stats.items()
                  if not k.startswith(skip)}
    assert stats_fast == stats_slow
    cfg = dict(n_nodes=2, pages_per_rank=PAGES_PER_RANK, page=PAGE)
    emit_result("kernel", "exchange.events_per_sec",
                row_fast["events_per_sec"], "events/s", cfg)
    emit_result("kernel", "exchange.faults_per_sec",
                row_fast["faults_per_sec"], "faults/s", cfg)
    emit_result("kernel", "exchange.net_mb_per_sec",
                row_fast["net_mb_per_sec"], "MB/s", cfg)
    emit_result("kernel", "exchange.bytes_copied",
                row_fast["bytes_copied_mb"], "MB", cfg)


@pytest.mark.benchmark(group="kernel")
def test_kmeans_pipeline_wallclock(benchmark, tmp_path):
    """One real pipeline end to end: KMeans over a parquet dataset."""
    path = tmp_path / "kernel_km.parquet"
    write_parquet_points(str(path), 40_000, 8, seed=3)
    url = f"parquet://{path}"

    def run():
        c = testbed(n_nodes=2, workdir=tmp_path)
        t0 = time.perf_counter()
        res = c.run(mm_kmeans, url, 8, 4)
        wall = time.perf_counter() - t0
        return res, wall, critical_breakdown(c)

    res, wall, bd = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = res.stats
    events = stats["kernel.fast_events"] + stats["kernel.heap_events"]
    rows = [dict(pipeline="kmeans", wall_s=round(wall, 3),
                 events_per_sec=round(events / wall),
                 trampolined_pct=round(100 * stats["kernel.trampolines"]
                                       / max(1.0, events), 1),
                 sim_runtime_s=res.runtime)]
    print_table("KMeans pipeline (2 nodes, host wall-clock)", rows)
    cfg = dict(n_nodes=2, records=40_000, k=8, iters=4)
    emit_result("kernel", "pipeline.kmeans.events_per_sec",
                events / wall, "events/s", cfg)
    emit_result("kernel", "pipeline.kmeans.wall_s", wall, "s", cfg,
                breakdown=bd)
    # The one bench that reads a dataset cold: how the bytes came in.
    requests = stats["stager.requests_in"]
    emit_result("kernel", "stagein.requests", requests, "requests", cfg)
    emit_result("kernel", "stagein.bytes_per_request",
                stats["stager.bytes_in"] / requests, "B", cfg)
    # How many of them nobody had asked for (read ahead on an idle PFS
    # server), and the simulated time the last backend byte was in.
    emit_result("kernel", "stagein.requests_ahead",
                stats.get("stager.requests_ahead", 0), "requests", cfg)
    emit_result("kernel", "stagein.last_byte_s",
                stats["stager.last_byte_s.peak"], "s", cfg)
    assert res.runtime > 0


@pytest.mark.benchmark(group="kernel")
def test_checkpoint_drain(benchmark, tmp_path, monkeypatch):
    """Gray-Scott checkpointing every step, then the end-of-job drain
    (``cluster.shutdown()``): how the checkpoint bytes went out. A
    persist writes each PFS server's pages in one request, so the
    drain is a handful of long sequential writes, not one seek per
    page."""
    # A relative prefix: pages are placed by a hash of the dataset URL.
    monkeypatch.chdir(tmp_path)
    L, steps = 64, 2

    def run():
        c = testbed(n_nodes=2, procs_per_node=2, page_size=PAGE)
        c.run(mm_gray_scott, L, steps, 1, None, GSParams(),
              "posix://./ckpt")
        t0 = c.sim.now
        c.shutdown()
        return c.system.stats(), c.sim.now - t0

    stats, drain = benchmark.pedantic(run, rounds=1, iterations=1)
    u_ref, _v_ref = gs_reference(L, steps)
    assert np.array_equal(np.fromfile(f"ckpt_{steps}.u", dtype=np.float64),
                          u_ref.ravel())
    requests = stats["stager.requests_out"]
    rows = [dict(requests=int(requests),
                 bytes_per_request=round(stats["stager.bytes_out"]
                                         / requests),
                 drain_s=round(drain, 4))]
    print_table(f"Gray-Scott L={L} checkpoint drain (2 nodes)", rows)
    cfg = dict(n_nodes=2, L=L, steps=steps, plotgap=1, page=PAGE)
    emit_result("kernel", "stageout.bytes_per_request",
                stats["stager.bytes_out"] / requests, "B", cfg)
    emit_result("kernel", "stageout.drain_s", drain, "s", cfg)
