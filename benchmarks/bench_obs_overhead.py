"""Wall-clock tax of always-on sampled observability.

ISSUE 9's operating claim is that the live observability plane — 10%
head-rate tail-based trace sampling, the windowed-store ticker, SLO
burn-rate evaluation, and the anomaly-detector bank — is cheap enough
to leave on for production-shaped runs. This benchmark prices it: the
two-node exchange workload (the kernel benchmark's data-plane shape)
runs observability-off and observability-on, best-of-``REPEATS`` host
wall-clock each, and the relative overhead lands in
``BENCH_obs_overhead.json`` as ``obs.overhead_pct``. CI's obs-smoke
job gates it against the 5% ceiling in ``perf_floor.json``
(``scripts/check_perf_floor.py --match obs``).

The simulated outcome must also be bit-identical — runtime, values,
and every counter the obs plane does not itself write — which this
benchmark asserts directly (the kernel-equivalence suite pins the
same property at unit scale).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import MM_READ_WRITE, MM_WRITE_ONLY, SeqTx
from benchmarks.common import emit_result, print_table, testbed

PAGE = 64 * 1024
PAGES_PER_RANK = 64
REPEATS = 3
HEAD_RATE = 0.1
OBS_WINDOW = 1e-4
CEILING_PCT = 5.0


def _exchange(ctx, n_pages):
    half = n_pages * PAGE
    vec = yield from ctx.mm.vector("obsbench", dtype=np.uint8,
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


def _build(obs_on: bool):
    c = testbed(n_nodes=2, procs_per_node=1,
                pcache=(PAGES_PER_RANK + 4) * PAGE, seed=7,
                trace=obs_on,
                **({"trace_sample_rate": HEAD_RATE,
                    "obs_window": OBS_WINDOW} if obs_on else {}))
    if obs_on:
        from repro.obs import LiveObs, SLOSpec
        LiveObs.attach(c, slos=[SLOSpec(
            name="task-latency", objective="latency_p99",
            threshold_ms=50.0, target=0.95,
            fast_window_s=10 * OBS_WINDOW)])
    return c


def _measure(obs_on: bool):
    """(best_wall_s, last_result, last_cluster) over REPEATS runs."""
    best = float("inf")
    res = cluster = None
    for _ in range(REPEATS):
        c = _build(obs_on)
        t0 = time.perf_counter()
        r = c.run(_exchange, PAGES_PER_RANK)
        wall = time.perf_counter() - t0
        if wall < best:
            best = wall
        res, cluster = r, c
    return best, res, cluster


@pytest.mark.benchmark(group="obs")
def test_obs_overhead_under_ceiling(benchmark, monkeypatch):
    monkeypatch.setenv("MEGAMMAP_SLOW_KERNEL", "0")
    monkeypatch.delenv("MEGAMMAP_TRACE", raising=False)

    def run():
        return _measure(obs_on=False), _measure(obs_on=True)

    (off_wall, off_res, _off_c), (on_wall, on_res, on_c) = \
        benchmark.pedantic(run, rounds=1, iterations=1)
    overhead_pct = (on_wall / off_wall - 1.0) * 100.0

    rows = [
        dict(mode="obs-off", wall_s=round(off_wall, 4),
             sim_runtime_s=off_res.runtime),
        dict(mode="obs-on", wall_s=round(on_wall, 4),
             sim_runtime_s=on_res.runtime,
             ticks=on_c.system.obs.ticks,
             sampled_out=on_c.tracer.sampler.sampled_out,
             spans_kept=len(on_c.tracer.spans)),
        dict(mode="overhead", wall_s=round(overhead_pct, 2)),
    ]
    print_table("Always-on observability overhead "
                f"({PAGES_PER_RANK} pages/rank, best of {REPEATS})",
                rows)
    emit_result("obs_overhead", "obs.overhead_pct",
                max(overhead_pct, 0.0), "%",
                dict(pages=PAGES_PER_RANK, repeats=REPEATS,
                     head_rate=HEAD_RATE, obs_window=OBS_WINDOW))

    # The plane really ran: ticks fired, sampling dropped span objects.
    assert on_c.system.obs.ticks > 0
    assert on_c.tracer.sampler.sampled_out > 0

    # Observability must not change the simulated outcome.
    assert on_res.runtime == off_res.runtime
    for got, want in zip(on_res.values, off_res.values):
        assert np.array_equal(got, want)
    skip = ("kernel.", "trace.", "obs", "slo")
    visible_on = {k: v for k, v in on_res.stats.items()
                  if not k.startswith(skip)}
    visible_off = {k: v for k, v in off_res.stats.items()
                   if not k.startswith(skip)}
    assert visible_on == visible_off

    # The headline: sampled always-on observability costs <= 5%
    # wall-clock (CI re-enforces this via the perf-floor ceiling).
    assert overhead_pct <= CEILING_PCT, rows
