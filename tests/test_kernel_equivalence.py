"""Fast-kernel equivalence: the acceptance gate for the fast paths.

One fixed-seed pipeline (a two-node exchange through pcache, scache,
hermes, and the network) runs under the fast-path kernel and under
``MEGAMMAP_SLOW_KERNEL=1``. Simulated timestamps, monitor counters,
and vector contents must be bit-for-bit identical; only the
``kernel.*`` observability counters (host-side scheduling behavior)
are allowed to differ.
"""

import numpy as np
import pytest

from repro.core import MM_READ_WRITE, MM_WRITE_ONLY, SeqTx
from benchmarks.common import testbed

PAGE = 64 * 1024
PAGES_PER_RANK = 8


def _exchange(ctx, n_pages):
    half = n_pages * PAGE
    vec = yield from ctx.mm.vector("equiv", dtype=np.uint8,
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


def _run(monkeypatch, slow: bool):
    monkeypatch.setenv("MEGAMMAP_SLOW_KERNEL", "1" if slow else "0")
    c = testbed(n_nodes=2, procs_per_node=1,
                pcache=(PAGES_PER_RANK + 4) * PAGE, seed=7)
    res = c.run(_exchange, PAGES_PER_RANK)
    return res, c


def test_pipeline_bit_for_bit_equivalent(monkeypatch):
    res_fast, c_fast = _run(monkeypatch, slow=False)
    res_slow, c_slow = _run(monkeypatch, slow=True)

    # The env toggle actually selected different kernels.
    assert c_fast.sim._fast and not c_slow.sim._fast
    assert res_fast.stats["kernel.fast_events"] > 0
    assert res_slow.stats["kernel.fast_events"] == 0

    # Simulated clock: identical to the last bit.
    assert res_fast.runtime == res_slow.runtime

    # Application-visible values: byte-identical.
    assert len(res_fast.values) == len(res_slow.values) == 2
    for got, want in zip(res_fast.values, res_slow.values):
        assert np.array_equal(got, want)

    # Monitor counters: identical except the kernel.* host-side ones.
    def visible(stats):
        return {k: v for k, v in stats.items()
                if not k.startswith("kernel.")}

    assert visible(res_fast.stats) == visible(res_slow.stats)

    # And the pipeline did real data-plane work, so the equality above
    # is meaningful.
    assert res_fast.stats.get("pcache.faults", 0) > 0
    assert res_fast.stats.get("net.bytes", 0) > 0


def _run_chaos(perturb: bool):
    """Same testbed with the chaos machinery armed on an empty plan."""
    from repro.chaos import ChaosInjector, ChaosPlan, \
        CoherenceChecker, HistoryRecorder
    c = testbed(n_nodes=2, procs_per_node=1,
                pcache=(PAGES_PER_RANK + 4) * PAGE, seed=7)
    plan = ChaosPlan(seed=0, n_nodes=2, horizon=1.0, faults=[],
                     perturb=perturb)
    checker = CoherenceChecker()
    recorder = HistoryRecorder(c.system, checker)
    c.system.history = recorder
    ChaosInjector(c.system, plan, recorder).install()
    res = c.run(_exchange, PAGES_PER_RANK)
    checker.finalize(c.system)
    return res, c, checker


def test_chaos_off_is_bit_identical(monkeypatch):
    """The acceptance gate for the injection plane: an *empty* fault
    plan (chaos off) with the recorder and checker installed must not
    perturb the simulation at all — runtime, values, and every
    non-kernel counter are bit-for-bit those of a plain run."""
    monkeypatch.setenv("MEGAMMAP_SLOW_KERNEL", "0")
    res_plain, _ = _run(monkeypatch, slow=False)
    res_chaos, _c, checker = _run_chaos(perturb=False)

    assert res_chaos.runtime == res_plain.runtime
    for got, want in zip(res_chaos.values, res_plain.values):
        assert np.array_equal(got, want)

    def visible(stats):
        return {k: v for k, v in stats.items()
                if not k.startswith("kernel.")}

    assert visible(res_chaos.stats) == visible(res_plain.stats)
    # The observer really observed (and found nothing wrong).
    assert checker.checked_reads > 0
    assert checker.violations == []


def test_perturbed_schedule_keeps_application_values(monkeypatch):
    """Randomized same-timestamp tie-breaking may reorder the event
    loop, but application-visible bytes must be unchanged."""
    monkeypatch.setenv("MEGAMMAP_SLOW_KERNEL", "0")
    res_plain, _ = _run(monkeypatch, slow=False)
    res_pert, _c, checker = _run_chaos(perturb=True)
    assert len(res_pert.values) == len(res_plain.values) == 2
    for got, want in zip(res_pert.values, res_plain.values):
        assert np.array_equal(got, want)
    assert checker.violations == []


def test_sampled_observability_is_bit_identical(monkeypatch):
    """The acceptance gate for the observability plane: always-on
    sampled tracing plus the live obs ticker (windowed store, SLO
    evaluation hooks, anomaly detectors) must not perturb the
    simulation — the sampler draws from its own seeded stream and the
    ticker only *reads* state, so runtime, values, and every
    non-kernel, non-observability counter are bit-for-bit those of a
    run with observability off."""
    from repro.obs import LiveObs

    monkeypatch.setenv("MEGAMMAP_SLOW_KERNEL", "0")
    res_plain, _ = _run(monkeypatch, slow=False)

    c = testbed(n_nodes=2, procs_per_node=1,
                pcache=(PAGES_PER_RANK + 4) * PAGE, seed=7,
                trace=True, trace_sample_rate=0.05, obs_window=1e-4)
    LiveObs.attach(c)
    res_obs = c.run(_exchange, PAGES_PER_RANK)

    assert res_obs.runtime == res_plain.runtime
    for got, want in zip(res_obs.values, res_plain.values):
        assert np.array_equal(got, want)

    def visible(stats):
        return {k: v for k, v in stats.items()
                if not k.startswith(("kernel.", "trace.", "obs",
                                     "slo", "tenancy."))}

    assert visible(res_obs.stats) == visible(res_plain.stats)

    # The observability plane really ran: the ticker ticked, sampling
    # dropped span objects, and the per-category stats stayed exact.
    assert c.system.obs.ticks
    assert c.tracer.sampler.sampled_out > 0
    summary = c.tracer.latency_summary()
    total = summary["trace.pcache.count"]
    assert total > len([s for s in c.tracer.spans
                        if s.category == "pcache"])
    assert summary["trace.pcache.p99"] > 0.0


def test_object_path_threshold_zero_is_bit_identical_to_page():
    """The acceptance gate for the object-granular access path: with
    ``object_threshold_bytes = 0`` every ``read_object`` /
    ``write_object`` falls back to the page path before doing any
    work, so the serving workload driven through ``api="object"`` must
    reproduce the ``api="page"`` run bit for bit — same simulated
    runtime, same per-rank results, same counters (and no ``object.*``
    counters at all)."""
    from repro.apps.serving import mm_serving

    def _serve(api):
        c = testbed(n_nodes=2, procs_per_node=2, seed=7,
                    object_threshold_bytes=0)
        res = c.run(mm_serving, 4096, 64, 24, 8, 1.2, 0.05, 5000.0,
                    api)
        return res

    res_obj = _serve("object")
    res_page = _serve("page")

    assert res_obj.runtime == res_page.runtime
    assert res_obj.values == res_page.values

    def visible(stats):
        return {k: v for k, v in stats.items()
                if not k.startswith("kernel.")}

    assert visible(res_obj.stats) == visible(res_page.stats)
    # The gate really closed: nothing took the object fast path.
    assert not [k for k in res_obj.stats if k.startswith("object.")]
    # And the workload did real data-plane work, writes included.
    assert res_obj.stats.get("pcache.faults", 0) > 0
    assert res_obj.stats.get("serving.queries", 0) > 0
