"""Chaos coverage for the object-granular serving path.

The serving workload reads sub-page objects through
``Vector.read_objects``; every one of those reads is recorded in the
coherence checker's history exactly like a page-path access. These
cases pin that object reads survive crash and partition faults
without a ``stale_or_lost_read`` — the OBJ_READ executor falls over
to replicas on a failed primary, and corrupted pages are detected by
the integrity check on the object read path too.

The checked campaigns run read-only: cached object extents are
LOCAL-coherent (a rank may legally serve its private copy until
eviction), and the checker's byte model keeps exactly one promotion
generation, so repeated remote write-through generations against a
long-lived reader cache are outside the checked envelope. The
write-through path itself is checker-pinned below with fresh readers
(``test_write_through_promotes_in_the_checker_model``).
"""

import os

import numpy as np

from repro.chaos import run_campaign, run_case
from repro.chaos.campaign import measure_horizon

from benchmarks.common import testbed

PIPELINE = os.path.join(os.path.dirname(__file__), "..", "..",
                        "pipelines", "chaos_serving_2n.yaml")

SMALL_SERVING = """
name: chaos-serving-small
cluster:
  n_nodes: 2
  procs_per_node: 2
  dram_mb: 16
  nvme_mb: 64
  page_size: 65536
  replication_factor: 2
  integrity_checks: true
  object_threshold_bytes: 4096
app:
  kind: mm_serving
  n_keys: 4096
  obj_bytes: 64
  queries: 24
  lookups: 8
  zipf_s: 1.2
  write_frac: 0
  qps: 5000
  api: object
"""


def _checked_run(app, *args):
    """Run an app on a 2-node testbed with the chaos machinery armed
    on an empty fault plan; returns (RunResult, checker)."""
    from repro.chaos import ChaosInjector, ChaosPlan, \
        CoherenceChecker, HistoryRecorder

    c = testbed(n_nodes=2, procs_per_node=2,
                object_threshold_bytes=4096)
    plan = ChaosPlan(seed=0, n_nodes=2, horizon=1.0, faults=[])
    checker = CoherenceChecker()
    recorder = HistoryRecorder(c.system, checker)
    c.system.history = recorder
    ChaosInjector(c.system, plan, recorder).install()
    res = c.run(app, *args)
    checker.finalize(c.system)
    return res, checker


def test_object_reads_are_checked_on_a_clean_run():
    """The checker really observes the object path: a fault-free run
    with the recorder installed checks every object read and finds
    nothing wrong."""
    from repro.apps.serving import mm_serving

    res, checker = _checked_run(mm_serving, 4096, 64, 24, 8, 1.2,
                                0.0, 5000.0, "object")
    assert res.stats.get("object.reads", 0) > 0
    assert checker.checked_reads > 0
    assert checker.violations == []


def test_write_through_promotes_in_the_checker_model():
    """OBJ_WRITE acks globally order the bytes: a fresh reader (no
    cached copy) after two write-through generations must see the
    latest value, and the checker — fed by ``on_promote`` — agrees."""
    def app(ctx):
        vec = yield from ctx.mm.vector("kv:rw", dtype=np.uint8,
                                       size=1 << 16)
        if ctx.rank == 0:
            yield from vec.write_object(128, np.full(64, 7, np.uint8))
            yield from vec.write_object(128, np.full(64, 9, np.uint8))
        yield from ctx.barrier()
        out = yield from vec.read_object(128, 64)
        return int(out[0])

    res, checker = _checked_run(app)
    # Rank 0 reads its own write back; everyone else fetched fresh.
    assert all(v == 9 for v in res.values), res.values
    assert checker.checked_reads > 0
    assert checker.violations == []


def test_serving_seed_is_deterministic(tmp_path):
    wd = str(tmp_path)
    horizon = measure_horizon(SMALL_SERVING, workdir=wd)
    a = run_case(SMALL_SERVING, 3, horizon=horizon, workdir=wd)
    b = run_case(SMALL_SERVING, 3, horizon=horizon, workdir=wd)
    assert a.ok and b.ok
    assert a.trace_hash == b.trace_hash
    assert a.plan.faults == b.plan.faults


def test_serving_campaign_crash_partition_corrupt(tmp_path):
    """Satellite acceptance: seeded campaigns over the 2-node serving
    pipeline pass the coherence checker with crashes, partitions, and
    corruption enabled — no stale_or_lost_read on the object path."""
    results = run_campaign(PIPELINE, range(6),
                           kinds=("crash", "partition", "corrupt"),
                           workdir=str(tmp_path))
    bad = [r.summary() for r in results if not r.ok]
    assert not bad, bad
    assert all(r.checked_reads > 0 for r in results)
    # The campaign genuinely injected faults, not just clean runs.
    assert sum(r.faults_applied for r in results) > 0


def test_partition_between_service_and_reply_delays_the_read():
    """The reply is a message like any other: a partition that opens
    after the owner serviced a batch and before its reply left stalls
    the reply until the cut heals. The client's ``read_objects``
    completes then, with the value served — it neither hangs nor reads
    garbage, and the checker sees nothing wrong."""
    from repro.chaos import ChaosInjector, ChaosPlan, \
        CoherenceChecker, HistoryRecorder
    from repro.chaos.plan import Fault

    n = 1 << 16
    table = (np.arange(n) % 251).astype(np.uint8)
    heal_after = 0.002

    def app(ctx):
        vec = yield from ctx.mm.vector("kv:cut", dtype=np.uint8, size=n)
        if ctx.rank == 0:
            yield from vec.write_range(0, table)
            yield from vec.flush(wait=True)
        yield from ctx.barrier()
        if ctx.node == 0:
            return None
        # Node 1 reads extents of pages node 0 owns: one remote batch.
        pages = [p for p in range(n // 4096)
                 if vec.shared.owner_node(p, ctx.node) == 0][:3]
        outs = yield from vec.read_objects(
            [(p * 4096 + 100, 64) for p in pages])
        ok = all(np.array_equal(out, table[p * 4096 + 100:][:64])
                 for p, out in zip(pages, outs))
        return ok, ctx.sim.now

    def run(faults):
        c = testbed(n_nodes=2, procs_per_node=1, page_size=4096,
                    object_threshold_bytes=4096, trace=True)
        plan = ChaosPlan(seed=0, n_nodes=2, horizon=1.0, faults=faults)
        checker = CoherenceChecker()
        recorder = HistoryRecorder(c.system, checker)
        c.system.history = recorder
        ChaosInjector(c.system, plan, recorder).install()
        res = c.run(app)
        checker.finalize(c.system)
        assert checker.violations == []
        served = max(sp.end for sp in c.tracer.spans
                     if sp.name == "exec:batch:obj_read")
        replies = [sp for sp in c.tracer.spans if sp.category == "net"
                   and sp.attrs.get("cause") is not None]
        return res, served, replies

    # A clean run tells when the batch is serviced (simulated time is a
    # pure function of the run up to the first fault).
    res, served, replies = run([])
    (ok, t_clean), = [v for v in res.values if v is not None]
    assert ok and len(replies) == 1 and replies[0].start == served
    # Same run; the cut opens at the instant the service ends.
    res, served2, replies = run([Fault(kind="partition", time=served,
                                       duration=heal_after, nodes=(0,))])
    (ok, t_cut), = [v for v in res.values if v is not None]
    assert ok and served2 == served
    assert res.stats.get("chaos.partition_stalls", 0) == 1
    assert len(replies) == 1
    assert replies[0].end >= served + heal_after
    assert t_cut >= served + heal_after > t_clean
