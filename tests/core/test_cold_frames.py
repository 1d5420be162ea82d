"""A read-only scan keeps the pages it has passed until their room is
needed.

Under a read-only-global phase Algorithm 1's 0 score no longer evicts
a clean frame at the acknowledgment: the frame turns *cold* — resident,
valid, and the first frame taken back when a fault, a read-ahead or the
tenant's quota needs room. Below the budget a second pass over the same
partition reads nothing; above it, and under a tenant quota shared by
two ranks, every fault and read-ahead of the evict-at-once behaviour
is kept (the counts pinned here are that behaviour's); a phase change
still drops every cold frame.
"""

import numpy as np

from repro.chaos import CoherenceChecker, HistoryRecorder
from repro.core import MM_READ_ONLY, MM_READ_WRITE, MM_WRITE_ONLY, SeqTx
from repro.tenancy import QuotaManager, TenantQuota
from tests.core.conftest import build_system, run_procs

PAGE = 4096
EPP = PAGE // 8                   # int64 elements per page
PAGES = 16


def _counts(system):
    m = system.monitor
    return (m.counter("scache.reads"), m.counter("pcache.faults"),
            m.counter("pcache.prefetches"))


def _fill(client, n):
    """Create ``pts`` and write ``0..n-1`` through it (generator)."""
    vec = yield from client.vector("pts", dtype=np.int64, size=n)
    yield from vec.tx_begin(SeqTx(0, n, MM_WRITE_ONLY))
    yield from vec.write_range(0, np.arange(n, dtype=np.int64))
    yield from vec.tx_end()
    yield from vec.flush(wait=True)
    return vec


def _scan(vec, off, n):
    """One read-only pass over ``[off, off + n)``; returns its sum."""
    yield from vec.tx_begin(SeqTx(off, n, MM_READ_ONLY))
    total = 0
    while True:
        chunk = yield from vec.next_chunk()
        if chunk is None:
            break
        total += int(chunk.data.sum())
    yield from vec.tx_end()
    return total


def _two_passes(budget_pages):
    """Counts after the first and after the second read-only pass of
    one rank over a 16-page vector, and the frames left cold."""
    sim, system = build_system(n_nodes=2)
    client = system.client(rank=0, node=0)
    n = PAGES * EPP
    out = {}

    def app():
        vec = yield from _fill(client, n)
        vec.bound_memory(budget_pages * PAGE)
        before = _counts(system)
        for i in range(2):
            assert (yield from _scan(vec, 0, n)) == n * (n - 1) // 2
            out[i] = tuple(a - b for a, b in zip(_counts(system), before))
            assert vec.pcache_used <= vec.pcache_budget
        out["cold"] = len(vec.pcache.cold)

    run_procs(sim, app())
    return out


def test_second_pass_below_the_budget_reads_nothing():
    out = _two_passes(budget_pages=2 * PAGES)
    reads, _faults, prefetches = out[0]
    assert reads == prefetches == PAGES
    # Every page passed stays cold, so the second pass is all hits.
    assert out["cold"] == PAGES
    assert out[1] == out[0]


def test_scan_over_its_budget_faults_and_reads_ahead_as_before():
    """At a quarter of the partition the cold frames are always taken
    back before a pass comes round again: every fault and read-ahead
    of evicting at the acknowledgment is kept (pinned numbers)."""
    out = _two_passes(budget_pages=PAGES // 4)
    assert out[0] == (16, 0, 16)
    assert out[1] == (32, 0, 32)


def test_two_ranks_sharing_a_one_page_quota_keep_their_read_ahead():
    """The quota is one page for two ranks. A rank's cold frame is free
    room for the other: the quota takes it back instead of refusing
    the other rank's read-ahead (with cold frames only counting
    against the quota, 11 of the 12 read-aheads became faults)."""
    sim, system = build_system(n_nodes=2)
    qm = QuotaManager(system)
    qm.register(TenantQuota(name="A", pcache_quota=PAGE))
    clients = [system.client(rank=r, node=r) for r in range(2)]
    for client in clients:
        client.bind_tenant(qm.tenants["A"])
    n = PAGES * EPP
    half = n // 2
    made = system.sim.event()

    def rank(i):
        if i == 0:
            vec = yield from _fill(clients[0], n)
            made.succeed()
        else:
            yield made
            vec = yield from clients[1].vector("pts", dtype=np.int64)
        for _ in range(2):
            total = yield from _scan(vec, i * half, half)
            lo = i * half
            assert total == sum(range(lo, lo + half))

    run_procs(sim, rank(0), rank(1))
    # (scache reads, faults, read-aheads) of evicting at once.
    assert _counts(system) == (32, 20, 12)


def test_a_phase_change_drops_cold_frames():
    """Rank 0 scans, keeping its pages cold; rank 1 then rewrites them
    in a read-write phase. Rank 0's next read-only transaction sees the
    new epoch, drops every cold frame and reads the new bytes — and the
    coherence checker sees no stale read."""
    sim, system = build_system(n_nodes=2)
    checker = CoherenceChecker()
    system.history = HistoryRecorder(system, checker)
    c0, c1 = system.client(rank=0, node=0), system.client(rank=1, node=1)
    n = PAGES * EPP
    scanned, rewritten = system.sim.event(), system.sim.event()
    seen = {}

    def reader():
        vec = yield from _fill(c0, n)
        yield from _scan(vec, 0, n)
        seen["cold"] = len(vec.pcache.cold)
        scanned.succeed()
        yield rewritten
        reads = system.monitor.counter("scache.reads")
        seen["sum"] = yield from _scan(vec, 0, n)
        seen["reads"] = system.monitor.counter("scache.reads") - reads

    def writer():
        yield scanned
        vec = yield from c1.vector("pts", dtype=np.int64)
        yield from vec.tx_begin(SeqTx(0, n, MM_READ_WRITE))
        yield from vec.write_range(0, np.full(n, 3, dtype=np.int64))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        rewritten.succeed()

    run_procs(sim, reader(), writer())
    assert seen["cold"] == PAGES
    assert seen["sum"] == 3 * n
    assert seen["reads"] == PAGES
    checker.finalize(system)
    assert not checker.violations
