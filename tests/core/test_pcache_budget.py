"""The pcache budget counts the bytes frames actually hold.

A frame is charged for its extents — a whole page when a whole page
was accessed, 64 B when a 64 B object was — and every path that adds
bytes to a frame makes room for exactly those bytes first. The first
three tests are historical regressions (each fails with its fix
reverted):

* writing the rest of a cached tail page after ``append`` grew the
  vector added bytes without making room, so the pcache could exceed
  ``pcache_budget``;
* ``pcache_used`` counted ``len(frames) * page_size``, evicting frames
  that actually fit (tail pages are smaller than a nominal page);
* ``prefetch_page`` budget-checked a nominal page, refusing tail-page
  prefetches that fit.

The rest pin sparse residency in the regime the repo's benchmark does
not reach (its serving caches never fill): the budget and the tenant
quota hold after every operation on both access paths, and evicting,
invalidating, patching and reading ahead all act on exactly the bytes
a frame has.
"""

import numpy as np
import pytest

from repro.chaos.checker import check_conservation
from repro.core import MM_READ_ONLY, MM_READ_WRITE, MM_WRITE_ONLY, SeqTx
from repro.core.pcache import Frame
from repro.tenancy import QuotaManager, TenantQuota
from tests.core.conftest import build_system, run_procs

PAGE = 4096                       # fixture page size (bytes)
EPP = PAGE // 8                   # int64 elements per page: 512
OBJ = 64                          # object size of the serving shapes


def _system(**cfg):
    # Prefetching off so Algorithm 1 cannot evict/prefetch behind the
    # test's back; frame population is exactly what the test does.
    return build_system(prefetch_enabled=False, **cfg)


def _counter(system, name):
    return system.monitor.counter(name)


# -- historical regressions -------------------------------------------------

def test_append_growth_respects_budget():
    """Filling a cached tail page after ``append`` must evict for the
    added bytes, not silently blow past the budget."""
    sim, system = _system()
    client = system.client(rank=0, node=0)

    def app():
        # Page 0 full (4096 B), page 1 the 8 B tail.
        vec = yield from client.vector("g", dtype=np.int64,
                                       size=EPP + 1)
        vec.bound_memory(PAGE + 8)  # exactly both pages, no slack
        yield from vec.tx_begin(SeqTx(0, EPP + 1, MM_READ_WRITE))
        yield from vec.read_range(EPP, 1)   # tail frame: 8 B
        yield from vec.read_range(0, EPP)   # page 0 frame: 4096 B
        assert sorted(vec.frames) == [0, 1]
        assert vec.pcache_used == PAGE + 8
        # Fill page 1: append grows the vector to 2 full pages, so
        # writing the appended range adds 4088 B to frame 1 — which
        # only fits if page 0 is evicted first.
        yield from vec.append(np.arange(EPP - 1, dtype=np.int64))
        assert vec.pcache_used <= vec.pcache_budget, \
            (vec.pcache_used, vec.pcache_budget)
        assert 0 not in vec.frames          # the LRU victim
        assert vec.frames[1].held == PAGE
        # Accounting stays consistent: evicting the grown frame
        # releases the full grown size.
        yield from vec.evict_page(1)
        assert vec.pcache_used == 0
        yield from vec.tx_end()
        yield from client.drain()

    run_procs(sim, app())


def test_tail_frame_counts_actual_bytes():
    """Two frames whose real sizes fit the budget must coexist even
    when ``len(frames) * page_size`` would not."""
    sim, system = _system()
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("t", dtype=np.int64,
                                       size=EPP + 1)
        # Fits 4096 + 8 but NOT a nominal 2 * 4096.
        vec.bound_memory(PAGE + 2000)
        yield from vec.tx_begin(SeqTx(0, EPP + 1, MM_READ_WRITE))
        yield from vec.read_range(EPP, 1)   # 8 B tail frame
        yield from vec.read_range(0, EPP)   # 4096 B frame
        # Nominal accounting evicted the tail frame here.
        assert sorted(vec.frames) == [0, 1]
        assert vec.pcache_used == PAGE + 8
        yield from vec.tx_end()
        yield from client.drain()

    run_procs(sim, app())


def test_prefetch_tail_page_budget_checks_actual_bytes():
    """An 8 B tail page must prefetch into 8 B of remaining budget."""
    sim, system = _system()
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("p", dtype=np.int64,
                                       size=EPP + 1)
        vec.bound_memory(PAGE + 8)
        yield from vec.tx_begin(SeqTx(0, EPP + 1, MM_READ_WRITE))
        yield from vec.read_range(0, EPP)   # 4096 B resident
        vec.prefetch_page(1)                # 8 B more: exactly fits
        # The nominal check (used + page_size > budget) refused this.
        assert 1 in vec.frames
        if vec.frames[1].pending is not None:
            yield vec.frames[1].pending
        assert vec.pcache_used == PAGE + 8
        assert vec.pcache_used <= vec.pcache_budget
        yield from vec.tx_end()
        yield from client.drain()

    run_procs(sim, app())


# -- the extent store itself ------------------------------------------------

def test_frame_holds_exactly_the_extents_it_was_given():
    frame = Frame()
    a, grew = frame.span(100, 164)
    a[:] = 1
    assert (grew, frame.held, frame.data) == (64, 64, None)
    # Touching extents stay separate buffers: no recopy of neighbours.
    b, grew = frame.span(164, 200)
    b[:] = 2
    assert (grew, frame.held, len(frame.bufs)) == (36, 100, 2)
    # A range inside one extent is a view of it, and allocates nothing.
    view, grew = frame.span(110, 120)
    assert grew == 0 and np.shares_memory(view, a)
    # A read across extents gathers; bytes not held read as zero.
    out = frame.read(90, 210)
    assert out.tolist() == [0] * 10 + [1] * 64 + [2] * 36 + [0] * 10
    assert not np.shares_memory(out, a)
    # A patch overwrites held bytes only.
    frame.patch(150, np.full(100, 9, np.uint8))
    assert frame.held == 100
    assert frame.read(140, 260).tolist() == \
        [1] * 10 + [9] * 50 + [0] * 60
    # An overlapping range merges what it overlaps into one extent and
    # is charged only for the bytes in between and beyond.
    frame.span(300, 310)
    merged, grew = frame.span(190, 305)
    assert (grew, frame.held) == (100, 210)
    assert frame.starts == [100, 164] and len(frame.bufs[1]) == 146
    assert merged[:10].tolist() == [9] * 10
    # One extent from byte 0 is what "dense" means.
    whole, grew = frame.span(0, 400)
    assert grew == 400 - 210 and frame.held == 400
    assert frame.data is not None and np.shares_memory(whole, frame.data)
    assert frame.data[100:150].tolist() == [1] * 50


def test_dense_frame_hands_out_aliasing_chunks():
    """A whole-page access holds one extent covering the page: chunks
    alias it and no bytes beyond the page are charged."""
    sim, system = _system()
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("d", dtype=np.int64,
                                       size=2 * EPP)
        yield from vec.tx_begin(SeqTx(0, 2 * EPP, MM_READ_WRITE))
        chunk = yield from vec.next_chunk()
        frame = vec.frames[0]
        assert len(frame.data) == PAGE and frame.held == PAGE
        assert np.shares_memory(chunk.data, frame.data)
        chunk.data[:] = 7
        assert frame.read(0, 8).view(np.int64)[0] == 7
        assert vec.pcache_used == PAGE
        yield from vec.tx_end()
        yield from client.drain()

    run_procs(sim, app())


# -- the budget under sparse residency --------------------------------------

@pytest.mark.parametrize("threshold", [OBJ, 0],
                         ids=["object-path", "page-path"])
def test_uniform_keys_over_a_large_table_stay_within_budget(threshold):
    """Uniform 64 B lookups over a table 32x the budget: the cache
    fills and churns, and after *every* operation the handle holds no
    more than its budget, the accounting is conserved, and reads match
    a shadow array."""
    sim, system = _system(object_threshold_bytes=threshold)
    client = system.client(rank=0, node=0)
    n_keys, budget = 4096, 2 * PAGE            # 256 KB table, 8 KB cache
    rng = np.random.default_rng(5)
    shadow = (np.arange(n_keys * OBJ) % 251).astype(np.uint8)

    def settled(vec):
        assert vec.pcache_used <= vec.pcache_budget, vec.pcache_used
        assert check_conservation(system, [vec]) == []

    def app():
        vec = yield from client.vector("kv", dtype=np.uint8,
                                       size=n_keys * OBJ)
        vec.bound_memory(budget)
        yield from vec.write_range(0, shadow)
        yield from vec.flush(wait=True)
        for p in list(vec.frames):
            yield from vec.evict_page(p)
        for _ in range(300):
            offs = [int(k) * OBJ
                    for k in rng.integers(0, n_keys, size=8)]
            outs = yield from vec.read_objects(
                [(o, OBJ) for o in offs])
            settled(vec)
            for o, out in zip(offs, outs):
                assert np.array_equal(out, shadow[o:o + OBJ])
            woff = int(rng.integers(0, n_keys)) * OBJ
            val = rng.integers(0, 251, size=OBJ, dtype=np.uint8)
            shadow[woff:woff + OBJ] = val
            yield from vec.write_object(woff, val)
            settled(vec)
        return vec.pcache_used

    (used,) = run_procs(sim, app())
    # Non-vacuous: the cache really filled (8 KB = 128 extents) and
    # paid for it with evictions.
    assert used > budget // 2
    evictions = _counter(system, "pcache.evictions_clean") \
        + _counter(system, "pcache.evictions_dirty")
    assert evictions > 50


def test_tenant_quota_bounds_sparse_residency():
    """The tenant ledger is charged the same bytes: a quota below the
    vector budget holds under 64 B extents too."""
    sim, system = _system(n_nodes=1, object_threshold_bytes=OBJ)
    quota = PAGE
    qm = QuotaManager(system)
    qm.register(TenantQuota(name="A", pcache_quota=quota))
    client = system.client(rank=0, node=0)
    client.bind_tenant(qm.tenants["A"])
    rng = np.random.default_rng(9)

    def app():
        vec = yield from client.vector("kv", dtype=np.uint8,
                                       size=1024 * OBJ)
        vec.bound_memory(8 * PAGE)      # vector budget >> tenant quota
        for _ in range(100):
            offs = [int(k) * OBJ for k in rng.integers(0, 1024, size=4)]
            yield from vec.read_objects([(o, OBJ) for o in offs])
            assert qm.tenants["A"].pcache_used == vec.pcache_used
            assert vec.pcache_used <= quota

    run_procs(sim, app())
    assert _counter(system, "pcache.evictions_clean") > 0


def test_evicting_sparse_dirty_extents_ships_exactly_those_bytes():
    sim, system = _system()
    c0 = system.client(rank=0, node=0)
    c1 = system.client(rank=1, node=1)
    shipped = []
    submit_batch = c0.submit_batch

    def recording(tasks, wait=True):
        tasks = list(tasks)
        shipped.extend(tasks)
        return (yield from submit_batch(tasks, wait=wait))

    c0.submit_batch = recording
    ready = sim.event()

    def writer():
        vec = yield from c0.vector("e", dtype=np.uint8, size=2 * PAGE)
        yield from vec.write_range(10, np.full(10, 1, np.uint8))
        yield from vec.write_range(100, np.full(64, 2, np.uint8))
        frame = vec.frames[0]
        assert frame.held == 74 == vec.pcache_used
        assert list(frame.dirty) == [(10, 20), (100, 164)]
        before = _counter(system, "pcache.evictions_dirty")
        yield from vec.evict_page(0)
        assert _counter(system, "pcache.evictions_dirty") == before + 1
        assert vec.pcache_used == 0
        yield from c0.drain()
        ready.succeed()

    def reader():
        vec = yield from c1.vector("e", dtype=np.uint8, size=2 * PAGE)
        yield ready
        return (yield from vec.read_range(0, 200))

    _, out = run_procs(sim, writer(), reader())
    (task,) = shipped
    assert [(off, bytes(frag)) for off, frag in task.fragments] == \
        [(10, b"\x01" * 10), (100, b"\x02" * 64)]
    expect = np.zeros(200, np.uint8)
    expect[10:20], expect[100:164] = 1, 2
    assert np.array_equal(out, expect)


def test_invalidation_drops_sparse_extents():
    """``invalidate_range`` drops the overlapping frames whatever they
    hold; the ``tx_begin`` epoch invalidation drops them all."""
    sim, system = _system()
    c0 = system.client(rank=0, node=0)
    c1 = system.client(rank=1, node=1)
    step = [sim.event(), sim.event()]

    def reader():
        vec = yield from c0.vector("i", dtype=np.uint8, size=4 * PAGE)
        yield from vec.tx_begin(SeqTx(0, 4 * PAGE, MM_READ_ONLY))
        for page in range(3):
            yield from vec.read_range(page * PAGE + 128, OBJ)
        assert vec.pcache_used == 3 * OBJ
        yield from vec.invalidate_range(PAGE, PAGE)     # page 1 only
        assert sorted(vec.frames) == [0, 2]
        assert vec.pcache_used == 2 * OBJ
        yield from vec.tx_end()
        step[0].succeed()
        yield step[1]
        # A peer changed the phase since: every cached extent may be
        # stale and goes.
        yield from vec.tx_begin(SeqTx(0, 4 * PAGE, MM_READ_ONLY))
        assert not vec.frames and vec.pcache_used == 0
        out = yield from vec.read_range(128, OBJ)
        yield from vec.tx_end()
        return out

    def writer():
        vec = yield from c1.vector("i", dtype=np.uint8, size=4 * PAGE)
        yield step[0]
        yield from vec.tx_begin(SeqTx(0, 4 * PAGE, MM_WRITE_ONLY))
        yield from vec.write_range(128, np.full(OBJ, 5, np.uint8))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        step[1].succeed()

    out, _ = run_procs(sim, reader(), writer())
    assert out.tolist() == [5] * OBJ
    assert check_conservation(system) == []


def test_write_object_patches_resident_extents_only():
    sim, system = _system(object_threshold_bytes=OBJ)
    client = system.client(rank=0, node=0)

    def remote():
        return _counter(system, "object.remote_tasks")

    def app():
        vec = yield from client.vector("w", dtype=np.uint8, size=PAGE)
        yield from vec.read_object(0, OBJ)              # resident
        frame = vec.frames[0]
        assert frame.held == OBJ
        yield from vec.write_object(0, np.full(OBJ, 3, np.uint8))
        yield from vec.write_object(10 * OBJ, np.full(OBJ, 4, np.uint8))
        # The resident extent was patched in place; the other write
        # went through without being cached.
        assert frame.held == OBJ == vec.pcache_used
        assert list(frame.valid) == [(0, OBJ)] and not frame.dirty
        before = remote()
        hit = yield from vec.read_object(0, OBJ)
        assert remote() == before                       # served locally
        miss = yield from vec.read_object(10 * OBJ, OBJ)
        assert remote() == before + 1                   # fetched
        return hit, miss

    ((hit, miss),) = run_procs(sim, app())
    assert hit.tolist() == [3] * OBJ and miss.tolist() == [4] * OBJ


# -- accounting stragglers --------------------------------------------------

def test_prefetch_reads_ahead_the_missing_remainder_of_a_page():
    """A page that merely *has* a frame used to be skipped by
    read-ahead and then faulted synchronously extent by extent; it is
    admitted, and charged, for the bytes it lacks."""
    sim, system = _system()
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("r", dtype=np.uint8,
                                       size=2 * PAGE)
        yield from vec.tx_begin(SeqTx(0, 2 * PAGE, MM_READ_ONLY))
        yield from vec.read_range(PAGE + 128, OBJ)
        yield from vec.read_range(PAGE + 1024, OBJ)
        assert vec.pcache_used == 2 * OBJ
        # No room for the remainder: not admitted, nothing charged.
        vec.bound_memory(PAGE)
        yield from vec.read_range(0, OBJ)
        vec.prefetch_page(1)
        assert vec.frames[1].pending is None
        assert vec.pcache_used == 3 * OBJ
        vec.bound_memory(2 * PAGE)
        copied = _counter(system, "bytes.copied")
        vec.prefetch_page(1)
        frame = vec.frames[1]
        assert frame.pending is not None
        assert vec.pcache_used == PAGE + OBJ            # charged at issue
        vec.prefetch_page(1)                            # in flight: no-op
        assert vec.pcache_used == PAGE + OBJ
        yield frame.pending
        assert list(frame.valid) == [(0, PAGE)] and frame.held == PAGE
        assert len(frame.data) == PAGE
        # Only the three gaps around the two resident extents moved.
        assert _counter(system, "bytes.copied") - copied == PAGE - 2 * OBJ
        faults = _counter(system, "pcache.faults")
        yield from vec.read_range(PAGE, PAGE)
        assert _counter(system, "pcache.faults") == faults
        yield from vec.tx_end()

    run_procs(sim, app())
    assert _counter(system, "pcache.prefetches") == 1


def test_destroy_releases_frames_like_any_eviction():
    sim, system = _system()
    client = system.client(rank=0, node=0)
    dram = system.dmshs[0].tiers[0]

    def app():
        vec = yield from client.vector("x", dtype=np.uint8,
                                       size=4 * PAGE)
        yield from vec.read_range(0, PAGE)
        yield from vec.read_range(PAGE + 64, OBJ)
        assert vec.pcache_used == PAGE + OBJ
        yield from vec.destroy(drop=True)
        return vec

    (vec,) = run_procs(sim, app())
    assert not vec.frames and vec.pcache_used == 0
    assert _counter(system, "pcache.evictions_clean") == 2
    assert dram.used == 0


# -- observability ----------------------------------------------------------

@pytest.mark.parametrize("api", ["object", "page"])
def test_hit_miss_counters_and_resident_gauge_reach_the_live_plane(api):
    """One vocabulary on both paths: ``pcache_hit_bytes`` /
    ``pcache_miss_bytes`` are counted where the missing extents are
    evaluated and ``pcache_resident_bytes`` follows the bytes held;
    the names `repro top` prints resolve through the registry scrape.
    On the object path the hit counter *is* ``object.local_hit_bytes``.
    """
    from repro.apps.serving import mm_serving
    from repro.obs import LiveObs
    from repro.pipeline import build_cluster

    cluster = build_cluster(dict(
        n_nodes=2, procs_per_node=1, dram_mb=8, nvme_mb=16,
        page_size=PAGE, pcache_size=4 * PAGE,
        object_threshold_bytes=OBJ if api == "object" else 0))
    obs = LiveObs.attach(cluster, window=1e-4)
    queries, lookups = 24, 8
    res = cluster.run(mm_serving, 1024, OBJ, queries, lookups, 1.2,
                      0.0, 1e6, api)
    obs.tick()  # close the window the run ended in
    store = obs.store

    def total(name):
        series = [key for key in store.counters if key[0] == name]
        assert len(series) == 2, (name, series)      # one per node
        assert all(dict(ls)["vector"] == "kv:serving"
                   for _n, ls in series)
        return sum(store.delta(*key) for key in series)

    hit, miss = total("pcache_hit_bytes"), total("pcache_miss_bytes")
    assert hit > 0 and miss > 0
    assert hit + miss == 2 * queries * lookups * OBJ
    if api == "object":
        assert hit == res.stats["object.local_hit_bytes"]
        assert hit + miss == res.stats["object.read_bytes"]
    else:
        # Every missing extent of the page path is one fault.
        assert miss == res.stats["pcache.faults"] * OBJ
    gauges = [key for key in store.gauges
              if key[0] == "pcache_resident_bytes"]
    assert len(gauges) == 2
    # Nothing was evicted (the working set fits), so what is resident
    # at the end is every byte that was fetched: each miss once, a key
    # repeated within one vectored read only the first time.
    fetched = miss - res.stats.get("object.dedup_hits", 0) * OBJ
    assert sum(store.gauge_last(*key) for key in gauges) == fetched
