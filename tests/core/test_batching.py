"""Batched page-operation pipeline: equivalence with the per-page
path, ordering guarantees, owner grouping, and the batch wire model.

The acceptance bar for batching is *bit-for-bit equivalence*: running
the same workload with ``batching_enabled`` on and off must produce
identical vector contents, identical ``dirty_pages``, and identical
coherence behaviour — batching only changes how many envelopes and
network transfers the work costs.
"""

import random

import numpy as np
import pytest

from repro.core import MM_APPEND_ONLY, MM_READ_ONLY, MM_READ_WRITE, \
    MM_WRITE_ONLY, SeqTx
from repro.core import memtask
from repro.core.memtask import BatchTask, MemoryTask, TaskKind
from repro.core.transaction import PageRegion, coalesce_page_runs
from repro.net.message import ENVELOPE, ITEM_HEADER, batched_nbytes
from tests.core.conftest import build_system, run_procs

PAGE = 4096
N_PAGES = 8


def _rw_workload(batching_enabled):
    """Write + flush + read back + partial overwrite on two nodes;
    returns (contents, dirty_pages, stats)."""
    sim, system = build_system(batching_enabled=batching_enabled)
    c0 = system.client(rank=0, node=0)
    c1 = system.client(rank=1, node=1)
    data = (np.arange(N_PAGES * PAGE) % 251).astype(np.uint8)
    ready = sim.event()

    def writer():
        vec = yield from c0.vector("eq", dtype=np.uint8,
                                   size=N_PAGES * PAGE)
        yield from vec.tx_begin(SeqTx(0, N_PAGES * PAGE, MM_WRITE_ONLY))
        yield from vec.write_range(0, data)
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        ready.succeed()

    def reader():
        vec = yield from c1.vector("eq", dtype=np.uint8,
                                   size=N_PAGES * PAGE)
        yield ready
        yield from vec.tx_begin(SeqTx(0, N_PAGES * PAGE, MM_READ_WRITE))
        out = yield from vec.read_range(0, N_PAGES * PAGE)
        # Partial overwrite crossing a page boundary (fragments).
        yield from vec.write_range(PAGE - 16, np.full(32, 7, np.uint8))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        back = yield from vec.read_range(0, N_PAGES * PAGE)
        return out, back, sorted(vec.shared.dirty_pages)

    _, (out, back, dirty) = run_procs(sim, writer(), reader())
    return out, back, dirty, system


def test_batched_equals_unbatched_contents_and_dirty_pages():
    out_b, back_b, dirty_b, sys_b = _rw_workload(True)
    out_u, back_u, dirty_u, sys_u = _rw_workload(False)
    assert np.array_equal(out_b, out_u)
    assert np.array_equal(back_b, back_u)
    expect = (np.arange(N_PAGES * PAGE) % 251).astype(np.uint8)
    assert np.array_equal(out_b, expect)
    expect[PAGE - 16:PAGE + 16] = 7
    assert np.array_equal(back_b, expect)
    assert dirty_b == dirty_u
    # Batching paid fewer network transfers and fewer rpc envelopes
    # for identical results.
    assert sys_b.monitor.counter("net.transfers") \
        < sys_u.monitor.counter("net.transfers")
    ops_b = sys_b.monitor.counter("rpc.submits") \
        + sys_b.monitor.counter("rpc.batches")
    ops_u = sys_u.monitor.counter("rpc.submits") \
        + sys_u.monitor.counter("rpc.batches")
    assert ops_b < ops_u


def _replica_workload(batching_enabled):
    """READ_ONLY phase replicates remote pages; the next writing phase
    must invalidate every replica (III-C) — with or without batching."""
    sim, system = build_system(batching_enabled=batching_enabled)
    c0 = system.client(rank=0, node=0)
    c1 = system.client(rank=1, node=1)

    def app():
        vec0 = yield from c0.vector("rep", dtype=np.uint8,
                                    size=N_PAGES * PAGE)
        yield from vec0.tx_begin(SeqTx(0, N_PAGES * PAGE,
                                       MM_WRITE_ONLY))
        yield from vec0.write_range(
            0, np.ones(N_PAGES * PAGE, np.uint8))
        yield from vec0.tx_end()
        yield from vec0.flush(wait=True)

        vec1 = yield from c1.vector("rep", dtype=np.uint8)
        yield from vec1.tx_begin(SeqTx(0, N_PAGES * PAGE,
                                       MM_READ_ONLY))
        out = yield from vec1.read_range(0, N_PAGES * PAGE)
        yield from vec1.tx_end()
        yield from c1.drain()
        replicated = sorted(vec1.shared.replicated_pages)

        # Phase change: a writing transaction leaves READ_ONLY and
        # must invalidate the replicas page by page.
        yield from vec1.tx_begin(SeqTx(0, PAGE, MM_WRITE_ONLY))
        yield from vec1.write_range(0, np.zeros(PAGE, np.uint8))
        yield from vec1.tx_end()
        yield from vec1.flush(wait=True)
        left = sorted(vec1.shared.replicated_pages)
        replicas = [
            system.hermes.mdm.peek("rep", p).replicas
            for p in range(N_PAGES)
            if system.hermes.mdm.peek("rep", p) is not None
        ]
        return out, replicated, left, replicas

    (res,) = run_procs(sim, app())
    return res


def test_replica_invalidation_identical_with_batching():
    out_b, replicated_b, left_b, replicas_b = _replica_workload(True)
    out_u, replicated_u, left_u, replicas_u = _replica_workload(False)
    assert np.array_equal(out_b, out_u)
    assert replicated_b == replicated_u
    assert replicated_b, "read-only phase should have replicated pages"
    assert left_b == left_u == []
    assert replicas_b == replicas_u
    assert all(r == [] for r in replicas_b)


def test_batch_orders_after_earlier_same_page_tasks(dsm):
    """A batched READ submitted after per-page WRITEs to its pages
    must observe all of them (the shard barrier keeps FIFO order)."""
    sim, system = dsm
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("ord", dtype=np.uint8,
                                       size=4 * PAGE)
        for p in range(4):
            w = MemoryTask(kind=TaskKind.WRITE, vector_name="ord",
                           page_idx=p, client_node=0,
                           fragments=[(0, bytes([p + 1]) * PAGE)])
            yield from client.submit(w, wait=False)
        reads = [MemoryTask(kind=TaskKind.READ, vector_name="ord",
                            page_idx=p, client_node=0,
                            region=(0, PAGE))
                 for p in range(4)]
        raws = yield from client.submit_batch(reads, wait=True)
        return raws

    (raws,) = run_procs(sim, app())
    for p, raw in enumerate(raws):
        assert raw == bytes([p + 1]) * PAGE


def test_tasks_after_batch_wait_for_it(dsm):
    """A per-page READ submitted after a batched WRITE to the same
    page must observe the batch (later FIFO entries wait on the
    barrier until the whole batch completed)."""
    sim, system = dsm
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("ord2", dtype=np.uint8,
                                       size=4 * PAGE)
        writes = [MemoryTask(kind=TaskKind.WRITE, vector_name="ord2",
                             page_idx=p, client_node=0,
                             fragments=[(0, bytes([0x40 + p]) * PAGE)])
                  for p in range(4)]
        yield from client.submit_batch(writes, wait=False)
        read = MemoryTask(kind=TaskKind.READ, vector_name="ord2",
                          page_idx=2, client_node=0, region=(0, 4))
        raw = yield from client.submit(read, wait=True)
        yield from client.drain()
        return raw

    (raw,) = run_procs(sim, app())
    assert raw == b"\x42\x42\x42\x42"


def test_submit_batch_groups_by_owner_and_caps_size(monkeypatch):
    monkeypatch.setattr(memtask, "BATCH_MAX_PAGES", 2)
    sim, system = build_system()
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("grp", dtype=np.uint8,
                                       size=8 * PAGE)
        owners = {}
        tasks = []
        for p in range(8):
            owners.setdefault(
                vec.shared.owner_node(p, 0), []).append(p)
            tasks.append(MemoryTask(
                kind=TaskKind.READ, vector_name="grp", page_idx=p,
                client_node=0, region=(0, PAGE)))
        raws = yield from client.submit_batch(tasks, wait=True)
        return owners, raws

    (res,) = run_procs(sim, app())
    owners, raws = res
    assert len(raws) == 8 and all(len(r) == PAGE for r in raws)
    expected_batches = sum(-(-len(ps) // 2) for ps in owners.values())
    assert system.monitor.counter("rpc.batches") == expected_batches
    assert system.monitor.counter("rpc.batched_tasks") == 8


def test_batching_disabled_uses_per_task_submits():
    sim, system = build_system(batching_enabled=False)
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("off", dtype=np.uint8,
                                       size=4 * PAGE)
        tasks = [MemoryTask(kind=TaskKind.READ, vector_name="off",
                            page_idx=p, client_node=0,
                            region=(0, PAGE))
                 for p in range(4)]
        raws = yield from client.submit_batch(tasks, wait=True)
        return raws

    (raws,) = run_procs(sim, app())
    assert len(raws) == 4
    assert system.monitor.counter("rpc.batches") == 0
    assert system.monitor.counter("rpc.submits") == 4


def test_page_read_missing_two_extents_is_one_round_trip():
    """A page fault that misses two extents of one page sends them as
    one READ batch -- one request, one reply, one round trip -- as an
    object read does; it used to send them one after the other."""
    sim, system = build_system()
    client = system.client(rank=0, node=0)
    mon = system.monitor
    data = (np.arange(4 * PAGE) % 251).astype(np.uint8)

    def app():
        vec = yield from client.vector("two", dtype=np.uint8,
                                       size=4 * PAGE)
        p, q = [pg for pg in range(4)
                if vec.shared.owner_node(pg, 0) == 1][:2]
        yield from vec.write_range(0, data)
        yield from vec.flush(wait=True)
        for page in (p, q):             # the middle of each, resident
            vec.pcache.release(vec.pcache.detach(page), dirty=False)
            yield from vec.read_range(page * PAGE + 1024, 1024)
        # One missing extent: the reference round trip.
        t0 = sim.now
        yield from vec.read_range(q * PAGE, 1024)
        one = sim.now - t0
        before = {k: mon.counter(k) for k in
                  ("rpc.batches", "rpc.submits", "net.transfers",
                   "pcache.faults")}
        t0 = sim.now
        out = yield from vec.read_range(p * PAGE, PAGE)
        two = sim.now - t0
        after = {k: mon.counter(k) - v for k, v in before.items()}
        return out, p, one, two, after

    ((out, p, one, two, after),) = run_procs(sim, app())
    assert np.array_equal(out, data[p * PAGE:(p + 1) * PAGE])
    assert after == {"rpc.batches": 1, "rpc.submits": 0,
                     "net.transfers": 2, "pcache.faults": 2}
    assert two < 1.5 * one


def test_batch_trace_categories_present():
    sim, system = build_system()
    system.tracer.enabled = True
    client = system.client(rank=0, node=1)

    def app():
        vec = yield from client.vector("tr", dtype=np.uint8,
                                       size=4 * PAGE)
        yield from vec.tx_begin(SeqTx(0, 4 * PAGE, MM_WRITE_ONLY))
        yield from vec.write_range(0, np.ones(4 * PAGE, np.uint8))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        yield from vec.tx_begin(SeqTx(0, 4 * PAGE, MM_READ_WRITE))
        yield from vec.read_range(0, 4 * PAGE)
        yield from vec.tx_end()
        yield from client.drain()

    run_procs(sim, app())
    cats = {dict(ls)["category"] for name, ls
            in system.monitor.metrics.histograms if name == "span_seconds"}
    assert "rpc.batch" in cats
    assert "scache.batch" in cats
    out = system.monitor.summary()
    assert out["trace.rpc.batch.count"] >= 1


def test_batched_nbytes_wire_model():
    # One envelope, one header per item, payload bytes verbatim.
    assert batched_nbytes([]) == ENVELOPE
    assert batched_nbytes([0, 0]) == ENVELOPE + 2 * ITEM_HEADER
    assert batched_nbytes([100, 50]) \
        == ENVELOPE + 2 * ITEM_HEADER + 150
    # A batch of n zero-payload reads is cheaper than n envelopes for
    # any n >= 2 (the whole point of vectored submission).
    assert batched_nbytes([0] * 8) < 8 * ENVELOPE


def test_batch_task_aggregates():
    tasks = [MemoryTask(kind=TaskKind.WRITE, vector_name="v",
                        page_idx=p, client_node=0,
                        fragments=[(0, b"x" * 10)])
             for p in (3, 4, 7)]
    batch = BatchTask(kind=TaskKind.WRITE, vector_name="v",
                      client_node=0, tasks=tasks)
    assert len(batch) == 3
    assert batch.nbytes == 30
    assert batch.pages == [3, 4, 7]


def test_coalesce_page_runs():
    regions = [PageRegion(p, 0, 10) for p in (0, 1, 2, 5, 6, 9)]
    runs = coalesce_page_runs(regions)
    assert [[r.page_idx for r in run] for run in runs] \
        == [[0, 1, 2], [5, 6], [9]]
    capped = coalesce_page_runs(regions, max_run=2)
    assert [[r.page_idx for r in run] for run in capped] \
        == [[0, 1], [2], [5, 6], [9]]


def test_stage_in_batched_once_per_stripe(tmp_path):
    """A batched read over a cold nonvolatile vector pays one backend
    request per stripe it touches (here: the whole file, one stripe)."""
    sim, system = build_system()
    data = np.arange(8 * PAGE, dtype=np.uint8)
    path = tmp_path / "cold.bin"
    path.write_bytes(data.tobytes())
    client = system.client(rank=0, node=0)
    url = f"posix://{path}"

    def app():
        vec = yield from client.vector(url, dtype=np.uint8)
        vec.bound_memory(8 * PAGE)
        yield from vec.tx_begin(SeqTx(0, 8 * PAGE, MM_READ_ONLY))
        out = yield from vec.read_range(0, 8 * PAGE)
        yield from vec.tx_end()
        yield from client.drain()
        return out

    (out,) = run_procs(sim, app())
    assert np.array_equal(out, data)
    # All 8 pages were staged by a single stripe read.
    assert system.monitor.counter("stager.bytes_in") == 8 * PAGE
    assert system.monitor.counter("stager.requests_in") == 1


# -- vectored metadata / data-plane primitives --------------------------------

def test_mdm_try_get_many_one_rpc_per_owner_shard(dsm):
    """A vectored lookup pays one batched RPC per *remote owner
    shard*, not one round trip per key — and caches what it found."""
    sim, system = dsm
    mdm = system.hermes.mdm
    keys = list(range(8)) + [99]  # 99 is never stored

    def app():
        for k in range(8):
            yield from system.hermes.put(0, "b", k, bytes([k]) * 8)
        before = mdm.rpcs
        out = yield from mdm.try_get_many(1, "b", keys)
        first = mdm.rpcs - before
        again = yield from mdm.try_get_many(1, "b", list(range(8)))
        second = mdm.rpcs - before - first
        return out, first, second, again

    (res,) = run_procs(sim, app())
    out, first, second, again = res
    remote_owned = [k for k in keys
                    if system.hermes.mdm.owner_of("b", k) != 1]
    assert len(remote_owned) > 1  # per-key lookups would pay >1 RPC
    assert first == 1             # one batched RPC to the other shard
    assert out[99] is None
    for k in range(8):
        assert out[k] is not None and out[k].nbytes == 8
        assert again[k] is out[k]
    assert second == 0            # found entries were cached


def test_hermes_put_many_matches_per_blob_puts(dsm):
    """put_many places blobs on their target nodes, publishes correct
    metadata, and updates same-size re-puts in place (no duplicate
    entries) — exactly as per-blob puts would."""
    sim, system = dsm
    hermes = system.hermes

    def app():
        items = [(k, bytes([k + 1]) * 16, k % 2) for k in range(4)]
        infos = yield from hermes.put_many(0, "b", items)
        raws = []
        for k, _data, _node in items:
            raws.append((yield from hermes.get(0, "b", k)))
        items2 = [(k, bytes([0xAB]) * 16, k % 2) for k in range(4)]
        infos2 = yield from hermes.put_many(0, "b", items2)
        raw0 = yield from hermes.get(0, "b", 0)
        return infos, raws, infos2, raw0

    (res,) = run_procs(sim, app())
    infos, raws, infos2, raw0 = res
    for k, raw in enumerate(raws):
        assert raw == bytes([k + 1]) * 16
        assert infos[k].node == k % 2
    # Same size + same node: the authoritative entry is reused.
    assert all(infos2[k] is infos[k] for k in range(4))
    assert raw0 == bytes([0xAB]) * 16
    assert system.monitor.counter("hermes.vectored_puts") == 2
    # Only the 4 fresh placements count; in-place updates do not.
    assert system.monitor.counter("hermes.puts") == 4


# -- property-based hardening (stdlib random, fixed seeds) --------------------

def _random_regions(rng):
    pages = sorted(rng.choices(range(48), k=rng.randint(1, 24)))
    return [PageRegion(p, rng.randrange(8), rng.randint(1, 32))
            for p in pages]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coalesce_page_runs_roundtrip_properties(seed):
    """Randomized invariants: coalescing is a pure regrouping — the
    concatenation of the runs is the input, runs are contiguous, the
    cap is honoured, and splits happen only at gaps or the cap."""
    rng = random.Random(seed)
    for _ in range(100):
        regions = _random_regions(rng)
        max_run = rng.choice([None, 1, 2, 3, 5])
        runs = coalesce_page_runs(regions, max_run=max_run)
        assert [r for run in runs for r in run] == regions
        for run in runs:
            assert run
            for a, b in zip(run, run[1:]):
                assert b.page_idx == a.page_idx + 1
            if max_run is not None:
                assert len(run) <= max_run
        for a, b in zip(runs, runs[1:]):
            gap = b[0].page_idx != a[-1].page_idx + 1
            capped = max_run is not None and len(a) == max_run
            assert gap or capped


def _payload(off, length, salt):
    return ((np.arange(off, off + length) * 31 + salt) % 251) \
        .astype(np.uint8)


def _random_scripts(rng, total, half):
    """Two per-rank op scripts over disjoint halves, plus rank-0-only
    append lengths for a second vector."""
    scripts = []
    for rank in (0, 1):
        base, ops = rank * half, []
        for _ in range(rng.randint(4, 10)):
            kind = rng.choice(("write", "write", "read", "flush"))
            if kind == "flush":
                ops.append(("flush",))
                continue
            off = rng.randrange(half - 1)
            length = rng.randint(1, half - off)
            if kind == "write":
                ops.append(("write", base + off, length,
                            rng.randrange(256)))
            else:
                ops.append(("read", base + off, length))
        scripts.append(ops)
    appends = [(rng.randint(1, half // 2), rng.randrange(256))
               for _ in range(rng.randint(1, 3))]
    return scripts, appends


def _scripted_workload(batching_enabled, page, scripts, appends):
    """Run the random scripts; returns (final contents, appended log,
    reads seen by each rank in script order)."""
    sim, system = build_system(batching_enabled=batching_enabled,
                               page_size=page)
    total = N_PAGES * page
    half = total // 2
    done = [sim.event(), sim.event()]

    def rank_proc(rank, ops):
        client = system.client(rank=rank, node=rank)
        vec = yield from client.vector("prop", dtype=np.uint8,
                                       size=total)
        seen = []
        base = rank * half
        yield from vec.tx_begin(SeqTx(base, half, MM_READ_WRITE))
        for op in ops:
            if op[0] == "write":
                _, off, length, salt = op
                yield from vec.write_range(
                    off, _payload(off, length, salt))
            elif op[0] == "read":
                _, off, length = op
                out = yield from vec.read_range(off, length)
                seen.append(bytes(out))
            else:
                yield from vec.tx_end()
                yield from vec.flush(wait=True)
                yield from vec.tx_begin(
                    SeqTx(base, half, MM_READ_WRITE))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)

        if rank == 0:
            log = yield from client.vector("prop-log",
                                           dtype=np.uint8, size=0)
            yield from log.tx_begin(SeqTx(0, 0, MM_APPEND_ONLY))
            for length, salt in appends:
                yield from log.append(_payload(0, length, salt))
            yield from log.tx_end()
            yield from log.flush(wait=True)

        done[rank].succeed()
        yield done[1 - rank]
        if rank != 0:
            return None, seen
        yield from vec.tx_begin(SeqTx(0, total, MM_READ_ONLY))
        final = yield from vec.read_range(0, total)
        yield from vec.tx_end()
        log_len = log.shared.length
        yield from log.tx_begin(SeqTx(0, log_len, MM_READ_ONLY))
        tail = yield from log.read_range(0, log_len)
        yield from log.tx_end()
        yield from client.drain()
        return (bytes(final), bytes(tail)), seen

    (r0, seen0), (_none, seen1) = run_procs(
        sim, rank_proc(0, scripts[0]), rank_proc(1, scripts[1]))
    return r0, (seen0, seen1)


@pytest.mark.parametrize("seed", [11, 23, 37])
def test_batched_equals_unbatched_under_random_interleavings(seed):
    """Bit-for-bit equivalence property: a random two-rank script of
    writes/reads/flushes over disjoint halves (plus rank-0 appends on
    a second vector) produces identical bytes with batching on and
    off, and both match a shadow-array oracle."""
    rng = random.Random(seed)
    page = rng.choice((1024, 2048, 4096))
    total = N_PAGES * page
    scripts, appends = _random_scripts(rng, total, total // 2)

    shadow = np.zeros(total, np.uint8)
    for ops in scripts:
        for op in ops:
            if op[0] == "write":
                _, off, length, salt = op
                shadow[off:off + length] = _payload(off, length, salt)
    log_oracle = np.concatenate(
        [_payload(0, length, salt) for length, salt in appends])

    (final_b, tail_b), reads_b = _scripted_workload(
        True, page, scripts, appends)
    (final_u, tail_u), reads_u = _scripted_workload(
        False, page, scripts, appends)
    assert final_b == final_u == shadow.tobytes()
    assert tail_b == tail_u == log_oracle.tobytes()
    # Every intermediate read observed the same bytes in both modes.
    assert reads_b == reads_u
