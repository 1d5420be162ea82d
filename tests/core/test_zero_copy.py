"""Zero-copy data-plane regressions (DESIGN.md "Zero-copy ownership
rules").

``bytes.copied`` counts every real payload copy the runtime performs
(frame installs, copy-on-write copies, the device copy of a writable
payload). These tests pin the copy contract: write_range copies *zero*
intermediate buffers (the frame assignment is a numpy slice store, not
a tobytes/frombuffer round trip), a flushed fragment ships as a
read-only view of the frame's own buffer, which the device stores as
it is, and a frame kept after a flush shares that buffer with the
stored blob until its next write copies it (copy-on-write). A frame a
chunk aliases under a writing transaction shares nothing: its kept
fragments are copies. Reads still observe exactly the flushed bytes
whatever the writer does to its frame or its source array afterwards.
"""

import gc
import os
import tracemalloc

import numpy as np
import pytest

from repro.apps.grayscott import GSParams, mm_gray_scott
from repro.core import MM_READ_ONLY, MM_READ_WRITE, MM_WRITE_ONLY, SeqTx
from repro.core.client import MegaMmapClient
from repro.core.pcache import Frame
from repro.pipeline import build_cluster
from tests.core.conftest import build_system, run_procs

PAGE = 4096


def _counter(system, name):
    return system.monitor.counter(name)


def _blob(system, name, page):
    """The stored bytes of a page, as a uint8 array over the blob."""
    info = system.hermes.mdm.peek(name, page)
    raw = system.dmshs[info.node].tier(info.tier).peek((name, page))
    return np.frombuffer(raw, dtype=np.uint8)


def test_write_range_allocates_no_intermediate_bytes():
    # A write lands in the pcache frame via one numpy slice assignment
    # -- the one host copy of each byte -- and the device stores the
    # frame's buffer itself: a fragment ships as a read-only view,
    # whether write-behind evicted the frame or tx_end kept it.
    sim, system = build_system()
    client = system.client(rank=0, node=0)
    payload = (np.arange(4 * PAGE) % 251).astype(np.uint8)
    out = {}

    def app():
        vec = yield from client.vector("zc", dtype=np.uint8,
                                       size=4 * PAGE)
        yield from vec.tx_begin(SeqTx(0, 4 * PAGE, MM_WRITE_ONLY))
        before = _counter(system, "bytes.copied")
        yield from vec.write_range(0, payload)
        yield from vec.tx_end()
        yield from client.drain()
        out["copied"] = _counter(system, "bytes.copied") - before
        yield from vec.tx_begin(SeqTx(0, 4 * PAGE, MM_READ_ONLY))
        out["read"] = yield from vec.read_range(0, 4 * PAGE)
        yield from vec.tx_end()

    run_procs(sim, app())
    assert out["copied"] == 0
    assert np.array_equal(out["read"], payload)


def test_write_range_detached_from_source_array():
    # The frame owns its bytes: clobbering the source array after the
    # write must not change what a later read observes.
    sim, system = build_system()
    client = system.client(rank=0, node=0)
    src = (np.arange(PAGE) % 199).astype(np.uint8)
    expect = src.copy()
    out = {}

    def app():
        vec = yield from client.vector("det", dtype=np.uint8, size=PAGE)
        yield from vec.tx_begin(SeqTx(0, PAGE, MM_WRITE_ONLY))
        yield from vec.write_range(0, src)
        yield from vec.tx_end()
        src[:] = 0  # clobber after the write returned
        yield from vec.tx_begin(SeqTx(0, PAGE, MM_READ_ONLY))
        out["read"] = yield from vec.read_range(0, PAGE)
        yield from vec.tx_end()

    run_procs(sim, app())
    assert np.array_equal(out["read"], expect)


def test_flush_snapshot_survives_later_frame_writes():
    # flush() ships the kept frame's own buffer and makes it read-only:
    # an in-place scribble on the frame raises instead of reaching the
    # shipped bytes, and a second client reads what was flushed.
    sim, system = build_system()
    c0 = system.client(rank=0, node=0)
    c1 = system.client(rank=1, node=1)
    ready = sim.event()
    first = (np.arange(PAGE) % 97).astype(np.uint8)
    out = {}

    def writer():
        vec = yield from c0.vector("snap", dtype=np.uint8, size=PAGE)
        yield from vec.tx_begin(SeqTx(0, PAGE, MM_READ_WRITE))
        yield from vec.write_range(0, first)
        yield from vec.flush(wait=True)
        for frame in vec.frames.values():
            with pytest.raises(ValueError):
                frame.data[:] = 7
        yield from vec.tx_end()
        ready.succeed()

    def reader():
        vec = yield from c1.vector("snap", dtype=np.uint8, size=PAGE)
        yield ready
        yield from vec.tx_begin(SeqTx(0, PAGE, MM_READ_WRITE))
        out["read"] = yield from vec.read_range(0, PAGE)
        yield from vec.tx_end()

    run_procs(sim, writer(), reader())
    assert np.array_equal(out["read"], first)


def test_kept_flush_shares_the_frame_buffer_with_the_blob():
    sim, system = build_system()
    client = system.client(rank=0, node=0)
    data = (np.arange(PAGE) % 89).astype(np.uint8)
    out = {}

    def app():
        vec = yield from client.vector("kept", dtype=np.uint8, size=PAGE)
        yield from vec.tx_begin(SeqTx(0, PAGE, MM_READ_WRITE))
        yield from vec.write_range(0, data)
        before = _counter(system, "bytes.copied")
        yield from vec.flush(wait=True)
        out["copied"] = _counter(system, "bytes.copied") - before
        out["frame"] = vec.frames[0]
        yield from vec.tx_end()

    run_procs(sim, app())
    (extent,) = out["frame"].bufs
    blob = _blob(system, "kept", 0)
    assert out["copied"] == 0
    assert np.shares_memory(extent, blob)
    assert not extent.flags.writeable
    assert np.array_equal(blob, data)


def test_write_after_flush_copies_and_peers_read_the_flushed_bytes():
    # The write after a flush copies the shared extent first (counted
    # in bytes.copied) and writes the copy: until the next flush, a
    # second client still reads the flushed bytes. (The writer's
    # region covers the page only partly, so nothing is written
    # behind: only the flushes ship.)
    sim, system = build_system()
    c0 = system.client(rank=0, node=0)
    c1 = system.client(rank=1, node=1)
    written, read = sim.event(), sim.event()
    first = np.full(PAGE, 1, np.uint8)
    second = np.full(PAGE // 2, 2, np.uint8)
    out = {}

    def writer():
        vec = yield from c0.vector("cow", dtype=np.uint8, size=PAGE)
        yield from vec.tx_begin(SeqTx(0, PAGE // 2, MM_READ_WRITE))
        yield from vec.write_range(0, first)
        yield from vec.flush(wait=True)
        shipped = vec.frames[0].bufs[0]
        before = _counter(system, "bytes.copied")
        yield from vec.write_range(0, second)
        out["cow"] = _counter(system, "bytes.copied") - before
        out["apart"] = not np.shares_memory(vec.frames[0].bufs[0],
                                            shipped)
        written.succeed()
        yield read
        yield from vec.flush(wait=True)
        # Half a page ships as a copy: the owner splices it into a new
        # blob, so the frame keeps its buffer private.
        out["private"] = vec.frames[0].bufs[0].flags.writeable
        yield from vec.tx_end()

    def reader():
        vec = yield from c1.vector("cow", dtype=np.uint8, size=PAGE)
        yield written
        yield from vec.tx_begin(SeqTx(0, PAGE, MM_READ_ONLY))
        out["read"] = yield from vec.read_range(0, PAGE)
        yield from vec.tx_end()
        read.succeed()

    run_procs(sim, writer(), reader())
    assert out["cow"] == PAGE and out["apart"] and out["private"]
    assert np.array_equal(out["read"], first)
    assert np.array_equal(_blob(system, "cow", 0),
                          np.concatenate([second, first[PAGE // 2:]]))


def test_chunk_cut_under_a_writing_transaction_is_copied_at_flush():
    # A chunk writes its frame's buffer directly, past copy-on-write:
    # the flush ships a copy, and the chunk's later writes never reach
    # the stored blob.
    sim, system = build_system()
    client = system.client(rank=0, node=0)
    out = {}

    def app():
        vec = yield from client.vector("lent", dtype=np.uint8, size=PAGE)
        yield from vec.tx_begin(SeqTx(0, PAGE, MM_READ_WRITE))
        chunk = yield from vec.next_chunk()
        chunk.data[:] = 5
        before = _counter(system, "bytes.copied")
        yield from vec.flush(wait=True)
        out["copied"] = _counter(system, "bytes.copied") - before
        chunk.data[:] = 9
        out["frame"] = vec.frames[0]
        yield from vec.tx_end()

    run_procs(sim, app())
    (extent,) = out["frame"].bufs
    blob = _blob(system, "lent", 0)
    assert out["copied"] == PAGE
    assert extent.flags.writeable and not np.shares_memory(extent, blob)
    assert (blob == 5).all()


def test_shared_extent_is_copied_before_span_or_patch_writes():
    copies = []

    class Counter:
        def inc(self, n):
            copies.append(n)

    frame = Frame(Counter())
    frame.span(0, 100)[0][:] = 1
    shared = frame.share(10, 20)
    assert not shared.flags.writeable
    assert np.shares_memory(shared, frame.bufs[0])
    view, grew = frame.span(0, 50)
    assert grew == 0 and view.flags.writeable
    assert not np.shares_memory(view, shared)
    view[:] = 2
    again = frame.share(0, 100)
    frame.patch(5, np.full(10, 3, np.uint8))
    assert (shared == 1).all() and (again[:50] == 2).all()
    assert frame.read(5, 15).tolist() == [3] * 10
    assert copies == [100, 100]


def test_gray_scott_frames_and_blobs_hold_each_page_about_once(
        tmp_path, monkeypatch):
    """Host memory of a checkpointed Gray-Scott, with its vector
    handles kept alive: the buffers the pcache, the flush and the
    devices allocated and still hold come to about one copy of each
    page a frame or a blob holds. Shaped like the benchmark's
    ``grayscott_ckpt`` (16 planes a rank, two planes a page). Kept
    frames share their flushed pages with the blobs; what is left over
    is the ghost planes a rank reads into private frames. (With a
    private copy in every kept frame the ratio was ~1.65.)"""
    monkeypatch.chdir(tmp_path)
    handles = []
    vector = MegaMmapClient.vector

    def keep(self, *args, **kwargs):
        vec = yield from vector(self, *args, **kwargs)
        handles.append(vec)
        return vec

    monkeypatch.setattr(MegaMmapClient, "vector", keep)
    cluster = build_cluster(dict(n_nodes=2, procs_per_node=1, dram_mb=8,
                                 nvme_mb=32, page_size=16 * 1024))
    sites = tuple(os.path.join("repro", *parts) for parts in (
        ("core", "pcache.py"), ("core", "vector.py"),
        ("storage", "device.py")))
    tracemalloc.start()
    try:
        cluster.run(mm_gray_scott, 32, 3, 1, None, GSParams(),
                    "posix://ck", True)
        gc.collect()
        snap = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(t.size for t in snap.traces
               if t.traceback[0].filename.endswith(sites))
    pages = {(vec.shared.name, p): vec.shared.page_nbytes(p)
             for vec in handles for p in vec.frames}
    for dmsh in cluster.system.dmshs:
        for dev in dmsh.tiers:
            pages.update((key, len(dev.peek(key))) for key in dev.keys())
    assert held <= 1.15 * sum(pages.values())


def test_copy_boundaries_are_counted():
    # A cross-node round trip pays copies only at the documented
    # boundaries: flush fragments + blob persist on the write side,
    # frame install on the read side. The counter tracks real bytes —
    # it scales with payload, not page count alone.
    copied = {}
    for nbytes in (PAGE, 4 * PAGE):
        sim, system = build_system()
        c0 = system.client(rank=0, node=0)
        c1 = system.client(rank=1, node=1)
        ready = sim.event()

        def writer(nbytes=nbytes):
            vec = yield from c0.vector("cnt", dtype=np.uint8,
                                       size=nbytes)
            yield from vec.tx_begin(SeqTx(0, nbytes, MM_WRITE_ONLY))
            yield from vec.write_range(
                0, (np.arange(nbytes) % 251).astype(np.uint8))
            yield from vec.tx_end()
            yield from vec.flush(wait=True)
            ready.succeed()

        def reader(nbytes=nbytes):
            vec = yield from c1.vector("cnt", dtype=np.uint8,
                                       size=nbytes)
            yield ready
            yield from vec.tx_begin(SeqTx(0, nbytes, MM_READ_WRITE))
            out = yield from vec.read_range(0, nbytes)
            yield from vec.tx_end()
            return out

        _, out = run_procs(sim, writer(), reader())
        assert np.array_equal(
            out, (np.arange(nbytes) % 251).astype(np.uint8))
        copied[nbytes] = _counter(system, "bytes.copied")
    # Copies scale with the payload (each boundary copies each byte a
    # bounded number of times), and stay within a small constant of it.
    assert copied[PAGE] >= PAGE          # the boundaries really count
    assert copied[4 * PAGE] >= 3 * copied[PAGE]
    assert copied[4 * PAGE] <= 6 * 4 * PAGE
