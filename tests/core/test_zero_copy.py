"""Zero-copy data-plane regressions (DESIGN.md "Kernel fast paths").

``bytes.copied`` counts every real payload copy the runtime performs
(frame installs, persist-boundary copies, flush fragments). These
tests pin the copy inventory: write_range copies *zero* intermediate
buffers (the frame assignment is a numpy slice store, not a
tobytes/frombuffer round trip), evicted fragments ship as views
without corrupting data, and reads still observe exactly the written
bytes after the source array is clobbered.
"""

import numpy as np
import pytest

from repro.core import MM_READ_ONLY, MM_READ_WRITE, MM_WRITE_ONLY, SeqTx
from tests.core.conftest import build_system, run_procs

PAGE = 4096


def _counter(system, name):
    return system.monitor.counter(name)


def test_write_range_allocates_no_intermediate_bytes():
    # A write lands in the pcache frame via one numpy slice assignment,
    # and each byte then crosses exactly one copy boundary on its way
    # to the scache. Write-behind moves *when* that copy happens (pages
    # the stream has passed ship during the write, not at tx_end), so
    # the pinned quantity is the total over write + tx_end + drain.
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
    assert out["copied"] == 4 * PAGE
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
    # flush() is a MUST-copy boundary: the frame stays app-writable, so
    # the shipped fragments must be snapshots. Overwrite the frame
    # right after flush returns and check the persisted bytes via a
    # second client.
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
        # The resident frame is still writable; scribble on it without
        # marking dirty — persisted data must not see this.
        for frame in vec.frames.values():
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
