"""Focused unit tests for Vector internals: partial paging, frames,
spans, the last-page fast path, and invalidation semantics."""

import numpy as np
import pytest

from repro.core import (
    MM_READ_ONLY,
    MM_READ_WRITE,
    MM_WRITE_ONLY,
    SeqTx,
    StrideTx,
    VectorError,
)
from repro.core.intervals import IntervalSet
from tests.core.conftest import build_system, run_procs

PAGE = 4096  # fixture page size (bytes)


def make_vec(sim, system, name="v", dtype=np.int32, size=4096):
    client = system.client(rank=0, node=0)
    holder = {}

    def app():
        holder["vec"] = yield from client.vector(name, dtype=dtype,
                                                 size=size)

    run_procs(sim, app())
    return holder["vec"], client


def test_page_spans_cover_range_exactly(dsm):
    sim, system = dsm
    vec, _ = make_vec(sim, system)
    spans = list(vec._page_spans(1000, 500))
    # 1024 int32/page: 1000..1023 in page 0, 1024..1499 in page 1.
    assert spans == [(0, 1000, 24, 0), (1, 0, 476, 24)]
    assert sum(n for _, _, n, _ in spans) == 500


def test_partial_page_fault_fetches_only_missing_bytes(dsm):
    """Partial paging (III-C): a small read moves a fragment, not the
    page."""
    sim, system = dsm
    c0 = system.client(rank=0, node=0)
    c1 = system.client(rank=1, node=1)
    ready = sim.event()

    def writer():
        vec = yield from c0.vector("p", dtype=np.uint8, size=PAGE)
        yield from vec.tx_begin(SeqTx(0, PAGE, MM_WRITE_ONLY))
        yield from vec.write_range(0, np.arange(PAGE) % 251)
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        ready.succeed()

    def reader():
        vec = yield from c1.vector("p", dtype=np.uint8, size=PAGE)
        yield ready
        before = system.network.bytes_moved
        # Use READ_WRITE so the read-only replication fast path (which
        # moves whole pages by design) is not taken.
        yield from vec.tx_begin(SeqTx(0, PAGE, MM_READ_WRITE))
        out = yield from vec.read_range(100, 16)
        yield from vec.tx_end()
        moved = system.network.bytes_moved - before
        return out, moved

    _, (out, moved) = run_procs(sim, writer(), reader())
    assert np.array_equal(out, (np.arange(100, 116) % 251))
    # Task envelope + fragment + metadata: far below one page.
    assert moved < PAGE


def test_frame_valid_intervals_accumulate(dsm):
    sim, system = dsm
    vec, client = make_vec(sim, system, dtype=np.uint8, size=PAGE)

    def app():
        yield from vec.tx_begin(SeqTx(0, PAGE, MM_READ_WRITE))
        yield from vec.read_range(0, 10)
        frame = vec.frames[0]
        v1 = frame.valid.total
        yield from vec.read_range(2000, 50)
        v2 = frame.valid.total
        yield from vec.tx_end()
        return v1, v2

    ((v1, v2),) = run_procs(sim, app())
    assert v1 == 10
    assert v2 == 60  # disjoint fragments both valid, nothing else


def test_write_marks_exact_dirty_bytes(dsm):
    sim, system = dsm
    vec, client = make_vec(sim, system, dtype=np.int32, size=2048)

    def app():
        yield from vec.tx_begin(SeqTx(0, 2048, MM_READ_WRITE))
        yield from vec.set(3, 7)
        yield from vec.set(100, 9)
        frame = vec.frames[0]
        return list(frame.dirty)

    (dirty,) = run_procs(sim, app())
    assert dirty == [(12, 16), (400, 404)]


def test_last_page_fast_path_hits(dsm):
    sim, system = dsm
    vec, client = make_vec(sim, system, dtype=np.int32, size=4096)

    def app():
        yield from vec.tx_begin(SeqTx(0, 4096, MM_READ_WRITE))
        yield from vec.set(0, 1)
        ops0 = vec.index_ops
        for i in range(1, 20):
            yield from vec.set(i, i)  # all in the cached last page
        return vec.index_ops - ops0

    (extra,) = run_procs(sim, app())
    # Exactly 2 ops per lookup, one lookup per access.
    assert extra == 2 * 19
    assert vec.pcache.last_page[0] == 0


def test_evict_clean_page_no_write_task(dsm):
    sim, system = dsm
    vec, client = make_vec(sim, system, dtype=np.int32, size=1024)

    def app():
        yield from vec.tx_begin(SeqTx(0, 1024, MM_READ_ONLY))
        yield from vec.read_range(0, 10)
        before = system.monitor.counter("scache.writes")
        yield from vec.evict_page(0)
        yield from client.drain()
        return system.monitor.counter("scache.writes") - before

    (writes,) = run_procs(sim, app())
    assert writes == 0
    assert not vec.frames


def test_invalidate_range_drops_only_overlapping_frames(dsm):
    sim, system = dsm
    vec, client = make_vec(sim, system, dtype=np.int32, size=4096)

    def app():
        yield from vec.tx_begin(SeqTx(0, 4096, MM_READ_WRITE))
        yield from vec.read_range(0, 1)        # page 0
        yield from vec.read_range(1024, 1)     # page 1
        yield from vec.read_range(2048, 1)     # page 2
        yield from vec.invalidate_range(1024, 1024)  # page 1 only
        return sorted(vec.frames)

    (pages,) = run_procs(sim, app())
    assert pages == [0, 2]


def test_bound_memory_below_page_rejected(dsm):
    sim, system = dsm
    vec, _ = make_vec(sim, system)
    with pytest.raises(VectorError):
        vec.bound_memory(100)


def test_pgas_requires_call_before_local_off(dsm):
    sim, system = dsm
    vec, _ = make_vec(sim, system)
    with pytest.raises(VectorError):
        vec.local_off()
    with pytest.raises(VectorError):
        vec.pgas(5, 2)


def test_pgas_partitions_cover_everything(dsm):
    sim, system = dsm
    vec, _ = make_vec(sim, system, size=1000)
    seen = []
    for rank in range(7):
        vec.pgas(rank, 7)
        seen.append((vec.local_off(), vec.local_size()))
    total = sum(n for _, n in seen)
    assert total == 1000
    # Contiguous, ordered, non-overlapping.
    pos = 0
    for off, n in seen:
        assert off == pos
        pos += n


def test_stride_tx_element_access_faults_fragments(dsm):
    sim, system = dsm
    c0 = system.client(rank=0, node=0)

    def app():
        vec = yield from c0.vector("s", dtype=np.float64, size=8192)
        yield from vec.tx_begin(SeqTx(0, 8192, MM_WRITE_ONLY))
        yield from vec.write_range(
            0, np.arange(8192, dtype=np.float64))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        for p in list(vec.frames):
            yield from vec.evict_page(p)
        yield from c0.drain()
        yield from vec.tx_begin(
            StrideTx(0, 16, 512, MM_READ_WRITE))
        total = 0.0
        for i in range(16):
            v = yield from vec.get(i * 512)
            total += float(v)
        yield from vec.tx_end()
        return total

    (total,) = run_procs(sim, app())
    assert total == sum(i * 512 for i in range(16))


def test_frame_growth_preserves_intervals(dsm):
    sim, system = dsm
    c0 = system.client(rank=0, node=0)

    def app():
        vec = yield from c0.vector("g", dtype=np.int64, size=0)
        yield from vec.tx_begin(SeqTx(0, 0, MM_READ_WRITE))
        yield from vec.append(np.asarray([11], dtype=np.int64))
        frame_before = vec.frames[0]
        yield from vec.append(np.asarray([22, 33], dtype=np.int64))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        yield from vec.tx_begin(SeqTx(0, 3, MM_READ_ONLY))
        out = yield from vec.read_range(0, 3)
        yield from vec.tx_end()
        return out

    (out,) = run_procs(sim, app())
    assert list(out) == [11, 22, 33]


def test_chunk_aliases_cache_until_eviction(dsm):
    sim, system = dsm
    c0 = system.client(rank=0, node=0)

    def app():
        vec = yield from c0.vector("a", dtype=np.int32, size=1024)
        yield from vec.tx_begin(SeqTx(0, 1024, MM_WRITE_ONLY))
        chunk = yield from vec.next_chunk()
        chunk.data[:] = 5
        # The frame sees the mutation (aliasing, not a copy).
        frame = vec.frames[0]
        got = frame.read(0, 4).view(np.int32)[0]
        yield from vec.tx_end()
        return int(got)

    (got,) = run_procs(sim, app())
    assert got == 5


def test_chunk_aliases_its_extent_until_a_write_merges_extents(dsm):
    """A chunk's ``data`` is the frame extent it was cut from; a
    ``write_range`` across an extent boundary of that frame merges the
    extents into a new buffer (``Frame.span``), and the chunk keeps
    the old one: from then on it is a detached copy."""
    sim, system = dsm
    c0 = system.client(rank=0, node=0)

    def app():
        vec = yield from c0.vector("x", dtype=np.uint8, size=PAGE)
        yield from vec.tx_begin(SeqTx(0, PAGE, MM_WRITE_ONLY))
        chunk = yield from vec.next_chunk(max_elems=1024)
        frame = vec.frames[0]
        chunk.data[:] = 7
        # A second extent that does not touch the chunk's: still aliased.
        yield from vec.write_range(2048, np.full(1024, 1, np.uint8))
        assert frame.starts == [0, 2048]
        assert np.shares_memory(chunk.data, frame.bufs[0])
        assert (frame.read(0, 1024) == 7).all()
        chunk.data[0] = 8
        assert frame.read(0, 1)[0] == 8
        # Across both boundaries: one merged extent, the chunk detached.
        yield from vec.write_range(512, np.full(2048, 2, np.uint8))
        assert frame.starts == [0] and len(frame.bufs[0]) == 3072
        assert not np.shares_memory(chunk.data, frame.bufs[0])
        chunk.data[1] = 9
        got = frame.read(0, 1024).copy()
        yield from vec.tx_end()
        return got, chunk.data.copy()

    ((frame_bytes, chunk_bytes),) = run_procs(sim, app())
    # The merge copied what the chunk had written before it...
    assert frame_bytes[0] == 8 and (frame_bytes[1:512] == 7).all()
    # ...but neither side sees the other's later writes.
    assert (frame_bytes[512:] == 2).all() and chunk_bytes[1] == 9
    assert (chunk_bytes[512:] == 7).all()
