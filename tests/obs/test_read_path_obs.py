"""Causal edges of the client's one read path.

A page fault, a chunk fault and an object read are the same extent
read (``Vector._read_regions``): each settles a frame whose read-ahead
fill is still in flight before deciding what it holds, and names that
fill as ``wait_on`` on its own span, so the critical path can follow
the read into the prefetch it waited for.
"""

import numpy as np

from repro.core import MM_READ_ONLY, SeqTx
from tests.core.conftest import build_system, run_procs

PAGE = 4096


def _read_behind_a_fill(read):
    """Start a read-ahead fill of page 1 under a read transaction,
    then ``read(vec)`` while it is in flight; returns the tracer's
    spans and the fill's span id."""
    sim, system = build_system(object_threshold_bytes=256)
    system.tracer.enabled = True
    client = system.client(rank=0, node=0)
    data = (np.arange(4 * PAGE) % 251).astype(np.uint8)

    def app():
        vec = yield from client.vector("w", dtype=np.uint8,
                                       size=4 * PAGE)
        yield from vec.write_range(0, data)
        yield from vec.flush(wait=True)
        for page in list(vec.frames):
            vec.pcache.release(vec.pcache.detach(page), dirty=False)
        yield from vec.tx_begin(SeqTx(0, 4 * PAGE, MM_READ_ONLY))
        vec.prefetch_page(1)
        frame = vec.frames[1]
        assert frame.pending is not None and not frame.pending.processed
        out = yield from read(vec)
        assert frame.pending is None        # the read waited it out
        yield from vec.tx_end()
        return out, frame.pending_span

    ((out, fill),) = run_procs(sim, app())
    assert np.array_equal(out, data[PAGE + 8:PAGE + 72])
    spans = {s.span_id: s for s in system.tracer.spans}
    assert spans[fill].category == "pcache"
    assert spans[fill].name.startswith("prefetch")
    return system.tracer.spans, fill


def test_object_read_blocked_on_a_fill_names_it():
    def read(vec):
        return (yield from vec.read_objects([(PAGE + 8, 64)]))[0]

    spans, fill = _read_behind_a_fill(read)
    (sp,) = [s for s in spans if s.name == "read_objects"]
    assert sp.attrs.get("wait_on") == [fill]


def test_page_read_blocked_on_a_fill_names_it():
    def read(vec):
        return (yield from vec.read_range(PAGE + 8, 64))

    spans, fill = _read_behind_a_fill(read)
    fault = [s for s in spans if s.name == "fault"
             and s.attrs.get("page") == 1][-1]   # after write-allocate
    assert fault.attrs.get("wait_on") == [fill]
