"""Spans of a fan-out on a traced object-path serving run.

A call with several peers sends each peer's messages from a process
of its own (``fan-out ->N`` tracks, :func:`repro.net.fan_out`). Those
spans must hang off the span that waits for them -- no new roots on
the span graph -- and the critical path must book a query's wait for
its remote owners to the request and the wire (``rpc.batch`` /
``net`` and the runtime spans they cause), not to ``read_objects``
itself.
"""

from benchmarks.common import testbed
from repro.apps.serving import mm_serving
from repro.obs.graph import SpanGraph


def _traced_serving_run():
    cluster = testbed(n_nodes=4, procs_per_node=1, page_size=64 * 1024,
                      object_threshold_bytes=4096, trace=True)
    # 4096 keys of 64 B, 24 queries of 8 lookups per rank, zipf 1.2,
    # read-only, 5000 q/s offered per rank.
    cluster.run(mm_serving, 4096, 64, 24, 8, 1.2, 0.0, 5000.0, "object")
    return SpanGraph.from_tracer(cluster.tracer)


def test_fan_out_spans_hang_off_their_waiter():
    graph = _traced_serving_run()
    fanned = [s for s in graph.spans if s.track.startswith("fan-out")]
    assert fanned, "no call of the run had more than one peer"
    assert {s.category for s in fanned} >= {"net", "rpc.batch"}
    assert not [s for s in graph.roots() if s.track.startswith("fan-out")]
    for s in fanned:
        if s.parent_id is not None:
            continue        # nested in a send of the same process
        waiter = graph.by_id.get(s.cause)
        assert waiter is not None, s
        assert not waiter.track.startswith("fan-out")
        # The waiter is open for the whole send: it covers the wait.
        assert waiter.start <= s.start and s.end <= waiter.end, (waiter, s)


def test_critical_path_books_the_query_wait_to_the_request():
    graph = _traced_serving_run()
    reads = [s for s in graph.spans if s.name == "read_objects"]
    booked = {}
    for t0, t1, owner in graph.critical_path():
        if owner is None or owner.category == "serving":
            continue        # the query span overlaps its own reads
        for s in reads:
            lo, hi = max(t0, s.start), min(t1, s.end)
            if hi > lo:
                booked[owner.category] = \
                    booked.get(owner.category, 0.0) + hi - lo
    total = sum(booked.values())
    assert total > 0
    # Before waited calls spanned their wait, ~18 % of it was booked
    # to ``read_objects`` (category ``object``) as an unexplained gap.
    assert booked.get("object", 0.0) <= 0.01 * total, booked
    assert booked.get("net", 0.0) + booked.get("rpc.batch", 0.0) \
        >= 0.8 * total, booked
