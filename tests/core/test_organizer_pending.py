"""Regression test: DataOrganizer._pending must stay bounded.

Pre-fix, scores for pages that never materialize (speculative
prefetcher scores past the end of a stream) sat in ``_pending``
forever — every sweep re-walked them and the dict grew without bound
over a long run. Entries older than ``SCORE_WINDOW`` must age out.
"""

import numpy as np

from repro.core import MM_WRITE_ONLY, SeqTx
from repro.core.organizer import SCORE_WINDOW
from tests.core.conftest import build_system, run_procs


def test_pending_bounded_for_never_materializing_pages():
    sim, system = build_system(prefetch_enabled=False)
    org = system.organizer
    client = system.client(rank=0, node=0)
    window = SCORE_WINDOW
    rounds = 60

    def app():
        vec = yield from client.vector("v", dtype=np.uint8,
                                       size=rounds * 4096)
        max_pending = 0
        for i in range(rounds):
            # A fresh page each round; none is ever written, so no
            # blob materializes and the sweep can never place it.
            org.ingest(vec.shared, [(i, 0.5, 0)])
            yield sim.timeout(window / 4)
            yield from org.sweep(0)
            max_pending = max(max_pending, len(org._pending))
        # Only entries younger than the window survive a sweep: the
        # dict tracks the window, not the run (pre-fix it reached
        # `rounds` here).
        assert max_pending <= int(window / (window / 4)) + 2, max_pending
        yield sim.timeout(2 * window)
        yield from org.sweep(0)
        return len(org._pending)

    (left,) = run_procs(sim, app())
    assert left == 0
    assert system.monitor.counter("organizer.expired") > 0


def test_fresh_scores_for_materialized_pages_still_apply():
    """Aging must not eat scores the sweep can act on right now."""
    sim, system = build_system(prefetch_enabled=False)
    org = system.organizer
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("m", dtype=np.uint8, size=4096)
        yield from vec.tx_begin(SeqTx(0, 4096, MM_WRITE_ONLY))
        yield from vec.write_range(0, np.zeros(4096, dtype=np.uint8))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)      # page 0 materializes
        org.ingest(vec.shared, [(0, 1.0, 0)])
        assert ("m", 0) in org._pending
        yield from org.sweep(0)              # fresh: swept, not expired
        return ("m", 0) in org._pending

    (still_pending,) = run_procs(sim, app())
    assert not still_pending


def test_a_hot_page_on_a_full_fast_tier_stays_there():
    """A score-1.0 page already in a full DRAM tier maps to DRAM: its
    own tier fits it, so the sweep leaves it where it is instead of
    moving it down for want of room beside itself."""
    sim, system = build_system(prefetch_enabled=False)
    org = system.organizer
    client = system.client(rank=0, node=0)
    dram = system.dmshs[0].tier("dram")

    def app():
        vec = yield from client.vector("h", dtype=np.uint8, size=4096)
        yield from vec.tx_begin(SeqTx(0, 4096, MM_WRITE_ONLY))
        yield from vec.write_range(0, np.ones(4096, dtype=np.uint8))
        yield from vec.tx_end()
        yield from vec.flush(wait=True)
        info = system.hermes.mdm.peek("h", 0)
        assert (info.node, info.tier) == (0, "dram")
        dram.reserve(dram.free)
        org.ingest(vec.shared, [(0, 1.0, 0)])
        yield from org.sweep(0)
        return info.tier

    (tier,) = run_procs(sim, app())
    assert tier == "dram"
    assert system.monitor.counter("hermes.moves") == 0
