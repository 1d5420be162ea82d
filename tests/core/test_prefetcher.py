"""Direct unit tests of Algorithm 1 (the prefetcher's scoring)."""

import numpy as np
import pytest

from repro.core import MM_READ_ONLY, MM_WRITE_ONLY, RandTx, SeqTx
from repro.core.coherence import CoherencePolicy
from repro.core.prefetcher import MIN_SCORE
from tests.core.conftest import build_system, run_procs

PAGE = 4096
EPP = PAGE // 4  # int32 elements per page


def _vector_with_tx(sim, system, size, budget_pages, tx):
    client = system.client(rank=0, node=0)
    holder = {}

    def app():
        vec = yield from client.vector("v", dtype=np.int32, size=size)
        vec.bound_memory(budget_pages * PAGE)
        tx.bind(vec)
        vec.tx = tx
        holder["vec"] = vec

    run_procs(sim, app())
    return holder["vec"]


def test_evict_scores_zero_for_touched_one_for_upcoming(dsm):
    sim, system = dsm
    tx = SeqTx(0, 16 * EPP, MM_READ_ONLY)
    vec = _vector_with_tx(sim, system, 16 * EPP, budget_pages=4, tx=tx)
    tx.advance(2 * EPP)  # pages 0-1 touched
    scores = vec.prefetcher._evict_scores(tx)
    assert scores[0] == 0.0 and scores[1] == 0.0
    # The next pcache-window pages (2..5 for a 4-page budget) get 1.0.
    for p in (2, 3, 4, 5):
        assert scores[p] == 1.0


def test_write_only_stream_scores_only_what_it_touched(dsm):
    """The prefetch half predicts reads. A stream without a READ bit
    ships its evict scores and nothing about the pages ahead — they
    will be overwritten whole, and a 1 with this node's hint would have
    the organizer haul each of them here once written. A page it is
    still in the middle of keeps its 1 (not evicted)."""
    sim, system = dsm
    tx = SeqTx(0, 16 * EPP, MM_WRITE_ONLY)
    vec = _vector_with_tx(sim, system, 16 * EPP, budget_pages=4, tx=tx)
    tx.advance(2 * EPP + EPP // 2)  # pages 0-1 passed, page 2 half done
    assert vec.prefetcher._evict_scores(tx) == {0: 0.0, 1: 0.0, 2: 1.0}
    shipped = []
    system.organizer.ingest = lambda _vec, scores: shipped.extend(scores)

    def app():
        yield from vec.prefetcher.on_advance(tx)
        yield from vec.client.drain()

    run_procs(sim, app())
    assert sorted(shipped) == [(0, 0.0, 0), (1, 0.0, 0), (2, 1.0, 0)]
    # The same stream with a READ bit is scored ahead, as before.
    rw = SeqTx(0, 16 * EPP, MM_READ_ONLY | MM_WRITE_ONLY)
    rw.bind(vec)
    rw.advance(2 * EPP + EPP // 2)
    ahead = vec.prefetcher._evict_scores(rw)
    assert [ahead[p] for p in (3, 4, 5)] == [1.0, 1.0, 1.0]
    assert max(vec.prefetcher._prefetch_scores(rw)) > 5


def test_rand_tx_retouched_pages_not_evicted(dsm):
    """Algorithm 1's note: 'The scores between Tx.Head and Tx.Tail may
    not be 0 if a page is expected to be retouched.'"""
    sim, system = dsm
    tx = RandTx(0, 8 * EPP, seed=3, flags=MM_READ_ONLY)
    vec = _vector_with_tx(sim, system, 8 * EPP, budget_pages=8, tx=tx)
    tx.advance(EPP // 2)  # half a page into the first visited page
    scores = vec.prefetcher._evict_scores(tx)
    first_page = tx.get_pages(0, 1)[0].page_idx
    # The page is mid-visit: the future window revisits it -> score 1.
    assert scores[first_page] == 1.0


def test_horizon_scores_decay_below_min_score(dsm):
    sim, system = dsm
    tx = SeqTx(0, 64 * EPP, MM_READ_ONLY)
    vec = _vector_with_tx(sim, system, 64 * EPP, budget_pages=2, tx=tx)
    scores = vec.prefetcher._prefetch_scores(tx)
    min_score = MIN_SCORE
    vals = [v for v in scores.values() if v < 1.0]
    assert vals, "expected a scored horizon beyond the free window"
    # Decaying, bounded sequence: all in (min_score_epsilon, 1).
    assert all(0.0 < v <= 1.0 for v in vals)
    assert min(vals) <= max(min_score * 1.5, 0.5)


def test_scores_propagate_node_id(dsm):
    sim, system = dsm
    captured = []
    orig = system.organizer.ingest

    def spy(vec, scores):
        captured.extend(scores)
        return orig(vec, scores)

    system.organizer.ingest = spy
    client = system.client(rank=0, node=1)

    def app():
        vec = yield from client.vector("w", dtype=np.int32,
                                       size=8 * EPP)
        vec.bound_memory(2 * PAGE)
        yield from vec.tx_begin(SeqTx(0, 8 * EPP, MM_READ_ONLY))
        while True:
            chunk = yield from vec.next_chunk()
            if chunk is None:
                break
        yield from vec.tx_end()
        yield from client.drain()
        yield sim.timeout(0.2)

    run_procs(sim, app())
    assert captured
    assert all(hint == 1 for _page, _score, hint in captured)


def test_prefetcher_acknowledges_head(dsm):
    sim, system = dsm
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("v", dtype=np.int32,
                                       size=8 * EPP)
        tx = yield from vec.tx_begin(SeqTx(0, 8 * EPP, MM_READ_ONLY))
        c = yield from vec.next_chunk()
        c = yield from vec.next_chunk()
        # After the second chunk's acknowledgment ran, head caught up
        # to the first chunk's tail.
        assert tx.head >= EPP
        yield from vec.tx_end()

    run_procs(sim, app())


def test_read_ahead_bounded_by_free_budget_not_total(dsm):
    """Regression: ``_evict_scores`` sizes its retouch window from the
    *total* pcache budget; those score-1 pages max-merged into the
    apply step, which prefetched every one of them — consuming the
    space the evictions just freed for the synchronous access stream.
    Read-ahead must be bounded by the bytes actually free before the
    evictions run."""
    sim, system = dsm
    tx = SeqTx(0, 16 * EPP, MM_READ_ONLY)
    vec = _vector_with_tx(sim, system, 16 * EPP, budget_pages=4, tx=tx)

    def app():
        # Pages 0 and 1 resident (just touched) -> 2 of 4 budget pages
        # free when the acknowledgment fires.
        yield from vec.read_range(0, 2 * EPP)
        tx.advance(2 * EPP)
        yield from vec.prefetcher.on_advance(tx)
        return set(vec.frames)

    (resident,) = run_procs(sim, app())
    # Old behaviour admitted the whole retouch window {2, 3, 4, 5}
    # (4 pages — a full budget) because the evictions of 0 and 1 freed
    # space mid-apply. Only the 2 actually-free pages may be admitted.
    assert resident == {2, 3}


def test_read_ahead_bound_holds_when_passed_pages_stay_cold(dsm):
    """The same bound under a read-only-global phase, where the pages
    just passed are kept cold instead of evicted: their bytes are free
    to the next round, not to this one's read-ahead."""
    sim, system = dsm
    tx = SeqTx(0, 16 * EPP, MM_READ_ONLY)
    vec = _vector_with_tx(sim, system, 16 * EPP, budget_pages=4, tx=tx)
    vec.shared.policy = CoherencePolicy.READ_ONLY_GLOBAL

    def app():
        yield from vec.read_range(0, 2 * EPP)
        tx.advance(2 * EPP)
        yield from vec.prefetcher.on_advance(tx)
        return set(vec.frames), set(vec.pcache.cold)

    ((resident, cold),) = run_procs(sim, app())
    assert (resident, cold) == ({0, 1, 2, 3}, {0, 1})


def test_disabled_prefetcher_still_acknowledges():
    sim, system = build_system(prefetch_enabled=False)
    client = system.client(rank=0, node=0)

    def app():
        vec = yield from client.vector("v", dtype=np.int32,
                                       size=4 * EPP)
        tx = yield from vec.tx_begin(SeqTx(0, 4 * EPP, MM_READ_ONLY))
        while True:
            chunk = yield from vec.next_chunk()
            if chunk is None:
                break
        assert tx.head == tx.tail == tx.count
        yield from vec.tx_end()

    run_procs(sim, app())
