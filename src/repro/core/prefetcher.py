"""The private-cache prefetcher — Algorithm 1 of the paper.

Runs client-side whenever a transaction's ``tail`` advances across a
page boundary (an *acknowledgment point*):

1. **Evict** — pages touched since the last acknowledgment
   (``Tx[Head, Tail)``) are scored 0 and evicted from the pcache,
   unless the next pcache-full window (``Tx[Tail, Tail+N)``) will
   retouch them (scored 1). Under a read-only-global phase a clean
   0-scored frame is not evicted but made *cold* (``PCache.cool``):
   nobody writes in the phase, so it stays valid, and it is the first
   frame taken back when room is needed. The budget evicts; the score
   only says what goes first.
2. **Prefetch** — future pages that fit in the remaining pcache budget
   are scored 1 (and asynchronously pulled into the pcache); pages
   beyond that are scored by time-to-fault: ``Score =
   BaseTime/EstTime``, stopping below ``MinScore``.

Transcription fix (documented in DESIGN.md): the paper's pseudocode
line 29 prints ``Score = EstTime/BaseTime``, which grows without bound
and never terminates its ``while Score > MinScore`` loop; the prose
defines the score as "a number between 0 and 1 ... proportional to the
minimum amount of time before a page fault could occur", which is the
decaying ratio implemented here.

All scores carry the scoring node's id so the Data Organizer can
honour locality (III-D).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core import memtask
from repro.core.transaction import (
    Transaction,
    TxFlags,
    coalesce_page_runs,
)

#: Algorithm 1's ``MinScore``: the horizon is scored until a page's
#: score decays to this.
MIN_SCORE = 0.25


class Prefetcher:
    """Bound to one client-side :class:`~repro.core.vector.Vector`."""

    def __init__(self, vector):
        self.vector = vector

    def on_advance(self, tx: Transaction):
        """The PREFETCHER function of Algorithm 1. Generator."""
        vec = self.vector
        if not vec.client.system.config.prefetch_enabled:
            tx.head = tx.tail
            return
        scores = self._evict_scores(tx)
        # The prefetch half predicts *reads*: without a READ bit the
        # pages ahead will be overwritten whole, and a 1 with this
        # node's hint would only make the organizer haul each finished
        # page back to its writer.
        ahead = self._prefetch_scores(tx) if tx.flags & TxFlags.READ \
            else {}
        for page_idx, score in ahead.items():
            # Max-merge: a page both recently touched (0) and upcoming
            # (1) keeps the higher score — the organizer applies the
            # same max rule across processes (III-D).
            if score > scores.get(page_idx, -1.0):
                scores[page_idx] = score
        yield from self._apply(tx, scores)
        tx.head = tx.tail

    def on_write_behind(self, pages, evicted: bool):
        """Score pages the vector wrote behind at a range-write
        acknowledgment, like any page Algorithm 1 acknowledges: an
        evicted page is done with (0, the organizer may demote it), a
        kept one is about to be re-read by this node (1). Generator."""
        vec = self.vector
        if not vec.client.system.config.prefetch_enabled:
            return
        score = 0.0 if evicted else 1.0
        yield from vec.client.submit_scores(
            vec.shared, [(p, score, vec.client.node) for p in pages])

    # -- EVICT (Algorithm 1 lines 6-15) --------------------------------------
    def _evict_scores(self, tx: Transaction) -> Dict[int, float]:
        vec = self.vector
        n_pages_window = max(1, vec.pcache_budget // vec.shared.page_size)
        scores: Dict[int, float] = {}
        for region in tx.get_touched_pages():
            scores[region.page_idx] = 0.0
        # Pages that will be touched within one full-pcache window keep
        # score 1 (they may be retouched; do not evict) -- of a stream
        # that reads nothing, only the ones it has begun (see
        # on_advance).
        window = n_pages_window * vec.shared.elems_per_page
        reads = tx.flags & TxFlags.READ
        for region in tx.get_future_pages(window):
            if reads or region.page_idx in scores:
                scores[region.page_idx] = 1.0
        return scores

    # -- PREFETCH (Algorithm 1 lines 16-33) -----------------------------------
    def _prefetch_scores(self, tx: Transaction) -> Dict[int, float]:
        vec = self.vector
        page_size = vec.shared.page_size
        free = max(0, vec.pcache.free)
        n = free // page_size
        scores: Dict[int, float] = {}
        epp = vec.shared.elems_per_page
        near = tx.get_pages(tx.tail, n * epp)
        base_time = 0.0
        for region in near:
            scores[region.page_idx] = 1.0
            base_time += self._fetch_time(region.page_idx,
                                          region.size or page_size)
        if base_time <= 0.0:
            base_time = self._fetch_time(None, page_size)
        # Score the horizon beyond the free window until MinScore.
        est_time = base_time
        pos = tx.tail + sum(r.size for r in near) // vec.shared.itemsize
        score = 1.0
        while score > MIN_SCORE and pos < tx.count:
            regions = tx.get_pages(pos, epp)
            if not regions:
                break
            region = regions[0]
            est_time += self._fetch_time(region.page_idx,
                                         region.size or page_size)
            score = base_time / est_time
            if region.page_idx not in scores:
                scores[region.page_idx] = score
            pos += max(1, region.size // vec.shared.itemsize)
        return scores

    def _fetch_time(self, page_idx, nbytes: int) -> float:
        """Theoretical time to read a page from the scache given the
        bandwidth of the tier it currently sits on (Algorithm 1 line
        21: ``Page.GetSize()/T.BW``)."""
        vec = self.vector
        system = vec.client.system
        if page_idx is not None:
            info = system.hermes.mdm.peek(vec.shared.name, page_idx)
            if info is not None:
                dev = system.dmshs[info.node].tier(info.tier)
                t = dev.spec.xfer_time(nbytes, write=False)
                t += system.network.transfer_time(
                    info.node, vec.client.node, nbytes)
                return t
        # Unmaterialized page: assume a backend (PFS) fetch.
        slowest = system.dmshs[vec.client.node].tiers[-1]
        return slowest.spec.xfer_time(nbytes, write=False)

    # -- applying the decisions -----------------------------------------------
    def _apply(self, tx: Transaction, scores: Dict[int, float]):
        vec = self.vector
        pcache = vec.pcache
        # Read-ahead admission budget: the bytes free *before* this
        # round's evictions (cold frames count as free). The evictions
        # below free the just-touched window for the pages the
        # application will fault next; handing that space to read-ahead
        # as well admitted up to a full budget's worth of future pages
        # (``_evict_scores`` sizes its retouch window from the *total*
        # budget, and the max-merge carries those score-1 pages into
        # this apply step), thrashing the pcache ahead of the
        # synchronous access stream.
        admit_budget = max(0, pcache.free)
        # EvictIfZeroScore over the touched window — where the phase
        # has no writer, a clean frame is kept cold instead.
        keep = vec.shared.policy.allows_replication
        for page_idx, score in scores.items():
            if score == 0.0 and not (keep and pcache.cool(page_idx)):
                yield from vec.evict_page(page_idx)
        # Asynchronous pcache read-ahead for score-1 future pages that
        # are not (fully) resident yet — admitted in access order while
        # the free budget lasts, one batched fill per contiguous page
        # run.
        if not tx.writes:
            window = max(1, vec.pcache_budget // vec.shared.page_size) \
                * vec.shared.elems_per_page
            ahead = []
            seen = set()
            for region in tx.get_pages(tx.tail, window):
                page_idx = region.page_idx
                if page_idx in seen:
                    continue
                seen.add(page_idx)
                if scores.get(page_idx, 0.0) < 1.0:
                    continue
                need = sum(e - s
                           for s, e in vec.read_ahead_gaps(page_idx))
                if not need:
                    continue
                if need > admit_budget:
                    break
                admit_budget -= need
                ahead.append(region)
            for run in coalesce_page_runs(ahead,
                                          memtask.BATCH_MAX_PAGES):
                vec.prefetch_pages([r.page_idx for r in run])
        # Ship all scores (with our node id) to the Data Organizer.
        batched: List[Tuple[int, float, int]] = [
            (page_idx, score, vec.client.node)
            for page_idx, score in scores.items()
        ]
        if batched:
            yield from vec.client.submit_scores(vec.shared, batched)
