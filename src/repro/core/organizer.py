"""The Data Organizer: score-driven tier placement (paper III-D).

"The Data Organizer is responsible for interpreting the scores
supplied by the prefetcher. Score updates to the same page will all be
hashed to the same worker. Periodically (configurable by the user) the
Data Organizer interprets the scores and determines the node and tier
where data should be placed. ... The organizer will take the maximum
of scores if several processes score the same page within a
configurable timeframe. ... If a node sets a high score for a page,
the organizer will store the page on that node."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.shared import SharedVector
from repro.hermes.blob import BlobNotFound
from repro.hermes.dpe import PlacementError
from repro.storage.device import DeviceFullError

#: Seconds within which the organizer takes the max of the scores
#: different processes set for the same page; older ones age out.
SCORE_WINDOW = 0.2
#: Seconds between a node's sweeps (III-D: "Periodically ... the Data
#: Organizer interprets the scores"). Read at call time, as
#: ``organizer.SWEEP_PERIOD``, so a test can patch it.
SWEEP_PERIOD = 0.05


@dataclass
class _Pending:
    score: float
    node_hint: int
    stamp: float


class DataOrganizer:
    """Per-deployment organizer; one sweep process per node."""

    #: Pages scoring at or above this prefer the hinting node.
    AFFINITY_THRESHOLD = 0.9

    def __init__(self, system):
        self.system = system
        self.sim = system.sim
        self._pending: Dict[Tuple[str, int], _Pending] = {}
        self._stop = False

    # -- ingest (called by SCORE MemoryTasks) ---------------------------------
    def ingest(self, vec: SharedVector, scores) -> None:
        """Record score updates; max-merge within the score window."""
        now = self.sim.now
        for page_idx, score, node_hint in scores:
            key = (vec.name, page_idx)
            cur = self._pending.get(key)
            if cur is not None and now - cur.stamp <= SCORE_WINDOW:
                if score > cur.score:
                    cur.score = score
                    cur.node_hint = node_hint
                cur.stamp = max(cur.stamp, now)
            else:
                self._pending[key] = _Pending(score, node_hint, now)
            self.system.hermes.set_score(vec.name, page_idx, score)
            self.system.monitor.count("organizer.scores", vector=vec.name)

    # -- periodic placement sweep ----------------------------------------------
    def expire_pending(self) -> int:
        """Drop pending entries older than the score window.

        Entries wait in ``_pending`` for their page to materialize or
        for the owning node's sweep to pick them up; pages that never
        materialize (speculative prefetch scores past the end of the
        stream) or whose owner never sweeps them would otherwise
        accumulate forever. A stale score is also *wrong* by III-D: the
        max-merge timeframe has passed, so acting on it later would
        move data based on an access pattern that no longer holds.
        Returns the number of entries dropped.
        """
        cutoff = self.sim.now - SCORE_WINDOW
        stale = [key for key, pend in self._pending.items()
                 if pend.stamp < cutoff]
        for key in stale:
            self._pending.pop(key, None)
        if stale:
            self.system.monitor.count("organizer.expired", len(stale))
        return len(stale)

    def sweep(self, node: int):
        """Apply pending scores: promote/demote/relocate page blobs."""
        hermes = self.system.hermes
        self.expire_pending()
        tracer = self.system.tracer
        with tracer.span("sweep", "organizer", node=node,
                         pending=len(self._pending)):
            yield from self._sweep_timed(node, hermes)

    def _sweep_timed(self, node: int, hermes):
        # Demotions (low scores) first: they free fast-tier capacity
        # that the promotions in the same sweep then use.
        ordered = sorted(self._pending.items(), key=lambda kv: kv[1].score)
        tenancy = self.system.tenancy
        for (vec_name, page_idx), pend in ordered:
            vec = self.system.vectors.get(vec_name)
            if vec is None or vec.destroyed or (
                    tenancy is not None and tenancy.places(vec_name)):
                # Gone, or placed by the reallocation loop from the
                # score ingested above: one mover per blob.
                self._pending.pop((vec_name, page_idx), None)
                continue
            info = hermes.mdm.peek(vec_name, page_idx)
            if info is None:
                # Not materialized yet; keep the score until it ages
                # out of the window (see expire_pending).
                continue
            # Only the node owning the blob (or the hinted node) acts,
            # so concurrent sweeps on different nodes do not fight.
            target_node = info.node
            if (pend.score >= self.AFFINITY_THRESHOLD
                    and pend.node_hint != info.node):
                target_node = pend.node_hint
            if target_node != node and info.node != node:
                continue
            dmsh = self.system.dmshs[target_node]
            desired = dmsh.tier_for_score(pend.score, info.nbytes)
            if desired is None:
                continue
            if hermes.admission is not None:
                # Tenancy outside the loop's buckets (e.g. a static
                # campaign): promotion respects the owner's admission
                # floor — a hot page of an over-quota tenant stays
                # below the fast tier instead of displacing other
                # tenants' capacity.
                floor = hermes._admission_floor(
                    target_node, vec_name, info.nbytes)
                if floor > 0:
                    tiers = dmsh.tiers
                    didx = next(i for i, d in enumerate(tiers)
                                if d.spec.kind == desired.spec.kind)
                    if didx < floor:
                        if floor >= len(tiers) \
                                or not tiers[floor].fits(info.nbytes):
                            continue
                        desired = tiers[floor]
            if (desired.spec.kind != info.tier
                    or target_node != info.node):
                try:
                    yield from hermes.move(vec_name, page_idx,
                                           target_node, desired.spec.kind,
                                           by="organizer")
                    self.system.monitor.count(
                        "organizer.moves", node=node,
                        tier=desired.spec.kind)
                except (BlobNotFound, PlacementError, DeviceFullError):
                    pass
            self._pending.pop((vec_name, page_idx), None)

    def run(self, node: int):
        """Background sweep loop for one node."""
        while not self._stop:
            yield self.sim.timeout(SWEEP_PERIOD)
            yield from self.sweep(node)

    def stop(self) -> None:
        self._stop = True
