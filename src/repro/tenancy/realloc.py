"""MaxMem-style periodic fast-memory reallocation between tenants.

Every ``realloc_period`` seconds the loop snapshots each registered
tenant's slow-tier *re-read* bytes since the previous sweep — reads
of blobs the tenant had read before, so first-touch stage-in does not
count — and computes a *reuse density*: re-read bytes per byte of
scache footprint, smoothed with an exponential moving average so one
quiet window does not flip a steady re-reader into a donor. A tenant
rereading a working set that misses DRAM has high density; a
streaming antagonist touches enormous footprints once and scores low
(MaxMem's signal: misses on pages that were hot). Quota then flows to
the highest-density receiver, taken first from *idle* quota — a
tenant holding fast-memory headroom it is not using — and only then
from the lowest-density active tenant (bounded by ``min_dram`` and
damped by a hysteresis factor). Every sweep — whether or not quota
moved — *enforces* the current split: over-quota owners' coldest DRAM
blobs demote to the next tier, and tenants with recent re-reads and
unfilled quota get their hottest deep blobs promoted into the
headroom. Enforcement is continuous rather than grant-triggered
because placements drift between grants: other tenants' stage-in
bursts demote a victim's pages, and a grant is worthless until the
granted bytes actually hold the receiver's data. While the loop runs
it is the only mover of a quota'd tenant's blobs
(:meth:`QuotaManager.places`): the Data Organizer still feeds it the
prefetcher's scores, which order demotions and promotions here, but
moves none of those blobs itself. Each decision is
appended to the manager's decision log with the metric readings that
justified it (including the ``rt_backlog`` congestion gauge), so
same-seed runs produce bit-identical logs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.monitor import select
from repro.tenancy.quota import QuotaManager, TenantQuota


#: Receiver reuse density must exceed donor density by this factor
#: before quota moves (hysteresis against thrash between tenants with
#: similar miss profiles).
HYSTERESIS = 1.5
#: Cap on blob demotions+promotions enforced per sweep (bounds the
#: data movement a single reallocation decision can trigger).
MAX_MOVES = 32


class ReallocLoop:
    """The periodic fast-memory rebalancer (one per colocated run)."""

    def __init__(self, manager: QuotaManager):
        self.manager = manager
        self.system = manager.system
        cfg = self.system.config
        self.period = cfg.realloc_period
        self.step = cfg.realloc_step
        self.stop = False
        self.sweeps = 0
        self._last_reads: Dict[str, Tuple[float, float]] = {}
        #: EWMA of per-window reuse density; new tenants seed at their
        #: first observation.
        self._ewma: Dict[str, float] = {}
        self.EWMA_ALPHA = 0.5
        #: (read, slow-tier re-read) byte deltas from the most recent
        #: sweep, shared between the decision and the enforcement pass.
        self._window: Dict[str, Tuple[float, float]] = {}
        manager.loop = self

    # -- main loop -------------------------------------------------------
    def run(self):
        """Generator process: sweep until :attr:`stop` is set."""
        sim = self.system.sim
        while not self.stop:
            yield sim.timeout(self.period)
            if self.stop:
                return
            self.sweeps += 1
            self.rebalance()
            yield from self.enforce_all()

    def _window_deltas(self) -> Dict[str, Tuple[float, float]]:
        """(read, slow-tier re-read) bytes per registered tenant since
        the last sweep. All tenants, not just active ones: an idle
        tenant's zero delta decays its EWMA density toward zero, which
        is what marks its quota as reclaimable."""
        mgr = self.manager
        out = {}
        for t in mgr.tenants.values():
            read = sum(mgr.read_stats(t.name))
            reread = mgr.reread_bytes(t.name)
            last_read, last_reread = self._last_reads.get(t.name,
                                                          (0.0, 0.0))
            out[t.name] = (read - last_read, reread - last_reread)
            self._last_reads[t.name] = (read, reread)
        return out

    def _rereads(self, t: TenantQuota) -> float:
        """``t``'s slow-tier re-read bytes in the current window."""
        return self._window.get(t.name, (0.0, 0.0))[1]

    def _backlog(self) -> float:
        return sum(g.value for g in select(
            self.system.monitor.metrics.gauges, "rt_backlog"))

    # -- decision --------------------------------------------------------
    def rebalance(self) -> Optional[Tuple[TenantQuota, TenantQuota, int]]:
        """Pick (donor, receiver) and shift quota; None when the sweep
        decides to hold. Pure bookkeeping — enforcement is separate."""
        mgr = self.manager
        deltas = self._window_deltas()
        self._window = deltas
        quotaed = [t for t in mgr.tenants.values()
                   if t.dram_quota is not None]
        active_names = {t.name for t in mgr.active_tenants()}
        active = [t for t in quotaed if t.name in active_names]
        if not active or len(quotaed) < 2:
            return None

        alpha = self.EWMA_ALPHA
        for t in quotaed:
            # Reuse density: re-read bytes per byte the tenant could
            # conceivably hold fast. Normalizing by at least the quota
            # keeps a tenant with a tiny footprint from posting an
            # absurd density off a near-zero denominator.
            inst = self._rereads(t) / max(t.scache_used,
                                          t.dram_quota or 0, 1)
            prev = self._ewma.get(t.name)
            self._ewma[t.name] = inst if prev is None \
                else alpha * inst + (1.0 - alpha) * prev

        def density(t: TenantQuota) -> float:
            return self._ewma.get(t.name, 0.0)

        # A receiver must be missing DRAM on data it had (re-reads,
        # not first-touch stage-in) *and* able to use the grant: once
        # its quota covers its whole scache footprint, more fast
        # memory cannot convert any further misses.
        wanting = [t for t in active
                   if self._rereads(t) > 0
                   and t.scache_used > t.dram_quota]
        if not wanting:
            return None
        receiver = max(wanting, key=lambda t: (density(t), t.name))
        # Donors come from *all* registered tenants: a job that has
        # finished (or not yet arrived) is holding quota it cannot
        # use, and admission control still guarantees it ``min_dram``
        # when it next runs.
        donors = [t for t in quotaed
                  if t is not receiver
                  and t.dram_quota - self.step >= t.min_dram]
        if not donors:
            return None
        # Idle quota first: a tenant with *no read traffic at all* this
        # window (finished, not yet arrived, or between phases) gives
        # up quota without a density contest. Idleness is judged on
        # traffic, not on unused headroom — a hot tenant whose blobs
        # have not been promoted yet has low usage but is anything but
        # idle. Only when every donor is trafficking does density
        # (with hysteresis) arbitrate, so steady re-readers are robbed
        # last.
        idle = [t for t in donors
                if deltas.get(t.name, (0.0, 0.0))[0] == 0.0]
        if idle:
            donor = min(idle, key=lambda t: (density(t), t.name))
        else:
            donor = min(donors, key=lambda t: (density(t), t.name))
            if density(receiver) <= HYSTERESIS * density(donor):
                return None
        moved = min(self.step, donor.dram_quota - donor.min_dram)
        if moved <= 0:
            return None
        donor.dram_quota -= moved
        receiver.dram_quota += moved
        mgr._g_quota[donor.name].set(donor.dram_quota)
        mgr._g_quota[receiver.name].set(receiver.dram_quota)
        mgr.log("realloc", sweep=self.sweeps, src=donor.name,
                dst=receiver.name, bytes=moved,
                src_idle=int(donor in idle),
                src_density=round(density(donor), 9),
                dst_density=round(density(receiver), 9),
                src_reread=self._rereads(donor),
                dst_reread=self._rereads(receiver),
                dst_hit_ratio=round(mgr.hit_ratio(receiver.name), 6),
                rt_backlog=self._backlog())
        return donor, receiver, moved

    # -- enforcement -----------------------------------------------------
    def _owned_blobs(self, name: str):
        mgr = self.manager
        return [info for info in self.system.hermes.mdm.all_blobs()
                if mgr.bucket_owner.get(info.bucket) == name
                and info.node >= 0]

    def _make_room_fast(self, node: int, nbytes: int, protect: str):
        """Demote over-quota owners' coldest fast-tier blobs until
        ``nbytes`` fit. The loop conserves total quota at cluster
        capacity, so a receiver with unfilled quota implies someone
        else is over theirs; quota — not score — is the arbiter here.
        Generator; returns True when the bytes fit."""
        from repro.hermes.blob import BlobNotFound
        from repro.storage.device import DeviceFullError
        mgr = self.manager
        hermes = self.system.hermes
        fast = mgr.fast_kind
        dmsh = self.system.dmshs[node]
        dev = dmsh.tier(fast)
        if dev.fits(nbytes):
            return True
        victims = sorted(
            (info for info in hermes.mdm.all_blobs()
             if info.node == node and info.tier == fast),
            key=lambda i: (i.score, i.bucket, str(i.key)))
        for info in victims:
            if dev.fits(nbytes):
                break
            owner = mgr.tenants.get(mgr.bucket_owner.get(info.bucket))
            if owner is None or owner.dram_quota is None \
                    or owner.name == protect \
                    or owner.dram_used <= owner.dram_quota:
                continue
            lower = dmsh.slower_than(dev)
            while lower is not None and not lower.fits(info.nbytes):
                lower = dmsh.slower_than(lower)
            if lower is None:
                continue
            try:
                yield from hermes.move(info.bucket, info.key,
                                       info.node, lower.spec.kind,
                                       by="realloc")
            except (BlobNotFound, DeviceFullError):
                continue
        return dev.fits(nbytes)

    def enforce_all(self):
        """Make placements match quotas: demote every over-quota
        owner's coldest DRAM blobs, then promote the hottest deep
        blobs of tenants that are missing DRAM (recent re-reads)
        and have unfilled quota. Runs every sweep — a quota grant is
        worthless until the granted bytes hold the receiver's data,
        and other tenants' stage-ins keep demoting pages between
        grants. Generator; bounded by :data:`MAX_MOVES`."""
        from repro.hermes.blob import BlobNotFound
        from repro.storage.device import DeviceFullError
        mgr = self.manager
        hermes = self.system.hermes
        fast = mgr.fast_kind
        moves = 0
        quotaed = sorted(
            (t for t in mgr.tenants.values()
             if t.dram_quota is not None),
            key=lambda t: t.name)
        # Demote: every over-quota owner, coldest blobs first.
        for t in quotaed:
            if t.dram_used <= t.dram_quota:
                continue
            victims = sorted(
                (i for i in self._owned_blobs(t.name)
                 if i.tier == fast),
                key=lambda i: (i.score, i.bucket, str(i.key)))
            for info in victims:
                if t.dram_used <= t.dram_quota \
                        or moves >= MAX_MOVES:
                    break
                dmsh = self.system.dmshs[info.node]
                lower = dmsh.slower_than(dmsh.tier(fast))
                while lower is not None and not lower.fits(info.nbytes):
                    lower = dmsh.slower_than(lower)
                if lower is None:
                    continue
                try:
                    yield from hermes.move(info.bucket, info.key,
                                           info.node, lower.spec.kind,
                                           by="realloc")
                    moves += 1
                except (BlobNotFound, DeviceFullError):
                    continue
        # Promote: tenants that are actually missing (re-reads this
        # window) fill their quota headroom, hottest blobs first.
        active_names = {t.name for t in mgr.active_tenants()}
        missing = [t for t in quotaed
                   if t.name in active_names
                   and self._rereads(t) > 0
                   and t.dram_used < t.dram_quota]
        missing.sort(key=lambda t: (-self._ewma.get(t.name, 0.0),
                                    t.name))
        for t in missing:
            candidates = sorted(
                (i for i in self._owned_blobs(t.name)
                 if i.tier != fast),
                key=lambda i: (-i.score, i.bucket, str(i.key)))
            for info in candidates:
                if moves >= MAX_MOVES:
                    break
                if t.dram_used + info.nbytes > t.dram_quota:
                    continue
                dmsh = self.system.dmshs[info.node]
                dev = dmsh.tier(fast)
                if not dev.fits(info.nbytes):
                    # The fast tier is usually packed: evict whoever
                    # is over their (possibly just shrunk) quota.
                    fits = yield from self._make_room_fast(
                        info.node, info.nbytes, t.name)
                    if not fits:
                        continue
                try:
                    yield from hermes.move(info.bucket, info.key,
                                           info.node, fast, by="realloc")
                    moves += 1
                except (BlobNotFound, DeviceFullError):
                    continue
        if moves:
            self.system.monitor.count("tenancy.realloc_moves", moves)
