"""Per-tenant byte ledgers and quota enforcement hooks.

MaxMem-style multi-tenant governance over one shared MegaMmap
deployment: each colocated job is a *tenant* with a pcache quota (its
processes' private caches, cluster-wide), an scache quota (total bytes
of authoritative blobs it owns across all tiers) and a DRAM-tier quota
(its slice of fast memory, the quantity the reallocation loop trades
between tenants).

The :class:`QuotaManager` installs three untimed hooks on
:class:`~repro.hermes.core.Hermes` — ``accountant`` (blob create /
destroy / move deltas against the owner's ledger), ``admission``
(minimum tier index for new placements: an over-quota tenant spills to
the next tier instead of demoting other tenants' hot pages) and
``read_hook`` (per-tenant fast/slow read bytes, the hit-ratio signal,
and slow-tier *re-read* bytes, the reallocation loop's signal). Every
hook is a no-op-by-default attribute: runs without a manager keep the
exact pre-tenancy event sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.errors import QuotaExceededError

__all__ = ["TenantQuota", "QuotaManager", "QuotaExceededError"]


@dataclass
class TenantQuota:
    """One tenant's quotas and live usage.

    ``None`` quotas are unlimited. ``dram_quota`` is the only quota
    the reallocation loop mutates; ``min_dram`` is the floor below
    which reallocation may not shrink it (and the amount the admission
    controller commits when the job is admitted).
    """

    name: str
    pcache_quota: Optional[int] = None
    scache_quota: Optional[int] = None
    dram_quota: Optional[int] = None
    min_dram: int = 0
    # -- live usage (maintained by the manager / client hooks) ----------
    pcache_used: int = 0
    scache_used: int = 0
    dram_used: int = 0
    active: bool = False
    manager: Optional["QuotaManager"] = field(default=None, repr=False)
    #: The clients bound to this tenant (``MegaMmapClient.bind_tenant``):
    #: the quota takes back cold frames from any of their handles.
    clients: List = field(default_factory=list, repr=False,
                          compare=False)

    def scoped_key(self, key: str) -> str:
        """Namespace volatile vector keys per tenant; nonvolatile URL
        keys stay global (datasets are shareable across tenants)."""
        if "://" in key:
            return key
        mgr = self.manager
        if mgr is not None and not mgr.namespace:
            return key
        return f"{self.name}::{key}"

    # -- pcache (charged by MegaMmapClient.reserve/unreserve) -----------
    def charge_pcache(self, nbytes: int) -> None:
        self.pcache_used += nbytes
        mgr = self.manager
        if mgr is not None:
            mgr._g_pcache[self.name].set(self.pcache_used)
            if self.pcache_quota is not None \
                    and self.pcache_used > self.pcache_quota:
                mgr._c_overcommit[self.name].inc(nbytes)

    def release_pcache(self, nbytes: int) -> None:
        self.pcache_used -= nbytes
        mgr = self.manager
        if mgr is not None:
            mgr._g_pcache[self.name].set(self.pcache_used)

    def pcache_over(self, extra: int = 0) -> bool:
        return (self.pcache_quota is not None
                and self.pcache_used + extra > self.pcache_quota)


class QuotaManager:
    """Owner map + byte ledgers + enforcement hooks for one system.

    Install with ``QuotaManager(system)``: the constructor wires the
    hermes hooks and publishes itself as ``system.tenancy``. Buckets
    (vector names) are claimed by the tenant whose client *created*
    the vector; every authoritative-blob credit/debit lands on the
    owner's ledger regardless of which tenant's activity triggered it
    (an evicting antagonist must not launder its usage onto a victim).
    """

    def __init__(self, system, namespace: bool = True):
        self.system = system
        self.namespace = namespace
        self.tenants: Dict[str, TenantQuota] = {}
        self.bucket_owner: Dict[str, str] = {}
        #: Admission / reallocation decision log: a list of plain dicts
        #: (``t``, ``kind``, then per-kind fields), bit-comparable
        #: across same-seed runs.
        self.decisions: List[dict] = []
        metrics = system.monitor.metrics
        self._metrics = metrics
        self._g_pcache: Dict = {}
        self._g_scache: Dict = {}
        self._g_dram: Dict = {}
        self._g_quota: Dict = {}
        self._c_overcommit: Dict = {}
        self._c_fast_reads: Dict = {}
        self._c_slow_reads: Dict = {}
        self._c_rereads: Dict = {}
        self._c_ops: Dict = {}
        #: ``(bucket, key)`` of every blob read so far: a slow read of
        #: one of these is a re-read of bytes its owner had before.
        self._read_before: set = set()
        #: The :class:`~repro.tenancy.realloc.ReallocLoop` attached to
        #: this manager, if any (it registers itself).
        self.loop = None
        #: Tier kind counted as "fast memory" (the DRAM-quota tier).
        self.fast_kind = system.dmshs[0].tiers[0].spec.kind
        hermes = system.hermes
        hermes.accountant = self._on_account
        hermes.admission = self._admission_floor
        hermes.read_hook = self._on_read
        system.tenancy = self

    # -- registration ----------------------------------------------------
    def register(self, quota: TenantQuota) -> TenantQuota:
        if quota.name in self.tenants:
            raise QuotaExceededError(
                f"tenant {quota.name!r} already registered")
        quota.manager = self
        self.tenants[quota.name] = quota
        m = self._metrics
        name = quota.name
        self._g_pcache[name] = m.gauge("tenant_pcache_bytes",
                                       tenant=name)
        self._g_scache[name] = m.gauge("tenant_scache_bytes",
                                       tenant=name)
        self._g_dram[name] = m.gauge("tenant_dram_bytes", tenant=name)
        self._g_quota[name] = m.gauge("tenant_dram_quota", tenant=name)
        self._c_overcommit[name] = m.counter("tenant_pcache_overcommit",
                                             tenant=name)
        self._c_fast_reads[name] = m.counter("tenant_read_bytes",
                                             tenant=name, speed="fast")
        self._c_slow_reads[name] = m.counter("tenant_read_bytes",
                                             tenant=name, speed="slow")
        self._c_rereads[name] = m.counter("tenant_reread_bytes",
                                          tenant=name)
        if quota.dram_quota is not None:
            self._g_quota[name].set(quota.dram_quota)
        return quota

    def claim_bucket(self, bucket: str, tenant_name: str) -> None:
        """First creator wins; later attaches never transfer
        ownership."""
        self.bucket_owner.setdefault(bucket, tenant_name)

    def owner_of(self, bucket: str) -> Optional[TenantQuota]:
        name = self.bucket_owner.get(bucket)
        return self.tenants.get(name) if name is not None else None

    def places(self, bucket: str) -> bool:
        """True when the reallocation loop is the one mover of
        ``bucket``'s blobs: a loop is running and the owner holds a
        DRAM quota. The organizer then leaves the bucket alone — two
        movers of the same blobs undo each other's moves."""
        loop = self.loop
        if loop is None or loop.stop:
            return False
        t = self.owner_of(bucket)
        return t is not None and t.dram_quota is not None

    # -- hermes hooks ----------------------------------------------------
    def _on_account(self, bucket: str, node: int, tier: str,
                    delta: int) -> None:
        t = self.owner_of(bucket)
        if t is None:
            return
        t.scache_used += delta
        self._g_scache[t.name].set(t.scache_used)
        if tier == self.fast_kind:
            t.dram_used += delta
            self._g_dram[t.name].set(t.dram_used)

    def _admission_floor(self, node: int, bucket: str,
                         nbytes: int) -> int:
        """Minimum tier index for a new placement of ``bucket``.

        Floor 1 (skip the fast tier) when the owner would exceed its
        DRAM-tier quota or already exceeds its total scache quota —
        the spill-don't-evict rule: tiers above the floor are never
        attempted, so an over-quota tenant can't demote another
        tenant's hot pages out of DRAM.
        """
        t = self.owner_of(bucket)
        if t is None:
            return 0
        if t.dram_quota is not None \
                and t.dram_used + nbytes > t.dram_quota:
            return 1
        if t.scache_quota is not None \
                and t.scache_used > t.scache_quota:
            return 1
        return 0

    def _on_read(self, bucket: str, key, tier: str, nbytes: int) -> None:
        t = self.owner_of(bucket)
        if t is None:
            return
        blob = (bucket, key)
        if tier == self.fast_kind:
            self._c_fast_reads[t.name].inc(nbytes)
        else:
            self._c_slow_reads[t.name].inc(nbytes)
            if blob in self._read_before:
                self._c_rereads[t.name].inc(nbytes)
        self._read_before.add(blob)

    # -- scache op attribution (called from ScacheExecutor) --------------
    def note_scache_op(self, bucket: str, kind: str, n: int = 1) -> None:
        t = self.owner_of(bucket)
        if t is None:
            return
        key = (t.name, kind)
        handle = self._c_ops.get(key)
        if handle is None:
            handle = self._c_ops[key] = self._metrics.counter(
                "tenant_scache_ops", tenant=t.name, kind=kind)
        handle.inc(n)

    # -- admission-control bookkeeping ----------------------------------
    def activate(self, name: str) -> None:
        t = self.tenants[name]
        t.active = True
        if t.dram_quota is not None:
            self._g_quota[name].set(t.dram_quota)

    def deactivate(self, name: str) -> None:
        self.tenants[name].active = False

    def active_tenants(self) -> List[TenantQuota]:
        return [t for t in self.tenants.values() if t.active]

    # -- stats -----------------------------------------------------------
    def read_stats(self, name: str):
        """Cumulative (fast_bytes, slow_bytes) read by tenant
        ``name``."""
        return (self._c_fast_reads[name].value,
                self._c_slow_reads[name].value)

    def reread_bytes(self, name: str) -> float:
        """Cumulative slow-tier bytes tenant ``name`` read from blobs
        it had read before (first-touch stage-in excluded)."""
        return self._c_rereads[name].value

    def hit_ratio(self, name: str) -> float:
        fast, slow = self.read_stats(name)
        total = fast + slow
        return fast / total if total else 1.0

    def log(self, kind: str, **fields) -> dict:
        entry = {"t": round(self.system.sim.now, 9), "kind": kind}
        entry.update(fields)
        self.decisions.append(entry)
        return entry

    def ledger_sweep(self) -> Dict[str, Dict[str, int]]:
        """Recompute per-tenant scache/DRAM bytes from scratch by
        sweeping metadata — the ground truth the incremental hook
        accounting must agree with (used by the regression tests)."""
        out: Dict[str, Dict[str, int]] = {
            name: {"scache": 0, "dram": 0} for name in self.tenants}
        for info in self.system.hermes.mdm.all_blobs():
            name = self.bucket_owner.get(info.bucket)
            if name is None or name not in out:
                continue
            out[name]["scache"] += info.nbytes
            if info.tier == self.fast_kind:
                out[name]["dram"] += info.nbytes
        return out
