"""Spill-don't-evict: an over-quota tenant cannot degrade a neighbor.

The regression these tests pin down: scache admission used to be
tenant-blind — a streaming antagonist's hot stage-ins would demote a
small tenant's resident pages out of DRAM (``_demote_colder`` picks
the coldest blobs regardless of owner). With per-tenant DRAM quotas
installed, an antagonist at its quota takes the *next tier down* for
its own new placements instead, and the victim's hit ratio can never
fall below the floor its own quota implies (1.0 when its working set
fits its slice).
"""

import pytest

from repro.tenancy import QuotaManager, TenantQuota
from tests.core.conftest import build_system

KB = 1024
MB = 1024 * 1024


def _run(sim, gen):
    return sim.run(until=sim.process(gen))


def _victim_fills(h, nbytes, score=0.4, chunk=64 * KB):
    for i in range(nbytes // chunk):
        yield from h.put(0, "victim-bkt", f"v{i}", b"v" * chunk,
                         score=score)


def _antagonist_streams(h, nbytes, score=1.0, chunk=64 * KB):
    for i in range(nbytes // chunk):
        yield from h.put(0, "antag-bkt", f"a{i}", b"a" * chunk,
                         score=score)


def test_unquotaed_antagonist_demotes_the_victim():
    # Control: without quotas the attack works — the antagonist's
    # hotter placements push the victim's colder blobs out of DRAM.
    # (This is the behavior satellite 2 exists to prevent.)
    sim, system = build_system(n_nodes=1, dram_mb=1, nvme_mb=64)
    system.organizer.stop()
    qm = QuotaManager(system)
    qm.register(TenantQuota(name="victim"))
    qm.register(TenantQuota(name="antag"))  # no quotas: unbounded
    qm.claim_bucket("victim-bkt", "victim")
    qm.claim_bucket("antag-bkt", "antag")
    h = system.hermes

    def proc():
        yield from _victim_fills(h, 512 * KB)
        yield from _antagonist_streams(h, 2 * MB)

    _run(sim, proc())
    victim_dram = sum(
        i.nbytes for i in h.mdm.all_blobs()
        if i.bucket == "victim-bkt" and i.tier == "dram")
    assert victim_dram == 0  # fully demoted: the attack succeeded


def test_quotaed_antagonist_spills_instead_of_evicting():
    # Same pressure, but the antagonist has a small DRAM quota: its
    # placements past the quota go straight to the next tier and the
    # victim's working set stays resident in DRAM, byte for byte.
    sim, system = build_system(n_nodes=1, dram_mb=1, nvme_mb=64)
    system.organizer.stop()
    qm = QuotaManager(system)
    qm.register(TenantQuota(name="victim", dram_quota=768 * KB))
    qm.register(TenantQuota(name="antag", dram_quota=128 * KB))
    qm.claim_bucket("victim-bkt", "victim")
    qm.claim_bucket("antag-bkt", "antag")
    h = system.hermes

    def proc():
        yield from _victim_fills(h, 512 * KB)
        yield from _antagonist_streams(h, 2 * MB)

    _run(sim, proc())
    victim_dram = sum(
        i.nbytes for i in h.mdm.all_blobs()
        if i.bucket == "victim-bkt" and i.tier == "dram")
    antag_dram = sum(
        i.nbytes for i in h.mdm.all_blobs()
        if i.bucket == "antag-bkt" and i.tier == "dram")
    assert victim_dram == 512 * KB          # untouched
    assert antag_dram <= 128 * KB           # held to its quota
    assert qm.tenants["antag"].scache_used == 2 * MB  # spilled, not lost


def test_victim_hit_ratio_never_falls_below_its_quota_floor():
    # The victim's working set fits its DRAM quota, so every one of
    # its reads must be a fast-tier hit — a streaming antagonist
    # cannot pull that below 1.0. Without quotas the same scenario
    # drops the victim to a 0% fast-read ratio.
    def scenario(antag_quota):
        sim, system = build_system(n_nodes=1, dram_mb=1, nvme_mb=64)
        system.organizer.stop()
        qm = QuotaManager(system)
        qm.register(TenantQuota(name="victim", dram_quota=768 * KB))
        qm.register(TenantQuota(name="antag",
                                dram_quota=antag_quota))
        qm.claim_bucket("victim-bkt", "victim")
        qm.claim_bucket("antag-bkt", "antag")
        h = system.hermes

        def proc():
            yield from _victim_fills(h, 512 * KB)
            for _ in range(3):  # interleave streams with re-reads
                yield from _antagonist_streams(h, 1 * MB)
                for i in range(512 * KB // (64 * KB)):
                    yield from h.get(0, "victim-bkt", f"v{i}")

        _run(sim, proc())
        return qm.hit_ratio("victim")

    assert scenario(antag_quota=None) < 1.0       # attack works...
    assert scenario(antag_quota=128 * KB) == 1.0  # ...quota stops it


def test_over_quota_scache_footprint_also_floors_admission():
    # The second admission clause: a tenant whose *total* scache
    # footprint exceeds its scache quota is floored out of DRAM even
    # when its DRAM slice itself has room.
    sim, system = build_system(n_nodes=1, dram_mb=4, nvme_mb=64)
    system.organizer.stop()
    qm = QuotaManager(system)
    qm.register(TenantQuota(name="A", scache_quota=256 * KB))
    qm.claim_bucket("a-bkt", "A")
    h = system.hermes

    def proc():
        # First 4 puts fit the scache quota -> DRAM; once the
        # footprint exceeds it, later puts are floored to nvme.
        for i in range(8):
            yield from h.put(0, "a-bkt", f"k{i}", b"x" * (64 * KB))

    _run(sim, proc())
    tiers = {i.key: i.tier for i in h.mdm.all_blobs()
             if i.bucket == "a-bkt"}
    assert tiers["k0"] == "dram"
    assert tiers["k7"] == "nvme"
