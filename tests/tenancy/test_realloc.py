"""The reallocation loop: one mover per tenant blob, grants on re-reads.

Two rules pinned here. (1) While a :class:`ReallocLoop` runs it is the
only mover of a quota'd tenant's blobs: the Data Organizer still
ingests the prefetcher's scores (they order the loop's demotions and
promotions) but moves none of those blobs, so the two no longer undo
each other's moves. A static campaign has no loop, and the organizer
places as before, clamped to the owner's admission floor. (2) Quota
goes to a tenant that misses on data it had — slow-tier *re-reads* —
not to one whose slow reads are first-touch stage-in. (3) A receiver
stays eligible while its smoothed re-read density is positive, also in
a sweep in which none of its slow reads completed. (4) A stopped
donor covers the receiver's shortfall in one grant; a running donor
gives one step. (5) A promotion takes room from a stopped tenant's
DRAM blobs, not from a running tenant within its quota. (6) An
enforcement pass issues no move after one period, and no more than
:data:`MAX_MOVES`, the demotions that make a promotion's room
included.
"""

import numpy as np
import pytest

from repro.core import MM_WRITE_ONLY, SeqTx
from repro.core.organizer import SCORE_WINDOW
from repro.tenancy import QuotaManager, TenantQuota, run_colocation
from repro.tenancy import realloc
from repro.tenancy.realloc import ReallocLoop
from tests.core.conftest import build_system, run_procs
from tests.tenancy.test_scheduler import SPEC

KB = 1024


def test_organizer_moves_no_quotad_blob_while_the_loop_runs(tmp_path):
    spec = SPEC.replace("  seed: 11\n",
                        "  seed: 11\n  realloc_period: 0.002\n")
    kept = {}

    def hook(cluster):
        cluster.tracer.enabled = True
        kept["cluster"] = cluster

    res = run_colocation(spec, workdir=str(tmp_path), on_cluster=hook)
    assert [r["status"] for r in res.rows] == ["ok"] * 3
    cluster = kept["cluster"]
    monitor = cluster.monitor
    # The organizer still ingests every score ...
    assert monitor.counter("organizer.scores") > 0
    # ... but every bucket here is a quota'd tenant's: it moves none.
    assert monitor.counter("organizer.moves") == 0
    qm = cluster.system.tenancy
    assert qm.loop.sweeps > 0
    moves = sorted((s for s in cluster.tracer.spans
                    if s.category == "hermes" and s.name == "move"),
                   key=lambda s: s.start)
    last = {}
    for span in moves:
        blob = (span.attrs["bucket"], span.attrs["key"])
        owner = qm.owner_of(blob[0])
        if owner is not None and owner.dram_quota is not None:
            assert span.attrs["by"] != "organizer", blob
        assert blob not in last or \
            span.start - last[blob] > SCORE_WINDOW, blob
        last[blob] = span.start


def test_first_touch_reader_gets_no_grant_while_a_rereader_misses():
    # "stream" reads every blob of a long stream exactly once, from
    # below DRAM; "reuse" re-reads a 1 MB working set a quarter of
    # which fits its slice. In the first window "reuse" reads only
    # that resident quarter (a first pass that stage-in landed in
    # DRAM), so the streamer is the only tenant with slow reads —
    # and must still get nothing. "idle" holds quota nobody uses.
    sim, system = build_system(n_nodes=1, dram_mb=1, nvme_mb=64,
                               realloc_step=64 * KB)
    system.organizer.stop()
    qm = QuotaManager(system)
    for name in ("idle", "reuse", "stream"):
        qm.register(TenantQuota(name=name, dram_quota=256 * KB,
                                min_dram=64 * KB))
        qm.claim_bucket(name, name)
        qm.activate(name)
    loop = ReallocLoop(qm)
    h = system.hermes
    blob = b"x" * (64 * KB)
    chunk, windows = 16, 4              # blobs per window and tenant

    def put(bucket, keys):
        for i in keys:
            yield from h.put(0, bucket, i, blob)

    def get(bucket, keys):
        for i in keys:
            yield from h.get(0, bucket, i)

    sim.run(until=sim.process(put("reuse", range(chunk))))
    sim.run(until=sim.process(put("stream", range(chunk * windows))))
    resident = [i for i in range(chunk)
                if h.mdm.peek("reuse", i).tier == "dram"]
    assert 0 < len(resident) < chunk
    grants = []
    for w in range(windows):
        def window(w=w):
            yield from get("reuse", resident if w == 0 else range(chunk))
            yield from get("stream", range(w * chunk, (w + 1) * chunk))

        sim.run(until=sim.process(window()))
        decided = loop.rebalance()
        if decided is not None:
            grants.append(decided[1].name)
    assert grants and set(grants) == {"reuse"}
    assert qm.read_stats("stream")[1] > 0          # it did miss, once
    assert qm.reread_bytes("stream") == 0
    assert qm.reread_bytes("reuse") > 0
    log = [e for e in qm.decisions if e["kind"] == "realloc"]
    assert all(e["dst_reread"] > 0 and e["src_reread"] == 0 for e in log)


def test_static_campaign_promotion_stops_at_the_admission_floor():
    # No loop: the organizer places a quota'd tenant's pages itself,
    # and a hot page of a tenant at its DRAM quota rises no higher
    # than the tier its admission floor allows.
    page = 4096

    def promoted_tier(quota_at_sweep):
        sim, system = build_system(n_nodes=1, prefetch_enabled=False)
        system.organizer.stop()
        qm = QuotaManager(system)
        qm.register(TenantQuota(name="A", dram_quota=page))
        client = system.client(rank=0, node=0)
        client.bind_tenant(qm.tenants["A"])
        org, h = system.organizer, system.hermes

        def app():
            vec = yield from client.vector("v", dtype=np.uint8,
                                           size=2 * page)
            yield from vec.tx_begin(SeqTx(0, 2 * page, MM_WRITE_ONLY))
            yield from vec.write_range(0, np.ones(2 * page, np.uint8))
            yield from vec.tx_end()
            yield from vec.flush(wait=True)
            name = vec.shared.name
            tiers = {i: h.mdm.peek(name, i).tier for i in (0, 1)}
            # One page fills the quota; the other spilled below DRAM.
            assert sorted(tiers.values()) == ["dram", "nvme"]
            spilled = next(i for i, t in tiers.items() if t != "dram")
            yield from h.move(name, spilled, 0, "hdd")
            qm.tenants["A"].dram_quota = quota_at_sweep
            org.ingest(vec.shared, [(spilled, 1.0, 0)])
            yield from org.sweep(0)
            return h.mdm.peek(name, spilled).tier

        (tier,) = run_procs(sim, app())
        assert qm.tenants["A"].dram_used <= quota_at_sweep
        return tier

    # A hot page on the HDD rises to the floor (NVMe) at quota, and all
    # the way to DRAM when its owner has room.
    assert promoted_tier(page) == "nvme"
    assert promoted_tier(2 * page) == "dram"


def _rereader(donor_quota, donor_active):
    """A manager with a donor holding ``donor_quota`` and a receiver
    "reuse" whose 1 MB footprint sits below DRAM (quota 128 KB).
    Returns (sim, qm, loop, read) where ``read()`` is a generator
    reading all of "reuse"'s blobs once."""
    sim, system = build_system(n_nodes=1, dram_mb=1, nvme_mb=64,
                               realloc_step=64 * KB)
    system.organizer.stop()
    qm = QuotaManager(system)
    qm.register(TenantQuota(name="donor", dram_quota=donor_quota,
                            min_dram=64 * KB))
    qm.register(TenantQuota(name="reuse", dram_quota=128 * KB,
                            min_dram=64 * KB))
    for name in ("donor", "reuse"):
        qm.claim_bucket(name, name)
    qm.activate("reuse")
    if donor_active:
        qm.activate("donor")
    loop = ReallocLoop(qm)
    h = system.hermes
    blob = b"x" * (64 * KB)

    def put():
        for i in range(16):
            yield from h.put(0, "reuse", i, blob)

    def read():
        for i in range(16):
            yield from h.get(0, "reuse", i)

    sim.run(until=sim.process(put()))
    return sim, qm, loop, read


@pytest.mark.parametrize("donor_quota", [2048 * KB, 512 * KB])
@pytest.mark.parametrize("donor_active", [False, True])
def test_a_stopped_donor_covers_the_shortfall_in_one_grant(donor_quota,
                                                           donor_active):
    sim, qm, loop, read = _rereader(donor_quota, donor_active)
    sim.run(until=sim.process(read()))     # first touch
    sim.run(until=sim.process(read()))     # re-reads below DRAM
    donor, receiver = qm.tenants["donor"], qm.tenants["reuse"]
    short = receiver.scache_used - receiver.dram_quota
    surplus = donor.dram_quota - donor.min_dram
    assert short == 896 * KB
    assert loop.rebalance() == (donor, receiver,
                                64 * KB if donor_active
                                else min(surplus, short))
    (entry,) = [e for e in qm.decisions if e["kind"] == "realloc"]
    assert entry["src_active"] == int(donor_active)
    assert entry["dst_short"] == short


def test_a_rereader_stays_eligible_between_its_slow_reads():
    # Its re-reads stop completing (each slow read outlasts several
    # sweeps), but its footprint still exceeds its quota: the sweeps
    # in between keep granting, from the running idle donor one step
    # at a time.
    sim, qm, loop, read = _rereader(512 * KB, True)
    sim.run(until=sim.process(read()))
    sim.run(until=sim.process(read()))
    grants = [loop.rebalance() for _ in range(4)]
    receiver = qm.tenants["reuse"]
    assert all(g is not None and g[1] is receiver for g in grants)
    assert receiver.dram_quota == 128 * KB + 4 * 64 * KB
    log = [e for e in qm.decisions if e["kind"] == "realloc"]
    assert log[0]["dst_reread"] > 0
    assert [e["dst_reread"] for e in log[1:]] == [0, 0, 0]
    assert all(e["dst_density"] > 0 for e in log)


def _promotion_setup(done_active):
    """One node, 1 MB of DRAM: "done" holds eight 64 KB blobs in DRAM
    within its quota, "reuse" (quota 1 MB, not wanting more) re-reads
    16 blobs of which the rest of DRAM holds some and NVMe the others.
    Returns (sim, system, qm, loop)."""
    dram_blobs = 8
    sim, system = build_system(n_nodes=1, dram_mb=1, nvme_mb=64,
                               realloc_step=64 * KB)
    system.organizer.stop()
    qm = QuotaManager(system)
    qm.register(TenantQuota(name="done", dram_quota=dram_blobs * 64 * KB,
                            min_dram=64 * KB))
    qm.register(TenantQuota(name="reuse", dram_quota=1024 * KB,
                            min_dram=64 * KB))
    for name in ("done", "reuse"):
        qm.claim_bucket(name, name)
        qm.activate(name)
    loop = ReallocLoop(qm)
    h, blob = system.hermes, b"x" * (64 * KB)

    def fill():
        for i in range(dram_blobs):
            yield from h.put(0, "done", i, blob)
        for i in range(16):
            yield from h.put(0, "reuse", i, blob)

    def read():
        for i in range(16):
            yield from h.get(0, "reuse", i)

    sim.run(until=sim.process(fill()))
    if not done_active:
        qm.deactivate("done")
    sim.run(until=sim.process(read()))     # first touch
    sim.run(until=sim.process(read()))     # re-reads below DRAM
    assert loop.rebalance() is None        # footprint within quota
    return sim, system, qm, loop


def _tiers(system, bucket, n):
    return [system.hermes.mdm.peek(bucket, i).tier for i in range(n)]


@pytest.mark.parametrize("done_active", [True, False])
def test_a_stopped_tenants_dram_makes_room_for_a_promotion(done_active):
    """Quota is conserved over the cluster, not per node: a node's DRAM
    can be full of blobs within their owners' quotas. A running owner
    keeps them; a stopped one's give way to a re-reader's promotion."""
    sim, system, qm, loop = _promotion_setup(done_active)
    dram = system.dmshs[0].tier("dram")
    reuse, done = qm.tenants["reuse"], qm.tenants["done"]
    assert not dram.fits(64 * KB)
    assert done.dram_used == done.dram_quota
    assert "nvme" in _tiers(system, "reuse", 16)
    before = reuse.dram_used
    sim.run(until=sim.process(loop.enforce_all()))
    if done_active:
        assert reuse.dram_used == before
        assert _tiers(system, "done", 8) == ["dram"] * 8
    else:
        assert reuse.dram_used > before
        assert done.dram_used < done.dram_quota


def test_an_enforcement_pass_issues_no_move_after_one_period():
    """Each move of a pass waits for its devices; once a period has
    passed the pass stops, and the next sweep carries on."""
    sim, system, qm, loop = _promotion_setup(False)
    deep = _tiers(system, "reuse", 16).count("nvme")
    assert deep >= 3
    loop.period = 1e-9                     # shorter than any move
    sim.run(until=sim.process(loop.enforce_all()))
    assert _tiers(system, "reuse", 16).count("nvme") == deep - 1
    loop.period = 1.0
    sim.run(until=sim.process(loop.enforce_all()))
    assert _tiers(system, "reuse", 16).count("nvme") < deep - 2


def test_a_promotions_room_comes_out_of_the_passs_move_budget(
        monkeypatch):
    """Each promotion here needs one demotion first. With a budget of
    three, the pass demotes, promotes, demotes -- and stops: the
    second promotion's room took the last move, so it waits for the
    next sweep."""
    monkeypatch.setattr(realloc, "MAX_MOVES", 3)
    sim, system, qm, loop = _promotion_setup(False)
    deep = _tiers(system, "reuse", 16).count("nvme")
    assert deep >= 2
    monitor = system.monitor
    before = monitor.counter("hermes.moves")
    sim.run(until=sim.process(loop.enforce_all()))
    assert monitor.counter("hermes.moves") - before == 3
    assert monitor.counter("tenancy.realloc_moves") == 3
    assert _tiers(system, "done", 8).count("nvme") == 2
    assert _tiers(system, "reuse", 16).count("nvme") == deep - 1
