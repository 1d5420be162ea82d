"""The reallocation loop: one mover per tenant blob, grants on re-reads.

Two rules pinned here. (1) While a :class:`ReallocLoop` runs it is the
only mover of a quota'd tenant's blobs: the Data Organizer still
ingests the prefetcher's scores (they order the loop's demotions and
promotions) but moves none of those blobs, so the two no longer undo
each other's moves. A static campaign has no loop, and the organizer
places as before, clamped to the owner's admission floor. (2) Quota
goes to a tenant that misses on data it had — slow-tier *re-reads* —
not to one whose slow reads are first-touch stage-in.
"""

import numpy as np

from repro.core import MM_WRITE_ONLY, SeqTx
from repro.core.organizer import SCORE_WINDOW
from repro.tenancy import QuotaManager, TenantQuota, run_colocation
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
                               organizer_enabled=False,
                               realloc_step=64 * KB)
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
        sim, system = build_system(n_nodes=1, prefetch_enabled=False,
                                   organizer_enabled=False)
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
