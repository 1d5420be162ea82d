"""The landing rule of redundant copies (``Hermes.free_tier`` with
``redundant=True``): a read-only replica, like a page read ahead, is
only written to a tier faster than the backend it can be re-read
from."""

import pytest

from repro.sim import Monitor
from tests.hermes.test_hermes import FAST, MID, SLOW, make_hermes, run

#: A backend as fast as the node-local disk (the PFS servers are HDDs).
BACKEND = SLOW.with_capacity(10 ** 9)


def fill(h, node, kind):
    dev = h.dmshs[node].tier(kind)
    dev.reserve(dev.free)


def replicate(tiers, full=(), backend=BACKEND, floor=0):
    sim, h = make_hermes(tiers=tiers)
    h.monitor = Monitor(sim)
    h.backend = backend
    if floor:
        h.admission = lambda node, bucket, nbytes: floor
    for kind in full:
        fill(h, 0, kind)

    def proc():
        yield from h.put(1, "bkt", "k", b"data" * 10)
        raw = yield from h.replicate(0, "bkt", "k")
        again = yield from h.get(0, "bkt", "k")
        return raw, again

    raw, again = run(sim, proc())
    assert raw == again == b"data" * 10
    return h, h.mdm.peek("bkt", "k").replicas


def test_replica_lands_in_dram_then_nvme_as_before():
    _h, replicas = replicate((FAST, MID, SLOW))
    assert replicas == [(0, "dram")]
    h, replicas = replicate((FAST, MID, SLOW), full=["dram"])
    assert replicas == [(0, "nvme")]
    assert h.monitor.counter("hermes.replications") == 1


def test_no_replica_when_the_only_room_is_as_slow_as_the_backend():
    h, replicas = replicate((FAST, MID, SLOW), full=["dram", "nvme"])
    assert replicas == []
    assert h.monitor.counter("hermes.replications") == 0
    assert h.dmshs[0].tier("hdd").bytes_written == 0
    # Without a modelled backend there is nothing to compare with: any
    # local tier beats the network hop, as before.
    _h, replicas = replicate((FAST, MID, SLOW), full=["dram", "nvme"],
                             backend=None)
    assert replicas == [(0, "hdd")]


def test_replica_under_an_admission_floor():
    """The floor keeps an over-quota tenant's replica out of the DRAM;
    what is below it decides whether there is a replica at all."""
    _h, replicas = replicate((FAST, MID, SLOW), floor=1)
    assert replicas == [(0, "nvme")]
    h, replicas = replicate((FAST, SLOW), floor=1)
    assert replicas == []
    assert h.dmshs[0].tier("hdd").bytes_written == 0


@pytest.mark.parametrize("redundant", [False, True])
def test_free_tier_claims_only_what_it_grants(redundant):
    _sim, h = make_hermes(tiers=(FAST, SLOW))
    h.backend = BACKEND
    claimed = {}
    dram, hdd = h.dmshs[0].tiers
    assert h.free_tier(0, "bkt", 600, claimed, redundant) is dram
    # 400 bytes of DRAM left: the next blob would go to the disk.
    got = h.free_tier(0, "bkt", 600, claimed, redundant)
    assert got is (None if redundant else hdd)
    assert claimed == ({dram: 600} if redundant else {dram: 600, hdd: 600})
