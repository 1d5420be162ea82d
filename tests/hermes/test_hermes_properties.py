"""Property-based Hermes tests: random blob operations vs a model.

Invariants checked after arbitrary put/put_partial/get/move/delete
sequences:

* content: every live blob reads back exactly what the model holds;
* capacity: no device ever exceeds its capacity; `used` equals the sum
  of its blobs;
* metadata: every MDM entry's placements exist on the named devices,
  and no device holds a blob without a metadata entry;
* residency: ``Hermes.residents(node, tier)`` -- read off the device --
  is exactly the entries whose primary is there, replicas excluded;
* node failure: after ``fail_node``, no entry names the failed node and
  each primary it held with a replica elsewhere is promoted.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.reliability import ReliabilityManager
from repro.hermes import Hermes, PlacementError
from repro.hermes.blob import BlobNotFound
from repro.net import LinkSpec, Network
from repro.sim import Monitor, Simulator
from repro.storage import DMSH, DeviceSpec
from repro.storage.device import DeviceFullError

TIERS = (
    DeviceSpec("dram", capacity=4096, read_bw=1e6, write_bw=1e6,
               latency=0.0, byte_addressable=True),
    DeviceSpec("nvme", capacity=16384, read_bw=1e5, write_bw=1e5,
               latency=0.0),
)

KEYS = ["a", "b", "c", "d"]

ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(KEYS),
                  st.integers(1, 3000), st.integers(0, 255),
                  st.integers(0, 1)),
        st.tuples(st.just("patch"), st.sampled_from(KEYS),
                  st.integers(0, 2999), st.integers(1, 64),
                  st.integers(0, 255)),
        st.tuples(st.just("get"), st.sampled_from(KEYS)),
        st.tuples(st.just("move"), st.sampled_from(KEYS),
                  st.sampled_from(["dram", "nvme"]), st.integers(0, 1)),
        st.tuples(st.just("delete"), st.sampled_from(KEYS)),
        st.tuples(st.just("replicate"), st.sampled_from(KEYS),
                  st.integers(0, 1)),
    ),
    min_size=1, max_size=20,
)


def _assert_residency(h):
    """``residents`` equals the matching filter of ``all_blobs()``,
    per device and per node."""
    def keys(infos):
        return sorted((i.bucket, i.key) for i in infos)

    for node, dmsh in enumerate(h.dmshs):
        for dev in dmsh:
            assert keys(h.residents(node, dev.spec.kind)) == keys(
                i for i in h.mdm.all_blobs()
                if (i.node, i.tier) == (node, dev.spec.kind))
        assert keys(h.residents(node)) == keys(
            i for i in h.mdm.all_blobs() if i.node == node)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops, fail=st.sampled_from([None, 0, 1]))
def test_random_blob_ops_hold_invariants(ops, fail):
    sim = Simulator()
    net = Network(sim, 2, intra=LinkSpec(bandwidth=1e9, latency=0.0))
    dmshs = [DMSH(sim, TIERS, node_id=i) for i in range(2)]
    h = Hermes(sim, net, dmshs)
    model = {}
    issues = []

    def driver():
        for op in ops:
            kind = op[0]
            try:
                if kind == "put":
                    _, key, size, fill, node = op
                    data = bytes([fill]) * size
                    # A write phase drops the replicas first, as the
                    # coherence layer does (an in-place put updates
                    # the primary only).
                    yield from h.invalidate_replicas(node, "bkt", key)
                    yield from h.put(node, "bkt", key, data,
                                     target_node=node)
                    model[key] = bytearray(data)
                elif kind == "patch":
                    _, key, off, n, fill = op
                    if key not in model or \
                            off + n > len(model[key]):
                        continue
                    patch = bytes([fill]) * n
                    yield from h.put_partial(0, "bkt", key, off, patch)
                    model[key][off:off + n] = patch
                elif kind == "get":
                    _, key = op
                    if key not in model:
                        continue
                    raw = yield from h.get(0, "bkt", key)
                    if raw != bytes(model[key]):
                        issues.append(("content", key))
                elif kind == "move":
                    _, key, tier, node = op
                    if key not in model:
                        continue
                    yield from h.move("bkt", key, node, tier)
                elif kind == "delete":
                    _, key = op
                    if key not in model:
                        continue
                    yield from h.delete(0, "bkt", key)
                    del model[key]
                elif kind == "replicate":
                    _, key, node = op
                    if key not in model:
                        continue
                    yield from h.replicate(node, "bkt", key)
            except (PlacementError, DeviceFullError):
                # Capacity refusals are legal outcomes; the model keeps
                # the previous state only if the blob is still intact.
                if kind == "put":
                    info = h.mdm.peek("bkt", op[1])
                    if info is None:
                        model.pop(op[1], None)
            except BlobNotFound:
                issues.append(("missing", op))

        # -- invariants -------------------------------------------------
        for key, content in model.items():
            raw = yield from h.get(0, "bkt", key)
            if raw != bytes(content):
                issues.append(("final-content", key))

    sim.run(until=sim.process(driver(), name="driver"))
    assert not issues, issues[0]

    live = {info.key: info for info in h.mdm.all_blobs()}
    assert set(live) == set(model)
    for dmsh in (h.dmshs):
        for dev in dmsh:
            blob_bytes = sum(len(dev.peek(k)) for k in dev.keys())
            assert dev.used == blob_bytes
            assert dev.used <= dev.capacity
            for k in dev.keys():
                bucket, key = k
                info = live.get(key)
                assert info is not None, f"orphan blob {k}"
                assert (dmsh.node_id, dev.spec.kind) in info.placements
    for info in live.values():
        for node, tier in info.placements:
            dev = h.dmshs[node].tier(tier)
            assert ("bkt", info.key) in dev
    _assert_residency(h)

    if fail is None:
        return
    before = {i.key: i.placements for i in live.values()}
    system = SimpleNamespace(
        hermes=h, dmshs=dmshs, monitor=Monitor(sim),
        durability=SimpleNamespace(on_fail_node=lambda node: None))
    ReliabilityManager(system).fail_node(fail)
    for key, placements in before.items():
        info = live[key]
        assert fail not in (n for n, _t in info.placements), info
        if placements[0][0] != fail:
            assert info.placements[0] == placements[0]
            continue
        elsewhere = [p for p in placements[1:] if p[0] != fail]
        assert (info.node, info.tier) == (elsewhere[0] if elsewhere
                                          else (-1, placements[0][1]))
    assert not any(dev.keys() for dev in dmshs[fail])
    _assert_residency(h)
