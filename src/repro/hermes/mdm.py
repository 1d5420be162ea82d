"""Distributed metadata manager.

Blob directory entries are partitioned across nodes by key hash (the
way Hermes distributes its metadata). A lookup or update from a node
that does not own the entry costs one small RPC round trip on the
fabric; owner-local operations are free. Entries themselves are plain
Python objects — the *time* is simulated, the bookkeeping is real.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Iterable, Optional, Tuple

from repro.hermes.blob import BlobInfo, BlobNotFound
from repro.net.fabric import Network, fan_out
from repro.sim import Simulator

#: Wire size charged per metadata RPC (request + response envelope).
MDM_RPC_BYTES = 256
#: Extra wire bytes per additional entry in a vectored metadata RPC.
MDM_ITEM_BYTES = 32


def placement_name(name: str, workdir: Optional[str]) -> str:
    """The string a vector is placed by (its blobs' metadata nodes,
    its pages' owners and worker FIFOs): the name as written, except
    that an absolute dataset URL under the run's ``workdir`` is named
    ``./`` plus its path relative to that workdir. One spec run in two
    directories therefore places everything alike, and a relative URL
    (``parquet://./x.parquet`` from workdir ``.``) already is that
    name."""
    scheme, sep, path = name.partition("://")
    if not sep or workdir is None or not os.path.isabs(path):
        return name
    rel = os.path.relpath(path, os.path.abspath(workdir))
    if rel == os.pardir or rel.startswith(os.pardir + os.sep):
        return name
    return f"{scheme}://./{rel}"


def _stable_hash(bucket: str, key: object) -> int:
    raw = f"{bucket}\x00{key!r}".encode()
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(),
                          "little")


class MetadataManager:
    """Hash-partitioned blob directory with RPC-costed remote access."""

    def __init__(self, sim: Simulator, network: Network, n_nodes: int):
        self.sim = sim
        self.network = network
        self.n_nodes = n_nodes
        self._shards: list[Dict[Tuple[str, object], BlobInfo]] = [
            {} for _ in range(n_nodes)
        ]
        # Per-node metadata caches: a remote lookup's result is cached
        # on the requesting node, so repeated accesses to the same
        # (typically node-local) blob skip the RPC — as Hermes clients
        # cache blob metadata. A cached entry is valid while it is
        # still the shard's live object (entries are mutated in place
        # by moves/score updates and replaced on delete/re-put).
        self._caches: list[Dict[Tuple[str, object], BlobInfo]] = [
            {} for _ in range(n_nodes)
        ]
        self.rpcs = 0
        self.cache_hits = 0
        #: The run's workdir (set by whoever launches from a spec):
        #: dataset URLs under it are placed by their relative path.
        self.workdir: Optional[str] = None
        self._placed: Dict[str, str] = {}

    def placement_name(self, bucket: str) -> str:
        """:func:`placement_name` of ``bucket`` under :attr:`workdir`."""
        placed = self._placed.get(bucket)
        if placed is None:
            placed = self._placed[bucket] = placement_name(bucket,
                                                           self.workdir)
        return placed

    def owner_of(self, bucket: str, key: object) -> int:
        return _stable_hash(self.placement_name(bucket), key) \
            % self.n_nodes

    def _rpc(self, client_node: int, owner: int):
        if client_node != owner:
            self.rpcs += 1
            yield from self.network.transfer(client_node, owner,
                                             MDM_RPC_BYTES)
            yield from self.network.transfer(owner, client_node,
                                             MDM_RPC_BYTES)

    # All methods are generators (timed); `*_local` variants are the
    # untimed primitives used by runtime components already resident on
    # the owner node.
    def _cached(self, client_node: int, bucket: str,
                key: object) -> Optional[BlobInfo]:
        entry = self._caches[client_node].get((bucket, key))
        if entry is None:
            return None
        owner = self.owner_of(bucket, key)
        live = self._shards[owner].get((bucket, key))
        if live is entry:
            self.cache_hits += 1
            return entry
        self._caches[client_node].pop((bucket, key), None)
        return None

    def put(self, client_node: int, info: BlobInfo):
        owner = self.owner_of(info.bucket, info.key)
        yield from self._rpc(client_node, owner)
        self._shards[owner][(info.bucket, info.key)] = info
        self._caches[client_node][(info.bucket, info.key)] = info

    def get(self, client_node: int, bucket: str, key: object):
        hit = self._cached(client_node, bucket, key)
        if hit is not None:
            return hit
        owner = self.owner_of(bucket, key)
        yield from self._rpc(client_node, owner)
        info = self._get_local(owner, bucket, key)
        self._caches[client_node][(bucket, key)] = info
        return info

    def _rpc_many(self, client_node: int, owners: Dict[int, int]):
        """One metadata round trip per remote owner shard, carrying
        ``owners[owner]`` entries, every shard's at once
        (:func:`~repro.net.fan_out`): the call waits for the last
        reply, one round trip, not one per shard. Generator."""
        net = self.network
        # Spawned (several shards), a transfer names this call's span.
        cause = net.tracer.current_span_id() if len(owners) > 1 else None

        def round_trip(owner: int, n_items: int):
            self.rpcs += 1
            nbytes = MDM_RPC_BYTES + MDM_ITEM_BYTES * max(0, n_items - 1)
            yield from net.transfer(client_node, owner, nbytes,
                                    cause=cause)
            yield from net.transfer(owner, client_node, nbytes,
                                    cause=cause)

        yield from fan_out(self.sim, [
            (owner, round_trip(owner, n)) for owner, n in owners.items()])

    def put_many(self, client_node: int, infos):
        """Vectored :meth:`put`: one batched RPC per remote owner
        shard instead of one round trip per entry, all shards' at
        once. Generator."""
        owners: Dict[int, int] = {}
        for info in infos:
            owner = self.owner_of(info.bucket, info.key)
            if owner != client_node:
                owners[owner] = owners.get(owner, 0) + 1
        yield from self._rpc_many(client_node, owners)
        for info in infos:
            owner = self.owner_of(info.bucket, info.key)
            self._shards[owner][(info.bucket, info.key)] = info
            self._caches[client_node][(info.bucket, info.key)] = info

    def try_get_many(self, client_node: int, bucket: str, keys):
        """Vectored :meth:`try_get`: cache-missed keys cost one
        batched RPC per remote owner shard, all shards' at once.
        Generator; returns ``{key: Optional[BlobInfo]}`` (absent keys
        map to None)."""
        out: Dict[object, Optional[BlobInfo]] = {}
        owners: Dict[int, int] = {}
        misses = []
        for key in dict.fromkeys(keys):
            hit = self._cached(client_node, bucket, key)
            if hit is not None:
                out[key] = hit
                continue
            misses.append(key)
            owner = self.owner_of(bucket, key)
            if owner != client_node:
                owners[owner] = owners.get(owner, 0) + 1
        yield from self._rpc_many(client_node, owners)
        for key in misses:
            owner = self.owner_of(bucket, key)
            info = self._shards[owner].get((bucket, key))
            if info is not None:
                self._caches[client_node][(bucket, key)] = info
            out[key] = info
        return out

    def try_get(self, client_node: int, bucket: str, key: object):
        """Like :meth:`get` but returns None instead of raising."""
        hit = self._cached(client_node, bucket, key)
        if hit is not None:
            return hit
        owner = self.owner_of(bucket, key)
        yield from self._rpc(client_node, owner)
        info = self._shards[owner].get((bucket, key))
        if info is not None:
            self._caches[client_node][(bucket, key)] = info
        return info

    def delete(self, client_node: int, bucket: str, key: object):
        owner = self.owner_of(bucket, key)
        yield from self._rpc(client_node, owner)
        info = self._shards[owner].pop((bucket, key), None)
        self._caches[client_node].pop((bucket, key), None)
        if info is None:
            raise BlobNotFound((bucket, key))
        return info

    def _get_local(self, owner: int, bucket: str, key: object) -> BlobInfo:
        try:
            return self._shards[owner][(bucket, key)]
        except KeyError:
            raise BlobNotFound((bucket, key)) from None

    def drop_caches(self, node: int) -> None:
        """Forget one node's metadata cache. A crashed node loses its
        in-memory cache with everything else; the recovery path calls
        this so the restarted node re-resolves entries through the
        owner shards instead of trusting pre-crash pointers."""
        self._caches[node].clear()

    def peek(self, bucket: str, key: object) -> Optional[BlobInfo]:
        """Untimed lookup (no RPC is charged)."""
        owner = self.owner_of(bucket, key)
        return self._shards[owner].get((bucket, key))

    def list_bucket(self, bucket: str) -> Iterable[BlobInfo]:
        """Untimed scan over all shards (``Vector.destroy``)."""
        for shard in self._shards:
            for (b, _k), info in list(shard.items()):
                if b == bucket:
                    yield info

    def all_blobs(self) -> Iterable[BlobInfo]:
        for shard in self._shards:
            yield from shard.values()
