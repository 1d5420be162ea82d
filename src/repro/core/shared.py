"""Cluster-global shared vector metadata.

One :class:`SharedVector` exists per vector key per deployment; every
process's :class:`~repro.core.vector.Vector` handle references it.
Processes "connect to the shared vector using a semantic, user-defined
key common to all processes" (paper III-A).
"""

from __future__ import annotations

from typing import Optional, Set

import numpy as np

from repro.core.coherence import CoherencePolicy
from repro.core.errors import VectorError
from repro.sim.rand import spawn_seed
from repro.storage.backend import Backend, open_backend


class SharedVector:
    """Metadata + scache bookkeeping for one shared vector."""

    def __init__(self, name: str, dtype, page_size: int,
                 length: int = 0, volatile: bool = True,
                 n_nodes: int = 1, placement: Optional[str] = None):
        self.name = name
        self.dtype = np.dtype(dtype)
        self.itemsize = self.dtype.itemsize
        if page_size < self.itemsize:
            raise VectorError(
                f"page size {page_size} smaller than element size "
                f"{self.itemsize}")
        if page_size % self.itemsize:
            raise VectorError(
                f"page size {page_size} not a multiple of element size "
                f"{self.itemsize}")
        self.page_size = page_size
        self.elems_per_page = page_size // self.itemsize
        self.length = length
        self.volatile = volatile
        self.n_nodes = n_nodes
        self.policy: CoherencePolicy = CoherencePolicy.READ_WRITE_GLOBAL
        #: Incremented on every policy change; clients compare against
        #: their last-seen epoch to invalidate private caches exactly
        #: once per phase change (SPMD processes all observe it).
        self.policy_epoch = 0
        self.backend: Optional[Backend] = None
        #: scache pages modified since the last stage-out.
        self.dirty_pages: Set[int] = set()
        #: pages with at least one replica (fast phase-change sweep).
        self.replicated_pages: Set[int] = set()
        #: Stage-in bookkeeping (``DataStager.materialize``). Keyed
        #: page -> {stripe: ...}: the requests in flight for a page's
        #: pieces, and the pieces already fetched of a page that
        #: straddles a stripe boundary and still waits for the rest.
        self.staging: dict = {}
        self.fragments: dict = {}
        #: {device: bytes} the requests in flight will need there when
        #: they publish, and the stripes whose read-ahead died (left to
        #: demand from then on).
        self.earmarked: dict = {}
        self.no_ahead: Set[int] = set()
        self.destroyed = False
        # Deterministic per-vector salt for page->node hashing, keyed
        # by the placement name (``hermes.mdm.placement_name``).
        self._salt = spawn_seed(0xC0FFEE, placement or name)

    # -- geometry ---------------------------------------------------------
    @property
    def n_pages(self) -> int:
        return -(-self.length // self.elems_per_page) if self.length else 0

    @property
    def nbytes(self) -> int:
        return self.length * self.itemsize

    def page_nbytes(self, page_idx: int) -> int:
        """Bytes held by this page (the final page may be partial)."""
        if page_idx < 0 or page_idx >= self.n_pages:
            raise VectorError(
                f"page {page_idx} outside vector of {self.n_pages} pages")
        last = self.n_pages - 1
        if page_idx < last:
            return self.page_size
        rem = self.nbytes - last * self.page_size
        return rem

    def owner_node(self, page_idx: int, client_node: int) -> int:
        """Runtime node whose workers serialize this page's tasks.

        LOCAL affinity keeps pages on the producing node; GLOBAL
        policies hash so all processes agree (strong consistency via
        same-worker scheduling, paper III-B).
        """
        if self.policy.local_affinity:
            return client_node
        return spawn_seed(self._salt, page_idx) % self.n_nodes

    @property
    def coordinator_node(self) -> int:
        """Node that arbitrates appends/resizes for this vector."""
        return self._salt % self.n_nodes

    # -- backend ----------------------------------------------------------
    def ensure_backend(self, create: bool = True) -> Backend:
        if self.volatile:
            raise VectorError(
                f"volatile vector {self.name!r} has no backend")
        if self.backend is None:
            self.backend = open_backend(self.name, dtype=self.dtype,
                                        create=create)
        return self.backend

    def grow(self, new_length: int) -> None:
        if new_length < self.length:
            raise VectorError("vectors cannot shrink (destroy instead)")
        self.length = new_length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SharedVector {self.name!r} len={self.length} "
                f"dtype={self.dtype} pages={self.n_pages} "
                f"policy={self.policy.value}>")
