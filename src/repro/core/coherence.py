"""Coherence policies (paper Figure 3) and their mechanics.

The policy of a vector (derived from transaction intent, possibly
changing between phases) decides:

* **placement affinity** — LOCAL policies place pages on the node that
  produced them; GLOBAL policies hash pages to owner nodes so that all
  faults and evictions for one page serialize through one worker;
* **replication** — READ_ONLY_GLOBAL allows page replicas in every
  node's shared cache (and freely in pcaches);
* **invalidation** — a phase change away from READ_ONLY drops replicas.
"""

from __future__ import annotations

from enum import Enum

from repro.core.transaction import Transaction, TxFlags


class CoherencePolicy(Enum):
    """The five access patterns of Figure 3."""

    READ_WRITE_LOCAL = "rw_local"
    READ_ONLY_GLOBAL = "ro_global"
    WRITE_ONLY_GLOBAL = "wo_global"
    APPEND_ONLY_GLOBAL = "ao_global"
    READ_WRITE_GLOBAL = "rw_global"

    @property
    def allows_replication(self) -> bool:
        return self is CoherencePolicy.READ_ONLY_GLOBAL

    @property
    def local_affinity(self) -> bool:
        return self is CoherencePolicy.READ_WRITE_LOCAL


def policy_for(tx: Transaction) -> CoherencePolicy:
    """Derive the Figure-3 policy from transaction intent flags."""
    flags = tx.flags
    if flags & TxFlags.LOCAL:
        return CoherencePolicy.READ_WRITE_LOCAL
    if flags & TxFlags.APPEND:
        return CoherencePolicy.APPEND_ONLY_GLOBAL
    reads = bool(flags & TxFlags.READ)
    writes = bool(flags & TxFlags.WRITE)
    if reads and writes:
        return CoherencePolicy.READ_WRITE_GLOBAL
    if writes:
        return CoherencePolicy.WRITE_ONLY_GLOBAL
    return CoherencePolicy.READ_ONLY_GLOBAL
