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

    @property
    def asynchronous_writeback(self) -> bool:
        """Write/append-only phases never read back, so evictions can
        be fire-and-forget (III-C, Write and Append Only Global)."""
        return self in (CoherencePolicy.WRITE_ONLY_GLOBAL,
                        CoherencePolicy.APPEND_ONLY_GLOBAL,
                        CoherencePolicy.READ_WRITE_LOCAL)

    def contract(self) -> dict:
        """Checkable consistency contract of this policy.

        The chaos model-checker (:mod:`repro.chaos.checker`) enforces
        exactly these clauses; ``repro.chaos`` docs render them. The
        clauses shared by every policy:

        * ``read_after_write`` — a client that committed a write (its
          frame was flushed or evicted to the scache) reads its own
          value back, even across pcache eviction and node failover.
        * ``failover_reads`` — after a crash, reads of pages whose
          primary was lost return a *legal prior committed* value
          (a replica's or the backend's), never garbage.
        * ``no_lost_appends`` — every acknowledged append is reflected
          in the final vector length and contents.
        * *visibility window* — a write may become visible to other
          clients **before** ``tx_end`` (write-behind ships pages the
          transaction's stream has passed; pcache pressure evicts
          dirty frames), never **after** the writer's ``flush``
          returns. The checker models this by recording a pending
          version at ``write_range`` time that any reader may legally
          observe, and promoting it at ``flush``.

        Per-policy clause:

        * ``stale_reads_until`` — how long a concurrent reader may
          observe the previous committed value of a byte another
          client has overwritten: until the writer's ``flush``
          completes ("flush"), plus until the reader's next
          phase-change invalidation for cached frames ("invalidate").
        """
        return {
            "policy": self.value,
            "read_after_write": True,
            "failover_reads": "legal_prior_committed_value",
            "no_lost_appends": True,
            "replicated_reads": self.allows_replication,
            "stale_reads_until":
                "flush" if not self.asynchronous_writeback
                else "invalidate",
        }


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
