"""Exception hierarchy for the MegaMmap core."""


class MegaMmapError(RuntimeError):
    """Base class for all MegaMmap errors."""


class VectorError(MegaMmapError):
    """Misuse of a shared vector (bad range, dtype mismatch, ...)."""


class TransactionError(MegaMmapError):
    """Misuse of the transactional memory API (nested tx, access
    outside the declared region, write under a read-only intent)."""


class QuotaExceededError(MegaMmapError):
    """A tenant exceeded a hard quota, or a job's minimum quota cannot
    be admitted against the cluster's capacity."""
