"""Data placement: the error a placement raises when no tier fits.

Placement itself is one rule, in :meth:`repro.hermes.core.Hermes._place`
(paper III-D: "The organizer will first attempt to place pages in the
fastest tiers if there is available capacity. Pages with lower scores
in a tier will be prioritized for eviction to make space for
higher-scoring data"): start at the fastest tier, demote colder
residents out of it, else fall deeper, else fail.
"""


class PlacementError(RuntimeError):
    """No tier can absorb the blob."""
