"""Hierarchical buffering substrate (Hermes stand-in).

The paper builds MegaMmap on Hermes (HPDC'18), "a hierarchical
buffering platform, to provide basic infrastructure for enacting data
movement policies and provide metadata management to locate data in
the DMSH". This package is that substrate, from scratch:

* **buckets/blobs** — named data containers holding real bytes on
  simulated tier devices;
* **MDM** — a distributed metadata manager (blob directory partitioned
  by key hash across nodes, lookups charged as small RPCs);
* **DPE** — placement: fastest tier first, colder blobs demoted;
* **buffer organizer** — promotes/demotes blobs between tiers.
"""

from repro.hermes.blob import BlobInfo, BlobNotFound
from repro.hermes.dpe import PlacementError
from repro.hermes.mdm import MetadataManager
from repro.hermes.core import Hermes

__all__ = [
    "BlobInfo",
    "BlobNotFound",
    "Hermes",
    "MetadataManager",
    "PlacementError",
]
