"""µDBSCAN-style density clustering (paper IV-A2).

Recursive kd-style median splits partition space across processes
(exchanging points alltoall), each process clusters its cell locally
(scipy cKDTree region queries), and the µclusters joined across cell
boundaries by eps-close pairs are merged as connected components.
"""

from repro.apps.dbscan.common import merge_labels, local_dbscan, reference_dbscan
from repro.apps.dbscan.mm_dbscan import mm_dbscan
from repro.apps.dbscan.mpi_dbscan import mpi_dbscan

__all__ = ["local_dbscan", "merge_labels", "mm_dbscan", "mpi_dbscan",
           "reference_dbscan"]
