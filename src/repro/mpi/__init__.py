"""Message-passing library over the simulated fabric (MPICH stand-in).

API mirrors mpi4py's lower-case object interface: ``send``/``recv``/
``isend``/``sendrecv`` plus tree-based collectives (``barrier``,
``bcast``, ``reduce``, ``allreduce``, ``allgather``, ``alltoall``)
implemented, MPICH-style, on top of
point-to-point binomial trees — so collective *cost* emerges from the
fabric model rather than being hard-coded. All blocking calls are
generators: ``data = yield from comm.recv(...)``.
"""

from repro.mpi.comm import Comm, MpiWorld
from repro.net.message import ANY_SOURCE, ANY_TAG

__all__ = ["ANY_SOURCE", "ANY_TAG", "Comm", "MpiWorld"]
