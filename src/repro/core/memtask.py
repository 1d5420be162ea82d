"""MemoryTasks: the unit of work shipped to the MegaMmap runtime.

Paper III-B: "During page fault, eviction, and flushing operations, the
MegaMmap library constructs a MemoryTask that contains the subset of a
page to read or update from the scache. The task will be placed in the
queue and polled by the runtime, which will then be scheduled to a
worker and executed."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.sim import Event


class TaskKind(Enum):
    READ = "read"
    WRITE = "write"
    SCORE = "score"
    DELETE = "delete"
    #: Object-granular extent read: fetch ``region`` from the owner's
    #: scache without installing a pcache frame on the client (DOLMA
    #: regime — sub-page objects served at object granularity).
    OBJ_READ = "obj_read"


@dataclass(slots=True)
class MemoryTask:
    """One scheduled unit of scache work.

    ``fragments`` for WRITE tasks: list of (page offset, buffer) — the
    exact modified byte ranges, never the whole page unless the whole
    page is dirty (partial paging, III-C). Buffers are ``bytes``
    copies (flush: the source frame stays writable) or uint8 ndarray
    views (evict: the source frame was dropped, so the task owns the
    buffer exclusively).
    ``region`` for READ tasks: (page offset, nbytes) to fetch; the
    whole page when None.
    ``through`` for WRITE tasks: the ack means the owner applied the
    bytes and, under replication, replicated them (write-through);
    otherwise durability copies ship after the ack (write-behind).
    ``scores`` for SCORE tasks: list of (page_idx, score, node_hint).
    ``done`` fires with the result (bytes for READ, None otherwise).
    """

    kind: TaskKind
    vector_name: str
    page_idx: int
    client_node: int
    region: Optional[Tuple[int, int]] = None
    fragments: List[Tuple[int, bytes]] = field(default_factory=list)
    through: bool = False
    scores: List[Tuple[int, float, int]] = field(default_factory=list)
    done: Optional[Event] = None
    #: Sim time the task entered the owning runtime's queue; the
    #: worker reports ``now - submit_time`` as the queue-wait span.
    submit_time: float = 0.0
    #: Span id of the client-side submit span (tracing only); the
    #: owning runtime stamps it as ``cause`` on the queue-wait and
    #: service spans so the cross-process edge survives export.
    ctx: Optional[int] = None
    #: Bytes of the client node's DRAM this task's payload still
    #: occupies — the storage of the dropped frame an evicting WRITE
    #: owns. The client's outbound path returns them to the node once
    #: the shipment has left it.
    pinned: int = 0
    #: A serviced read's wire half, as for :attr:`BatchTask.reply`:
    #: ``{source node: bytes}`` read but left where they were.
    reply: Optional[Dict[int, int]] = None

    @property
    def nbytes(self) -> int:
        """Payload size used for the low/high-latency worker split."""
        if self.kind in (TaskKind.READ, TaskKind.OBJ_READ):
            return self.region[1] if self.region else 1 << 30
        if self.kind is TaskKind.WRITE:
            return sum(len(d) for _, d in self.fragments)
        return 0


#: Cap on the pages one batched task may carry (bounds per-batch
#: latency and worker monopolization). Read as
#: ``memtask.BATCH_MAX_PAGES`` so a test can patch it in one place.
BATCH_MAX_PAGES = 64


@dataclass(slots=True)
class BatchTask:
    """Several same-kind MemoryTasks for one owner node, shipped and
    serviced as a unit.

    The client groups page operations by owner and pays one envelope +
    payload transfer per owner instead of per page (vectored RPC); the
    runtime fans the batch out to the per-page worker FIFOs so the
    read-after-write ordering guarantee of same-page tasks is kept, and
    the scache serves the whole batch with one stage-in round per
    contiguous extent. ``done`` fires with the list of per-task results
    in ``tasks`` order.

    ``reply`` is the wire half of those results: ``{source node:
    bytes}`` the service read but left where they were. The runtime
    sends them to ``client_node`` -- one transfer per source node for
    the whole request -- after the service and before ``done`` fires.
    Results that shipped themselves (failover, replicating reads) are
    not in it; a write batch never has one.
    """

    kind: TaskKind
    vector_name: str
    client_node: int
    tasks: List[MemoryTask] = field(default_factory=list)
    done: Optional[Event] = None
    submit_time: float = 0.0
    #: Causal span id of the submit_batch span (see MemoryTask.ctx).
    ctx: Optional[int] = None
    reply: Dict[int, int] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        return sum(t.nbytes for t in self.tasks)

    @property
    def pinned(self) -> int:
        return sum(t.pinned for t in self.tasks)

    @property
    def pages(self) -> List[int]:
        return [t.page_idx for t in self.tasks]

    def __len__(self) -> int:
        return len(self.tasks)
