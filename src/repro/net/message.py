"""Typed messages and tag-matched mailboxes.

:class:`Mailbox` implements MPI-style matching: a receive for
``(source, tag)`` matches the oldest message whose source and tag are
equal or wildcarded. The `repro.mpi` Comm keeps one mailbox per rank.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, List, Optional, Tuple

from repro.sim import Event, Simulator

#: Wildcards, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
ANY_SOURCE = -1
ANY_TAG = -1

#: Wire size of a request envelope (task metadata without payload).
ENVELOPE = 128
#: Per-item header inside a vectored (batched) envelope: page index,
#: region bounds, fragment table — far smaller than a full envelope.
ITEM_HEADER = 32
#: Extra wire bytes per retransmission attempt: the NACK/timeout probe
#: and the repeated envelope (the payload itself is re-sent in full and
#: accounted separately by the fabric's drop model).
RETRY_HEADER = 64


def batched_nbytes(payload_sizes, envelope: int = ENVELOPE,
                   header: int = ITEM_HEADER) -> int:
    """Wire size of one vectored request carrying several operations.

    A batch pays one ``envelope`` plus a small ``header`` per item
    (instead of a full envelope per item), then the item payloads
    back-to-back — the framing MegaMmap's batched task submission and
    UMap-style multi-page fill/evict RPCs use.
    """
    total = envelope
    for size in payload_sizes:
        total += header + size
    return total


@dataclass(slots=True)
class Message:
    """One in-flight message."""

    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: int


def payload_nbytes(payload: Any) -> int:
    """Estimate the wire size of a payload.

    NumPy arrays report exactly; other Python objects get a small
    envelope estimate (the simulation never pickles — payloads are
    passed by reference and, for arrays, copied at the API boundary).
    """
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, (list, tuple)):
        return 64 + sum(payload_nbytes(p) for p in payload)
    if isinstance(payload, dict):
        return 64 + sum(payload_nbytes(k) + payload_nbytes(v)
                        for k, v in payload.items())
    return 64


class Mailbox:
    """Per-rank queue with (source, tag) matching semantics."""

    __slots__ = ("sim", "_messages", "_waiters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._messages: Deque[Message] = deque()
        self._waiters: List[Tuple[int, int, Event]] = []

    def deliver(self, msg: Message) -> None:
        """Called by the transport when a message arrives."""
        for i, (src, tag, evt) in enumerate(self._waiters):
            if _matches(msg, src, tag):
                del self._waiters[i]
                evt.succeed(msg)
                return
        self._messages.append(msg)

    def receive(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Event:
        """Event yielding the first matching :class:`Message`."""
        evt = Event(self.sim)
        for i, msg in enumerate(self._messages):
            if _matches(msg, source, tag):
                del self._messages[i]
                evt.succeed(msg)
                return evt
        self._waiters.append((source, tag, evt))
        return evt

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Message]:
        """Peek without removing (``MPI_Probe``-like)."""
        for msg in self._messages:
            if _matches(msg, source, tag):
                return msg
        return None

    @property
    def pending(self) -> int:
        return len(self._messages)


def _matches(msg: Message, source: int, tag: int) -> bool:
    return ((source == ANY_SOURCE or msg.src == source)
            and (tag == ANY_TAG or msg.tag == tag))
