"""Simulated cluster network fabric.

Models the paper's testbed interconnect: a compute rack and a storage
rack "interconnected by two isolated Ethernet networks (one of 40Gb/s
and the other 10Gb/s), with RoCE enabled". Transfers are charged
``latency + bytes/bandwidth`` and serialized per sending NIC, so
incast/fan-out contention emerges naturally.
"""

from repro.net.fabric import LinkSpec, Network, fan_out
from repro.net.message import Mailbox, Message, batched_nbytes

__all__ = ["LinkSpec", "Mailbox", "Message", "Network",
           "batched_nbytes", "fan_out"]
