"""The per-node Deep Memory and Storage Hierarchy (DMSH).

An ordered stack of :class:`~repro.storage.device.Device` instances,
fastest first. The MegaMmap Data Organizer asks the DMSH where a page
of a given score should live; the DMSH also answers capacity queries
and computes the hardware cost of a composition (Fig. 7's $ axis).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.sim import Monitor, Simulator
from repro.storage.device import Device, DeviceSpec
from repro.storage.tiers import GB


class DMSH:
    """Ordered tier stack for one node.

    ``specs`` are sorted by descending performance score at
    construction, so ``dmsh.tiers[0]`` is always the fastest tier.
    """

    def __init__(self, sim: Simulator, specs: Iterable[DeviceSpec],
                 node_id: int = 0, monitor: Optional[Monitor] = None):
        ordered = sorted(specs, key=lambda s: s.perf_score(), reverse=True)
        if not ordered:
            raise ValueError("DMSH needs at least one tier")
        self.node_id = node_id
        self.tiers: List[Device] = [
            Device(sim, spec, name=f"node{node_id}.{spec.kind}",
                   monitor=monitor)
            for spec in ordered
        ]
        kinds = [d.spec.kind for d in self.tiers]
        if len(set(kinds)) != len(kinds):
            raise ValueError(f"duplicate tier kinds in DMSH: {kinds}")

    def __iter__(self):
        return iter(self.tiers)

    def tier(self, kind: str) -> Device:
        for dev in self.tiers:
            if dev.spec.kind == kind:
                return dev
        raise KeyError(f"no tier {kind!r} on node {self.node_id}")

    def fastest_with_room(self, nbytes: int) -> Optional[Device]:
        """Fastest tier that can absorb ``nbytes`` right now, or None."""
        for dev in self.tiers:
            if dev.fits(nbytes):
                return dev
        return None

    def tier_for_score(self, score: float, nbytes: int,
                       current: Optional[Device] = None
                       ) -> Optional[Device]:
        """Map a page score in [0, 1] to a target tier with room.

        The fastest tier accepts scores above its own performance-rank
        threshold; lower scores map to deeper tiers. If the mapped tier
        is full, the next deeper tier with room is chosen. ``current``,
        the tier that already holds the page, has room for it: a page
        stays where it is rather than move down for want of space
        beside itself.
        """
        n = len(self.tiers)
        # score 1.0 -> tier 0; score 0.0 -> deepest tier.
        idx = min(n - 1, int((1.0 - score) * n))
        for dev in self.tiers[idx:]:
            if dev is current or dev.fits(nbytes):
                return dev
        return None

    def deeper_with_room(self, dev: Device,
                         nbytes: int) -> Optional[Device]:
        """Fastest tier below ``dev`` that can absorb ``nbytes`` right
        now, or None (a demotion's destination)."""
        below = self.tiers[self.tiers.index(dev) + 1:]
        return next((d for d in below if d.fits(nbytes)), None)

    def fastest_durable(self) -> Optional[Device]:
        """Fastest tier whose medium survives a node crash (PMEM
        before NVMe before SSD...), or None on an all-volatile node.
        The durability subsystem hosts its write-ahead log here."""
        for dev in self.tiers:
            if dev.spec.durable:
                return dev
        return None

    # -- accounting -------------------------------------------------------
    def hardware_cost(self) -> float:
        """$ cost of the composition: capacity × $/GB summed over tiers."""
        return sum(d.capacity / GB * d.spec.cost_per_gb for d in self.tiers)

    def describe(self) -> str:
        """Fig. 7-style label, e.g. ``48D-16N-32S`` (sizes in MB or GB)."""
        letter = {"dram": "D", "cxl": "C", "pmem": "P", "nvme": "N",
                  "ssd": "S", "hdd": "H"}
        parts = []
        for dev in self.tiers:
            cap = dev.capacity
            if cap >= GB:
                size = f"{cap // GB}"
            else:
                size = f"{cap // (1024 ** 2)}"
            parts.append(f"{size}{letter.get(dev.spec.kind, '?')}")
        return "-".join(parts)
