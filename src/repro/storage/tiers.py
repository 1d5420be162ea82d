"""Tier presets matching the paper's testbed and cost figures.

Per compute node (paper IV-A1): 48 GB DRAM, 128 GB NVMe PCIe x8,
256 GB SATA SSD, 1 TB HDD. Costs (IV-B3): HDD ≈ $.02/GB, SATA SSD ≈
$.04/GB, NVMe ≈ $.08/GB. Relative speeds (IV-B3): HDDs are "6-10x
slower than the SSD and NVMe".

Benchmarks run with capacities scaled GB→MB (:func:`scaled`) so a
laptop-size run preserves every capacity *ratio* of the testbed; since
every cost in the simulation is ``bytes / bandwidth``, all relative
results (speedups, crossovers) are invariant under that scaling.
"""

from __future__ import annotations

from repro.storage.device import DeviceSpec

KB = 1024
MB = 1024 ** 2
GB = 1024 ** 3
TB = 1024 ** 4

#: DRAM: ~12 GB/s per-socket sustained, ~100 ns access.
DRAM = DeviceSpec(kind="dram", capacity=48 * GB, read_bw=12e9, write_bw=12e9,
                  latency=1e-7, cost_per_gb=4.0, byte_addressable=True)

#: CXL-attached memory (paper III-E: "traditional libc mmap and memcpy
#: for upcoming CXL devices"): DRAM-like bandwidth, higher latency.
CXL = DeviceSpec(kind="cxl", capacity=64 * GB, read_bw=8e9, write_bw=8e9,
                 latency=4e-7, cost_per_gb=2.0, byte_addressable=True)

#: Persistent memory (Optane-DC-class, the paper's PMEM-adjacent tier
#: and Fridman et al.'s checkpoint medium): byte-addressable like
#: DRAM, asymmetric ~6.6/2.3 GB/s bandwidth, ~300 ns access, and
#: *durable* — the tier the write-ahead intent log lives on.
PMEM = DeviceSpec(kind="pmem", capacity=128 * GB, read_bw=6.6e9,
                  write_bw=2.3e9, latency=3e-7, cost_per_gb=1.0,
                  byte_addressable=True, durable=True)

#: Node-local NVMe over SPDK: ~3.2/2.0 GB/s, ~20 µs.
NVME = DeviceSpec(kind="nvme", capacity=128 * GB, read_bw=3.2e9, write_bw=2.0e9,
                  latency=2e-5, cost_per_gb=0.08, durable=True)

#: SATA SSD: ~500/450 MB/s, ~80 µs.
SATA_SSD = DeviceSpec(kind="ssd", capacity=256 * GB, read_bw=5.0e8,
                      write_bw=4.5e8, latency=8e-5, cost_per_gb=0.04,
                      durable=True)

#: HDD: ~7x slower than the SATA SSD (inside the paper's 6-10x band),
#: 5 ms seek, paid only by an operation that does not continue the
#: previous one (rotational: the device keeps a head position).
HDD = DeviceSpec(kind="hdd", capacity=1 * TB, read_bw=7.2e7, write_bw=7.2e7,
                 latency=5e-3, cost_per_gb=0.02, durable=True,
                 rotational=True)

TIER_PRESETS = {spec.kind: spec
                for spec in (DRAM, CXL, PMEM, NVME, SATA_SSD, HDD)}


def scaled(spec: DeviceSpec, capacity: int) -> DeviceSpec:
    """Preset with an explicit capacity (e.g. the MB-scaled testbed)."""
    return spec.with_capacity(capacity)
