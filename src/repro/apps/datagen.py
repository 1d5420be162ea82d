"""Gadget-like synthetic particle dataset generator.

The paper's datasets are Gadget-4 cosmology outputs (3-D particle
positions + velocities with halo structure) analyzed by KMeans/DBSCAN/
RF to locate halos. Its AD appendix notes the artifact ships an
"internal kmeans dataset generator ... which outputs data in a similar
format to Gadget and can be used to accelerate reproducibility" — this
module is that generator: ``k`` gravitationally bound halos with
Gaussian radial profiles plus a uniform background, positions and
velocities correlated per halo, written to the hdf5sim container the
way Gadget writes HDF5 snapshots.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from repro.sim.rand import rng_stream
from repro.storage.backend import parse_url
from repro.storage.formats.hdf5sim import Hdf5SimBackend
from repro.storage.formats.parquetsim import ParquetSimBackend

#: Packed 3-D point record (the applications' Point3D).
POINT3D = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4")])

#: Position+velocity record (what Gadget snapshots carry per particle).
PARTICLE = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                     ("vx", "<f4"), ("vy", "<f4"), ("vz", "<f4")])

BOX_SIZE = 100.0          # comoving box edge, arbitrary units
BACKGROUND_FRACTION = 0.1  # particles not bound to any halo


def generate_points(n: int, k: int, seed: int = 0,
                    spread: float = 2.0,
                    with_velocity: bool = False,
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Synthesize ``n`` particles clustered into ``k`` halos.

    Returns ``(particles, labels)`` where labels give the generating
    halo (-1 for background). ``particles`` has dtype
    :data:`POINT3D` or :data:`PARTICLE`.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n} k={k}")
    rng = rng_stream(seed, "gadget", n, k)
    centers = rng.uniform(0.15 * BOX_SIZE, 0.85 * BOX_SIZE, size=(k, 3))
    halo_v = rng.normal(0.0, 50.0, size=(k, 3))
    n_bg = int(n * BACKGROUND_FRACTION)
    n_halo = n - n_bg
    counts = np.full(k, n_halo // k)
    counts[: n_halo % k] += 1
    dtype = PARTICLE if with_velocity else POINT3D
    out = np.zeros(n, dtype=dtype)
    labels = np.full(n, -1, dtype=np.int32)
    pos = np.empty((n, 3), dtype=np.float64)
    vel = np.empty((n, 3), dtype=np.float64)
    i = 0
    for h in range(k):
        c = counts[h]
        pos[i:i + c] = centers[h] + rng.normal(0.0, spread, size=(c, 3))
        vel[i:i + c] = halo_v[h] + rng.normal(0.0, 10.0, size=(c, 3))
        labels[i:i + c] = h
        i += c
    pos[i:] = rng.uniform(0.0, BOX_SIZE, size=(n - i, 3))
    vel[i:] = rng.normal(0.0, 80.0, size=(n - i, 3))
    # Shuffle so partitions are unbiased (as a real snapshot is). The
    # velocities are drawn either way (they belong to the seeded
    # stream) but only gathered when they are written.
    order = rng.permutation(n)
    pos, labels = pos[order], labels[order]
    for j, f in enumerate(("x", "y", "z")):
        out[f] = pos[:, j].astype(np.float32)
    if with_velocity:
        vel = vel[order]
        for j, f in enumerate(("vx", "vy", "vz")):
            out[f] = vel[:, j].astype(np.float32)
    return out, labels


def _start_afresh(path: str) -> None:
    """A writer replaces ``path``; it never adds to an older file. (A
    backend opened with ``create=True`` opens a file that exists: a
    parquetsim one would get a second copy of the records appended,
    an hdf5sim one its groups rewritten at the end, the old bytes left
    behind as a hole.)"""
    if os.path.exists(path):
        os.remove(path)


def write_gadget_like(path: str, n: int, k: int, seed: int = 0,
                      with_velocity: bool = True) -> np.ndarray:
    """Write a Gadget-like hdf5sim snapshot; returns the labels.

    Layout mirrors a Gadget HDF5 snapshot: group ``parttype0`` holds
    the packed particle records (and ``labels`` holds ground truth for
    verification, which a real snapshot of course lacks).
    """
    particles, labels = generate_points(n, k, seed,
                                        with_velocity=with_velocity)
    _start_afresh(path)
    be = Hdf5SimBackend(parse_url(f"hdf5://{path}:parttype0"), create=True)
    be.write_group("parttype0", particles)
    be.write_group("labels", labels)
    return labels


def write_parquet_points(path: str, n: int, k: int,
                         seed: int = 0) -> np.ndarray:
    """Write a parquetsim points file (Listing 1's ``points.parquet``);
    returns the labels."""
    points, labels = generate_points(n, k, seed, with_velocity=False)
    _start_afresh(path)
    be = ParquetSimBackend(parse_url(f"parquet://{path}"), dtype=POINT3D,
                           create=True)
    be.append_records(points)
    return labels


def as_xyz(records: np.ndarray) -> np.ndarray:
    """View packed POINT3D/PARTICLE records as an (n, 3) float array."""
    return np.column_stack([records["x"], records["y"], records["z"]]) \
        .astype(np.float64)
