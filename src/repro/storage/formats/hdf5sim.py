"""A group-addressed chunked container format (``hdf5://`` scheme).

Structural stand-in for HDF5: one file holds many named *groups*, each
a contiguous dataset region. Layout::

    [magic "HD5S"][u64 index_offset][data regions ...][JSON index]

The JSON index maps group name -> {offset, nbytes}. Growing a
group relocates it to the end of the file (like HDF5's free-space
reuse, simplified: old space is left as a hole until compaction).
The vector key ``hdf5:///path/df.h5:mygroup`` addresses one group.
"""

from __future__ import annotations

import json
import os
import struct
from typing import Dict, Optional

import numpy as np

from repro.storage.backend import Backend, BackendError, ParsedUrl

MAGIC = b"HD5S"
HEADER = struct.Struct("<4sQ")  # magic, index offset
DEFAULT_GROUP = "data"


class Hdf5SimBackend(Backend):
    """One group of an hdf5sim container presented as a flat image."""

    def __init__(self, url: ParsedUrl, dtype: Optional[np.dtype] = None,
                 create: bool = False):
        super().__init__(url)
        self.path = url.path
        self.group = url.params or DEFAULT_GROUP
        if not os.path.exists(self.path):
            if not create:
                raise BackendError(f"no such file: {self.path}")
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(self.path, "wb") as fh:
                fh.write(HEADER.pack(MAGIC, HEADER.size))
                fh.write(json.dumps({}).encode())
        self._index = self._load_index()
        if create and self.group not in self._index:
            self._create_group()

    # -- container plumbing ----------------------------------------------
    def _load_index(self) -> Dict[str, dict]:
        with open(self.path, "rb") as fh:
            head = fh.read(HEADER.size)
            if len(head) < HEADER.size:
                raise BackendError(f"truncated hdf5sim file: {self.path}")
            magic, idx_off = HEADER.unpack(head)
            if magic != MAGIC:
                raise BackendError(
                    f"{self.path} is not an hdf5sim container "
                    f"(magic {magic!r})")
            fh.seek(idx_off)
            raw = fh.read()
        try:
            return json.loads(raw.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise BackendError(f"corrupt index in {self.path}: {exc}") from exc

    def _save_index(self, fh, index: Dict[str, dict]) -> None:
        fh.seek(0, os.SEEK_END)
        idx_off = fh.tell()
        fh.write(json.dumps(index).encode())
        fh.truncate()
        fh.seek(0)
        fh.write(HEADER.pack(MAGIC, idx_off))
        self._index = index

    def _create_group(self) -> None:
        with open(self.path, "r+b") as fh:
            index = self._load_index()
            _, idx_off = self._read_header(fh)
            index[self.group] = {"offset": idx_off, "nbytes": 0}
            fh.seek(idx_off)
            fh.truncate()
            self._save_index(fh, index)

    @staticmethod
    def _read_header(fh):
        fh.seek(0)
        return HEADER.unpack(fh.read(HEADER.size))

    @property
    def _entry(self) -> dict:
        try:
            return self._index[self.group]
        except KeyError:
            raise BackendError(
                f"no group {self.group!r} in {self.path}; "
                f"have {sorted(self._index)}") from None

    # -- group management (used by datagen) --------------------------------
    def write_group(self, name: str, array: np.ndarray) -> None:
        """Create/replace a whole group from a NumPy array."""
        raw = array.tobytes()
        with open(self.path, "r+b") as fh:
            index = self._load_index()
            fh.seek(0, os.SEEK_END)
            # Index currently sits at the tail; overwrite it with data.
            _, idx_off = self._read_header(fh)
            fh.seek(idx_off)
            fh.truncate()
            offset = fh.tell()
            fh.write(raw)
            index[name] = {"offset": offset, "nbytes": len(raw)}
            self._save_index(fh, index)

    # -- flat image over this backend's group -----------------------------
    def size(self) -> int:
        return int(self._entry["nbytes"])

    def read_range(self, offset: int, nbytes: int) -> bytes:
        self._check_range(offset, nbytes)
        entry = self._entry
        with open(self.path, "rb") as fh:
            fh.seek(entry["offset"] + offset)
            data = fh.read(nbytes)
        if len(data) != nbytes:
            raise BackendError(f"short read from {self.path}")
        return data

    def write_range(self, offset: int, data: bytes) -> None:
        data = bytes(data)
        self._check_range(offset, len(data))
        entry = self._entry
        with open(self.path, "r+b") as fh:
            fh.seek(entry["offset"] + offset)
            fh.write(data)

    def ensure_size(self, nbytes: int) -> None:
        entry = self._entry
        if entry["nbytes"] >= nbytes:
            return
        # Relocate the group to the end of the file with the new size.
        with open(self.path, "r+b") as fh:
            index = self._load_index()
            entry = index[self.group]
            fh.seek(entry["offset"])
            old = fh.read(entry["nbytes"])
            _, idx_off = self._read_header(fh)
            is_last = entry["offset"] + entry["nbytes"] == idx_off
            if is_last:
                new_off = entry["offset"]
            else:
                new_off = idx_off
            fh.seek(new_off)
            fh.write(old)
            fh.write(b"\0" * (nbytes - len(old)))
            index[self.group] = {"offset": new_off, "nbytes": nbytes}
            self._save_index(fh, index)
