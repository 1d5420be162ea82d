"""MegaMmap configuration plus a tiny YAML-subset loader.

Paper III-A: "Applications can specify the maximum amount of DRAM and
high-performance storage to use for caching using either the native
C++ API or the MegaMmap configuration YAML file, which additionally
contains settings regarding the nodes to deploy MegaMmap on, port
numbers, etc."

The YAML loader supports the subset those config files actually use —
nested mappings by indentation, block lists with ``- ``, scalars
(int/float/bool/null/string), inline comments — with no external
dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

KB = 1024
MB = 1024 ** 2


@dataclass
class MegaMmapConfig:
    """Tunables of the MegaMmap runtime (one instance per deployment).

    Attributes
    ----------
    page_size:
        Default page size in bytes for new vectors (III-C: "Users can
        choose a custom page size for a particular MegaMmap vector").
    pcache_size:
        Default per-process private cache budget in bytes
        (overridden per vector by ``Vector.bound_memory``).
    low_latency_workers / high_latency_workers:
        Worker counts per pool per node runtime.
    workers_min / workers_max:
        Dynamic worker scaling bounds (LabStor-style core adjustment).
    prefetch_enabled:
        Ablation switch.
    batching_enabled:
        Coalesce contiguous page operations into batched MemoryTasks
        shipped with one envelope per owner node (vectored RPCs); off
        reverts to the one-task-per-page path (ablation/debug switch —
        results are bit-identical either way).
    compute_bw:
        Simulated per-process compute throughput (bytes/s) used by
        ``ctx.compute_bytes`` when applications charge compute time.
    """

    page_size: int = 64 * KB
    pcache_size: int = 4 * MB
    low_latency_workers: int = 2
    high_latency_workers: int = 2
    workers_min: int = 1
    workers_max: int = 4
    prefetch_enabled: bool = True
    batching_enabled: bool = True
    compute_bw: float = 2e9
    #: Durability copies per scache page (paper §V extension): 1 = no
    #: replication (the paper's deployed configuration); k > 1 places
    #: k-1 asynchronous copies on other nodes, surviving node failure.
    replication_factor: int = 1
    #: Verify per-page CRC32 checksums on full-page reads (§V Memory
    #: Corruption extension); mismatches recover from replica/backend.
    integrity_checks: bool = False
    #: Durable scache mode: host a write-ahead intent log on each
    #: node's fastest durable tier, commit it at transaction barriers
    #: (``Vector.flush``), and replay it on crash+restart. Off by
    #: default — non-durable runs stay bit-for-bit identical.
    durability: bool = False
    #: Fold the intent log into a failure-atomic snapshot every this
    #: many barriers (bounds recovery time: RTO scales with
    #: ``snapshot + tail-of-log``, not with history).
    wal_snapshot_every: int = 8
    #: Seconds between MaxMem-style fast-memory reallocation sweeps in
    #: a colocated run (only consulted when a tenancy scheduler enables
    #: the loop; single-tenant runs never start it).
    realloc_period: float = 0.25
    #: Bytes of DRAM-tier quota moved from donor to receiver per sweep.
    realloc_step: int = 2 * MB
    #: Simulated seconds per windowed-observability rollup interval
    #: (:mod:`repro.obs.live`): each tick closes one fixed window of
    #: counter deltas / gauge samples / latency sketches.
    obs_window: float = 0.01
    #: Head-sampling probability for span retention when tracing is on
    #: (:mod:`repro.sim.trace` tail-based sampler). 1.0 keeps every
    #: span (classic full tracing, the default); below 1.0 spans are
    #: head-sampled per trace but *always* kept when slow (per-category
    #: dynamic thresholds from the windowed quantiles), error/repair,
    #: or inside a firing-alert window. Percentile statistics stay
    #: exact either way.
    trace_sample_rate: float = 1.0
    #: Object-granular access gate (DOLMA-style object vs page
    #: disaggregation): ``Vector.read_object``/``write_object`` requests
    #: of at most this many bytes bypass the pcache page fault and go
    #: straight to the owner node as extent-sized object RPCs. 0 (the
    #: default) disables the path entirely — object calls degrade to
    #: the plain page path bit-for-bit.
    object_threshold_bytes: int = 0

    def validated(self) -> "MegaMmapConfig":
        if self.page_size <= 0:
            raise ValueError(f"page_size must be positive, got "
                             f"{self.page_size}")
        if self.low_latency_workers < 1 or self.high_latency_workers < 1:
            raise ValueError("each worker pool needs at least one worker")
        if self.workers_min > self.workers_max:
            raise ValueError("workers_min exceeds workers_max")
        if self.wal_snapshot_every < 1:
            raise ValueError(f"wal_snapshot_every must be at least 1, "
                             f"got {self.wal_snapshot_every}")
        if self.realloc_period <= 0:
            raise ValueError(f"realloc_period must be positive, got "
                             f"{self.realloc_period}")
        if self.realloc_step < 1:
            raise ValueError(f"realloc_step must be at least 1, got "
                             f"{self.realloc_step}")
        if self.obs_window <= 0:
            raise ValueError(f"obs_window must be positive, got "
                             f"{self.obs_window}")
        if not 0.0 < self.trace_sample_rate <= 1.0:
            raise ValueError(f"trace_sample_rate must be in (0,1], got "
                             f"{self.trace_sample_rate}")
        if self.object_threshold_bytes < 0:
            raise ValueError(f"object_threshold_bytes must be >= 0, "
                             f"got {self.object_threshold_bytes}")
        return self

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MegaMmapConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data).validated()

    @classmethod
    def from_yaml(cls, text: str) -> "MegaMmapConfig":
        data = load_yaml_subset(text)
        if not isinstance(data, dict):
            raise ValueError("config YAML must be a mapping")
        return cls.from_dict(data)


# --------------------------------------------------------------------------
# Minimal YAML-subset parser
# --------------------------------------------------------------------------

def _parse_scalar(text: str) -> Any:
    text = text.strip()
    if text in ("null", "~", ""):
        return None
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    try:
        return int(text, 0)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _strip_comment(line: str) -> str:
    # A '#' starts a comment unless inside quotes.
    out = []
    quote = None
    for ch in line:
        if quote:
            out.append(ch)
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            out.append(ch)
        elif ch == "#":
            break
        else:
            out.append(ch)
    return "".join(out).rstrip()


def load_yaml_subset(text: str) -> Any:
    """Parse the YAML subset used by MegaMmap config files.

    Supports nested mappings (2+-space indentation), block sequences
    (``- item`` including ``- key: value`` object lists), scalars, and
    comments. Raises ``ValueError`` on anything outside the subset
    (flow style, anchors, multi-line strings).
    """
    lines: List[Tuple[int, str]] = []
    for raw in text.splitlines():
        stripped = _strip_comment(raw)
        if not stripped.strip():
            continue
        if "\t" in raw[:len(raw) - len(raw.lstrip())]:
            raise ValueError("tabs are not allowed in indentation")
        indent = len(stripped) - len(stripped.lstrip())
        lines.append((indent, stripped.strip()))
    value, pos = _parse_block(lines, 0, indent=None)
    if pos != len(lines):
        raise ValueError(f"trailing content at line entry {pos}")
    return value


def _parse_block(lines: List[Tuple[int, str]], pos: int,
                 indent: Optional[int]) -> Tuple[Any, int]:
    if pos >= len(lines):
        return None, pos
    block_indent = lines[pos][0] if indent is None else indent
    if lines[pos][1].startswith("- "):
        return _parse_sequence(lines, pos, block_indent)
    return _parse_mapping(lines, pos, block_indent)


def _parse_sequence(lines, pos, indent):
    items: List[Any] = []
    while pos < len(lines):
        line_indent, content = lines[pos]
        if line_indent < indent:
            break
        if line_indent > indent:
            raise ValueError(f"bad indentation at {content!r}")
        if not content.startswith("- "):
            break
        inner = content[2:].strip()
        if ":" in inner and not inner.startswith(("'", '"')):
            # '- key: value' opens an inline mapping item; subsequent
            # deeper lines continue it.
            key, _, rest = inner.partition(":")
            item: Dict[str, Any] = {}
            if rest.strip():
                item[key.strip()] = _parse_scalar(rest)
                pos += 1
            else:
                sub, pos = _parse_block(lines, pos + 1, indent=None) \
                    if pos + 1 < len(lines) and lines[pos + 1][0] > indent \
                    else (None, pos + 1)
                item[key.strip()] = sub
            while pos < len(lines) and lines[pos][0] > indent \
                    and not lines[pos][1].startswith("- "):
                sub_map, pos = _parse_mapping(lines, pos, lines[pos][0])
                item.update(sub_map)
            items.append(item)
        else:
            items.append(_parse_scalar(inner))
            pos += 1
    return items, pos


def _parse_mapping(lines, pos, indent):
    mapping: Dict[str, Any] = {}
    while pos < len(lines):
        line_indent, content = lines[pos]
        if line_indent < indent or content.startswith("- "):
            break
        if line_indent > indent:
            raise ValueError(f"bad indentation at {content!r}")
        if ":" not in content:
            raise ValueError(f"expected 'key: value', got {content!r}")
        key, _, rest = content.partition(":")
        key = key.strip()
        if key in mapping:
            raise ValueError(f"duplicate key {key!r}")
        rest = rest.strip()
        if rest:
            mapping[key] = _parse_scalar(rest)
            pos += 1
        else:
            if pos + 1 < len(lines) and (lines[pos + 1][0] > indent
                                         or lines[pos + 1][1].startswith("- ")
                                         and lines[pos + 1][0] >= indent):
                child_indent = lines[pos + 1][0]
                if lines[pos + 1][1].startswith("- ") \
                        and child_indent == indent:
                    value, pos = _parse_sequence(lines, pos + 1, indent)
                else:
                    value, pos = _parse_block(lines, pos + 1, child_indent)
                mapping[key] = value
            else:
                mapping[key] = None
                pos += 1
    return mapping, pos
