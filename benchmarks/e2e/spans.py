"""Host-span harness: where host time goes, by ``repro.<layer>``.

Measures the program from outside with ``sys.setprofile``: a span
``{name, layer, start, end, parent}`` opens whenever control enters a
function of a different ``repro.<layer>`` package than the one
currently executing (each generator resumption is its own span) and
closes when that function returns or yields. Frames outside ``repro``
(NumPy, the standard library, builtins) open no span, so their time is
charged to the nearest enclosing ``repro`` layer. A layer's self time
is its spans' duration minus the part covered by their child spans;
self times over all layers, plus the ``harness`` root, sum to the
wall-clock of the profiled region by construction.

The callback's own cost lands in whichever span is open, which
inflates layers made of many cheap calls (``sim``) relative to layers
that sit in NumPy (``apps``); ``harness.profile_overhead_pct`` bounds
how far the split may be trusted.
"""

from __future__ import annotations

import os
import sys
import time

import repro

#: ``src/repro`` packages, in report order. ``harness`` is the root:
#: the benchmark's own frames plus ``repro``'s top-level shell modules
#: (``cluster.py``, ``pipeline.py``).
LAYERS = ("apps", "sim", "core", "hermes", "storage", "net", "mpi",
          "tenancy", "obs", "spark", "chaos", "harness")
_LAYER_ID = {name: i for i, name in enumerate(LAYERS)}
_HARNESS = _LAYER_ID["harness"]
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Spans kept for the ``.spans.json`` file; later ones still count
#: toward self times. A parent always precedes its children, so the
#: kept prefix is closed under ``parent``.
MAX_KEPT_SPANS = 200_000


def layer_of(filename: str) -> int:
    """Layer id of a source file, -1 outside ``repro``."""
    path = os.path.abspath(filename)
    if not path.startswith(_REPRO_DIR):
        return -1
    head, sep, _ = path[len(_REPRO_DIR):].partition(os.sep)
    return _LAYER_ID.get(head, _HARNESS) if sep else _HARNESS


class SpanProfiler:
    """Record layer-boundary spans between :meth:`start` and
    :meth:`stop` on the calling thread."""

    def __init__(self, watch=()):
        #: filename -> {function name: [calls, inclusive s, starts]}
        self.watched = {}
        for fn in watch:
            self.watched.setdefault(fn.__code__.co_filename, {})[
                fn.__code__.co_name] = [0, 0.0, []]
        self.self_s = [0.0] * len(LAYERS)
        self.total_spans = 0
        self.unmatched = 0
        self.wall_s = 0.0
        self.names = []
        # Columnar span store (index = span id).
        self.s_name, self.s_layer, self.s_parent = [], [], []
        self.s_start, self.s_end = [], []

    def start(self) -> None:
        # Keyed by filename, whose hash a str caches (hashing a code
        # object walks its constants on every lookup).
        file_layer = {}
        name_ids = {}
        names = self.names
        watched = self.watched
        self_s = self.self_s
        s_name, s_layer, s_parent = self.s_name, self.s_layer, \
            self.s_parent
        s_start, s_end = self.s_start, self.s_end
        clock = time.perf_counter
        keep = MAX_KEPT_SPANS
        # Stack entries: [layer, same-layer depth, span id, child s,
        # start]. Entry 0 is the harness root.
        self._t0 = clock()
        stack = self._stack = [[_HARNESS, 0, -1, 0.0, self._t0]]
        prof = self

        def callback(frame, event, _arg):
            if event == "call":
                code = frame.f_code
                fname = code.co_filename
                lid = file_layer.get(fname)
                if lid is None:
                    lid = file_layer[fname] = layer_of(fname)
                if lid < 0:
                    return
                if fname in watched:
                    w = watched[fname].get(code.co_name)
                    if w is not None:
                        w[2].append(clock())
                top = stack[-1]
                if lid == top[0]:
                    top[1] += 1
                    return
                now = clock()
                sid = prof.total_spans
                prof.total_spans = sid + 1
                if sid < keep:
                    name = code.co_qualname
                    nid = name_ids.get(name)
                    if nid is None:
                        nid = name_ids[name] = len(names)
                        names.append(name)
                    s_name.append(nid)
                    s_layer.append(lid)
                    s_parent.append(top[2] if top[2] < keep else -1)
                    s_start.append(now)
                    s_end.append(now)
                stack.append([lid, 0, sid, 0.0, now])
            elif event == "return":
                code = frame.f_code
                fname = code.co_filename
                lid = file_layer.get(fname)
                if lid is None:
                    lid = file_layer[fname] = layer_of(fname)
                if lid < 0:
                    return
                if fname in watched:
                    w = watched[fname].get(code.co_name)
                    if w is not None and w[2]:
                        w[0] += 1
                        w[1] += clock() - w[2].pop()
                top = stack[-1]
                if lid == top[0] and top[1]:
                    top[1] -= 1
                    return
                if lid != top[0] or len(stack) == 1:
                    # A frame entered before start(), or resumed by a
                    # path that raised no call event.
                    prof.unmatched += 1
                    return
                now = clock()
                stack.pop()
                dur = now - top[4]
                self_s[lid] += dur - top[3]
                stack[-1][3] += dur
                if top[2] < keep:
                    s_end[top[2]] = now

        sys.setprofile(callback)

    def stop(self) -> None:
        sys.setprofile(None)
        now = time.perf_counter()
        stack = self._stack
        # Close anything left open (only the root, unless the region
        # ended by an exception).
        while stack:
            top = stack.pop()
            dur = now - top[4]
            self.self_s[top[0]] += dur - top[3]
            if stack:
                stack[-1][3] += dur
                if top[2] < MAX_KEPT_SPANS:
                    self.s_end[top[2]] = now
        self.wall_s = now - self._t0

    # -- results -----------------------------------------------------------
    def layer_self_s(self) -> dict:
        return dict(zip(LAYERS, self.self_s))

    def watch_stats(self) -> dict:
        """``{function name: (calls, inclusive seconds)}``."""
        return {name: (w[0], w[1]) for per_file in self.watched.values()
                for name, w in per_file.items()}

    def to_json(self, run_id: str) -> dict:
        t0 = self._t0
        return {
            "run_id": run_id,
            "wall_s": self.wall_s,
            "layers": list(LAYERS),
            "names": self.names,
            "total_spans": self.total_spans,
            "kept_spans": len(self.s_start),
            "unmatched_returns": self.unmatched,
            "self_s": self.layer_self_s(),
            # Columnar: span i is (names[name[i]], layers[layer[i]],
            # start[i], end[i], parent[i]); times are seconds from the
            # start of the profiled region; parent -1 is the root.
            "spans": {
                "name": self.s_name,
                "layer": self.s_layer,
                "start": [round(t - t0, 7) for t in self.s_start],
                "end": [round(t - t0, 7) for t in self.s_end],
                "parent": self.s_parent,
            },
        }
