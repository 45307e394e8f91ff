"""In-memory spans around calls into the library's layers.

A span records its name, start, end, parent span and epoch id.  Spans are
kept in a list and written out once, when the traced process ends.  With
memory tracking on, each span also records the tracemalloc peak reached
while it was open, relative to the traced memory at its start; NumPy
reports its array allocations to tracemalloc, so array temporaries count.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """Collects spans for one epoch of one process."""

    def __init__(self, epoch: int, track_memory: bool = False):
        self.epoch = epoch
        self.track_memory = track_memory
        self.spans: list[dict] = []
        self.results: dict[str, object] = {}  # last return value per span name
        self._stack: list[int] = []
        self._peak: dict[int, int] = {}  # open span -> highest absolute peak seen in children
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        base = 0
        if self.track_memory:
            if parent is not None:
                self._peak[parent] = max(self._peak[parent], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        index = len(self.spans)
        record = {"name": name, "epoch": self.epoch, "parent": parent,
                  "start": time.perf_counter() - self._t0}
        self.spans.append(record)
        self._stack.append(index)
        self._peak[index] = 0
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._stack.pop()
            peak = self._peak.pop(index)
            if self.track_memory:
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                record["peak_alloc_mb"] = (peak - base) / 2**20
                if parent is not None:
                    self._peak[parent] = max(self._peak[parent], peak)

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.results[name] = result
            return result

        return traced


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one process run on one thread, so children never overlap.
    """
    own = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


def totals(spans: list[dict]) -> dict[str, float]:
    """Summed duration per span name."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += duration(s)
    return dict(out)


def layer_self(spans: list[dict]) -> dict[str, float]:
    """Summed self time per layer, the part of a span name before the dot."""
    out: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        out[s["name"].split(".")[0]] += own
    return dict(out)
