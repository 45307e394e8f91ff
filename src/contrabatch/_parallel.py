"""Deterministic fan-out over fixed row chunks.

Chunk boundaries depend only on the problem size, never on the worker
count, and results are merged in chunk order.  Outputs are therefore
bit-identical whether a task runs on one thread or many.  A map starts at
most as many workers as the process may run on (:func:`usable_cores`),
whatever it is asked for, so per-worker buffers never outnumber the cores.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
U = TypeVar("U")

def chunk_spans(total: int, chunk: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into [start, stop) spans; the last may be short."""
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    return [(s, min(s + chunk, total)) for s in range(0, total, chunk)]


def usable_cores() -> int:
    """The cores this process may run on: its affinity mask where the
    platform has one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn: Callable[[U], T], items: Sequence[U], threads: int = 1) -> list[T]:
    """Apply ``fn`` to every item, preserving input order in the result, on at
    most ``threads`` workers and never more than :func:`usable_cores`."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: the pool module pulls in logging, which a one-thread run never needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(threads, usable_cores())) as pool:
        return list(pool.map(fn, items))
