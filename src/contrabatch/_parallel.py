"""Deterministic fan-out over fixed row chunks.

Chunk boundaries depend only on the problem size, never on the worker
count, and results are merged in chunk order.  Outputs are therefore
bit-identical whether a task runs on one thread or many.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
U = TypeVar("U")

def chunk_spans(total: int, chunk: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into [start, stop) spans; the last may be short."""
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    return [(s, min(s + chunk, total)) for s in range(0, total, chunk)]


def ordered_map(fn: Callable[[U], T], items: Sequence[U], threads: int = 1) -> list[T]:
    """Apply ``fn`` to every item, preserving input order in the result."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: the pool module pulls in logging, which a one-thread run never needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
