"""Order-preserving map over independent tasks, optionally in processes.

Sweep tasks here are pure functions of picklable arguments, so the only
thing parallelism may change is wall time: results come back in input
order and are aggregated identically for any worker count.

`concurrent.futures` is imported only when a pool starts: the module
attribute `ProcessPoolExecutor` resolves on first access through the
module's `__getattr__`, and `parallel_map` reads it from the module at call
time, so a replacement assigned to it is the pool that runs.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Iterable, Sequence, TypeVar

A = TypeVar("A")
B = TypeVar("B")


def __getattr__(name: str):
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def default_jobs() -> int:
    return os.cpu_count() or 1


def parallel_map(fn: Callable[[A], B], items: Iterable[A], jobs: int = 1) -> list[B]:
    """Map fn over items, preserving input order.

    Uses min(jobs, cpu count, number of items) worker processes; with one
    worker or fewer it runs in-process.  fn and items must be picklable,
    i.e. top-level functions / partials of them.
    """
    todo: Sequence[A] = list(items)
    workers = min(jobs, default_jobs(), len(todo))
    if workers <= 1:
        return [fn(x) for x in todo]
    chunk = max(1, len(todo) // (4 * workers))
    pool_class = sys.modules[__name__].ProcessPoolExecutor
    with pool_class(max_workers=workers) as pool:
        return list(pool.map(fn, todo, chunksize=chunk))
