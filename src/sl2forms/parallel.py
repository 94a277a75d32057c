"""Order-preserving map over independent tasks, optionally in processes.

Sweep tasks here are pure functions, so the only thing parallelism may
change is wall time: results come back in input order and are aggregated
identically for any worker count.

With W = min(jobs, usable CPUs, tasks) > 1 workers, `parallel_map` is a
fork-join: the items are dealt to W shares in snake order (0, 1, ..., W-1,
W-1, ..., 0, 0, 1, ...), W - 1 forked children compute one share each and
send their results back pickled through a pipe, and the calling process
computes share 0 meanwhile.  Neighbouring items thus go to different
shares, so items listed in an order where neighbours cost about the same
(such as the (m, n) pairs of a sweep in grid order) give every share about
the same work.  With one worker, where
`os.fork` does not exist, or in a process that runs threads (a fork copies
only the calling thread), the map runs in this process.

A child sends back the exception its share raised, and the parent re-raises
it; a child that dies by a signal or sends back too little is an error that
names it.  Children leave only through `os._exit`, and the parent kills and
reaps every child it started, on every path out.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Iterable, Optional, TypeVar

A = TypeVar("A")
B = TypeVar("B")


def __getattr__(name: str):
    # No map here uses it; it stays resolvable for code that looks it up.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its CPU affinity set
    where `os` reports one, else the machine's CPU count (at least 1)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class WorkerError(RuntimeError):
    """A worker process died, or its results could not be read back."""


def parallel_map(
    fn: Callable[[A], B], items: Iterable[A], jobs: Optional[int] = 1
) -> list[B]:
    """Map fn over items, preserving input order.

    Uses W = min(jobs, `usable_cpus()`, number of items) processes, this
    one included; jobs=None asks for all the usable CPUs.  With W <= 1,
    without `os.fork`, or in a process that runs more than one thread, it
    runs in-process.  The results of fn must be picklable.
    """
    todo = list(items)
    cpus = usable_cpus()
    workers = min(cpus if jobs is None else jobs, cpus, len(todo))
    threading = sys.modules.get("threading")
    threaded = threading is not None and threading.active_count() > 1
    if workers <= 1 or threaded or not hasattr(os, "fork"):
        return [fn(x) for x in todo]
    shares: list[list[int]] = [[] for _ in range(workers)]
    for i in range(len(todo)):
        turn, w = divmod(i, workers)
        shares[w if turn % 2 == 0 else workers - 1 - w].append(i)
    import pickle  # before the fork, so that no child imports it again

    results: list = [None] * len(todo)
    pids: dict[int, int] = {}  # worker -> pid, until reaped
    pipes: dict[int, int] = {}  # worker -> read end, until opened
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for w in range(1, workers):
            pipes[w], write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(fn, [todo[i] for i in shares[w]], write_end, pickle)
            os.close(write_end)
            pids[w] = pid
        for i in shares[0]:
            results[i] = fn(todo[i])
        for w in range(1, workers):
            with os.fdopen(pipes.pop(w), "rb") as pipe:
                data = pipe.read()
            status = os.waitpid(pids.pop(w), 0)[1]
            values = _unpack(w, status, data, len(shares[w]), pickle)
            for i, value in zip(shares[w], values):
                results[i] = value
    finally:
        for fd in pipes.values():
            os.close(fd)
        if pids:
            import signal

            for pid in pids.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def _child(fn, share, write_end, pickle) -> None:
    """Compute one share in a forked child, send it back, and exit."""
    code = 1
    try:
        try:
            data, code = pickle.dumps((True, [fn(x) for x in share])), 0
        except BaseException as exc:
            try:
                data = pickle.dumps((False, exc))
                pickle.loads(data)
            except Exception:
                # an exception that does not survive pickling goes back as
                # its type name and message
                data = pickle.dumps((False, (type(exc).__name__, str(exc))))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(code)


def _unpack(w: int, status: int, data: bytes, expected: int, pickle) -> list:
    """A reaped child's results, or the error it stands for."""
    import signal

    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        try:
            name = signal.Signals(sig).name
        except ValueError:
            name = sig
        raise WorkerError(f"worker {w} was killed by signal {name}")
    try:
        ok, value = pickle.loads(data)
    except Exception:
        ok = value = None
    if ok is False and isinstance(value, BaseException):
        raise value
    if ok is False:
        raise WorkerError(f"worker {w} raised {value[0]}: {value[1]}")
    code = os.waitstatus_to_exitcode(status)
    if code or ok is not True or len(value) != expected:
        raise WorkerError(
            f"worker {w} exited with status {code} and sent back {len(data)} "
            f"bytes, not its {expected} results"
        )
    return value
