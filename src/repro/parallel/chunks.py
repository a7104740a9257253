"""The one process primitive: map over items with ``fork``.

:func:`fork_map` computes the first item in this process and each other
item in a forked child that pickles its result back through a pipe.
An item whose child fails is recomputed here, so no result depends on
a fork; an item that fails here raises its own exception.

The dataset generators draw every subnet from its own seeded RNG, so
:func:`map_chunks` runs their world-order loops as contiguous chunks,
one per CPU, and the chunks' outputs concatenated in order are the
serial bytes.  Their children send back flat ``array.array`` columns,
never dataset objects (those cost more to unpickle than to rebuild).
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings
from array import array
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.runtime.faults import mark_worker_process

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Fewest items worth a chunk of their own: below it, a fork and its
#: pipe cost more than the draws they move off this process.
MIN_CHUNK_ITEMS = 5_000

Columns = Tuple[array, ...]


def available_cpus() -> int:
    """CPUs this process may actually schedule on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux fallback
        return max(1, os.cpu_count() or 1)


def split_bounds(count: int, parts: int) -> List[Tuple[int, int]]:
    """``parts`` contiguous ``[start, stop)`` ranges tiling ``range(count)``."""
    return [(count * i // parts, count * (i + 1) // parts) for i in range(parts)]


def chunk_bounds(count: int) -> List[Tuple[int, int]]:
    """``[start, stop)`` ranges tiling ``range(count)`` in order: one per
    CPU, each at least :data:`MIN_CHUNK_ITEMS` long."""
    return split_bounds(count, max(1, min(available_cpus(), count // MIN_CHUNK_ITEMS)))


def map_chunks(compute: Callable[[int, int], Columns], count: int) -> List[Columns]:
    """``[compute(start, stop) for start, stop in chunk_bounds(count)]``,
    the chunks after the first computed in forked children meanwhile."""
    return fork_map(lambda bounds: compute(*bounds), chunk_bounds(count))


def fork_map(
    compute: Callable[[_T], _R],
    items: Sequence[_T],
    recompute: Optional[Callable[[_T], _R]] = None,
) -> List[_R]:
    """``[compute(item) for item in items]``, the items after the first
    computed in forked children meanwhile.

    An item whose child fails (raises, dies, is killed) is recomputed in
    this process by ``recompute`` (default ``compute``).  Every child
    has been reaped when this returns or raises.
    """
    recompute = recompute or compute
    children: List[Tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for item in items[1:]:
            child = _fork(compute, item, children)
            if child is None:
                break  # no process to spare: the rest run here
            children.append(child)
        results = [compute(item) for item in items[:1]]
        # Each read ends at the child's exit; the finally closes the fds.
        payloads = [open(fd, "rb", closefd=False).read() for _, fd in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, fd in children:
            os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for item, payload, status in zip(items[1:], payloads, statuses):
        results.append(pickle.loads(payload) if status == 0 else recompute(item))
    results.extend(compute(item) for item in items[1 + len(children):])
    return results


def _fork(compute, item, siblings) -> Optional[Tuple[int, int]]:
    """Start a child computing ``item``: its ``(pid, read fd)``."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            # The child runs only imported Python code and leaves through
            # os._exit, so it needs no lock another thread may hold.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            mark_worker_process()  # a worker_crash fault may SIGKILL it
            for fd in [read_fd, *(fd for _, fd in siblings)]:
                os.close(fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump(compute(item), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd
