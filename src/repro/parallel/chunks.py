"""Contiguous chunks of a world-order loop, one per CPU, over ``fork``.

The dataset generators draw every subnet from its own seeded RNG, so
the chunks' outputs concatenated in order are the serial bytes.  This
process runs the first chunk; a forked child runs each other one and
sends back flat ``array.array`` columns, never dataset objects (those
cost more to unpickle than to rebuild).  A chunk whose child fails is
recomputed here, so no result depends on a fork.
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings
from array import array
from typing import Callable, List, Optional, Tuple

from repro.parallel.executor import available_cpus

#: Fewest items worth a chunk of their own: below it, a fork and its
#: pipe cost more than the draws they move off this process.
MIN_CHUNK_ITEMS = 5_000

Columns = Tuple[array, ...]


def chunk_bounds(count: int) -> List[Tuple[int, int]]:
    """``[start, stop)`` ranges tiling ``range(count)`` in order: one per
    CPU, each at least :data:`MIN_CHUNK_ITEMS` long."""
    chunks = max(1, min(available_cpus(), count // MIN_CHUNK_ITEMS))
    return [(count * i // chunks, count * (i + 1) // chunks) for i in range(chunks)]


def map_chunks(compute: Callable[[int, int], Columns], count: int) -> List[Columns]:
    """``[compute(start, stop) for start, stop in chunk_bounds(count)]``,
    the chunks after the first computed in forked children meanwhile."""
    bounds = chunk_bounds(count)
    children: List[Tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for start, stop in bounds[1:]:
            child = _fork(compute, start, stop, children)
            if child is None:
                break  # no process to spare: the rest run here
            children.append(child)
        results = [compute(*bounds[0])]
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
    for (start, stop), payload, status in zip(bounds[1:], payloads, statuses):
        results.append(pickle.loads(payload) if status == 0 else compute(start, stop))
    results.extend(compute(*chunk) for chunk in bounds[1 + len(children):])
    return results


def _fork(compute, start: int, stop: int, siblings) -> Optional[Tuple[int, int]]:
    """Start a child computing ``[start, stop)``: its ``(pid, read fd)``."""
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
            for fd in [read_fd, *(fd for _, fd in siblings)]:
                os.close(fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump(compute(start, stop), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd
