"""The library's shared resources: its one thread pool and its size guard.

Each job hands its arithmetic to numpy, which releases the interpreter lock
inside its loops, so the threads overlap real work.  A pool lives for one
call: its threads are joined before pmap returns.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor

# elements per pool job of long-double work: 2**15 long doubles are 512 kB.
# Each pool thread keeps its own chunk temporaries, and its malloc arena
# keeps them once freed.  On two threads (2-vCPU x86) point-stats peaked
# 3 MB above the serial build, and 5 MB with 2**16.
_CHUNK = 2 ** 15


def _thread_workers() -> int:
    """min(4, the CPUs this process may run on); os.cpu_count() where the
    platform has no affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return min(4, len(os.sched_getaffinity(0)))
    return min(4, os.cpu_count() or 1)


def pmap(fn, items, workers: int) -> list:
    """[fn(x) for x in items], on up to `workers` threads, in item order.

    One worker or one item runs in the calling thread, with no pool.  The
    exception of the first failing job, in item order, is raised here once
    every job has ended.
    """
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


class ResourceGuardError(Exception):
    """A computation would exceed its declared size budget."""


def _memory_budget() -> int:
    """Bytes one computation may take: half the machine's physical memory,
    leaving the rest to numpy's temporaries and to other processes.  No
    limit where the platform does not report its memory (Windows)."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2
    except (AttributeError, ValueError, OSError):
        return sys.maxsize


def guard(need: int, what: str, budget: int | None = None) -> None:
    """Raise ResourceGuardError if need, in the unit what names, exceeds
    budget: by default bytes against _memory_budget(), read at call time.
    Call it as _pool.guard: a tracer that wraps the names a module imports
    would otherwise raise from its own span, not the guarded function's."""
    if budget is None:
        budget = _memory_budget()
    if need > budget:
        raise ResourceGuardError(f"{what}: need {need}, budget {budget}")
