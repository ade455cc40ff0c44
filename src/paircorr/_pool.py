"""The library's one thread pool: independent jobs on a few threads.

Each job hands its arithmetic to numpy, which releases the interpreter lock
inside its loops, so the threads overlap real work.  A pool lives for one
call: its threads are joined before pmap returns.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def _thread_workers() -> int:
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
