"""The shared thread pool's worker count."""

import os

from paircorr import _pool


def test_worker_count_follows_the_usable_cpus(monkeypatch):
    # a process pinned to one CPU gets one worker, whatever the machine has
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert _pool._thread_workers() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
    assert _pool._thread_workers() == 3
    # without an affinity mask the machine's count decides, capped at 4
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _pool._thread_workers() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool._thread_workers() == 1
