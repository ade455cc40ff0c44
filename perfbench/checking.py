"""Running one pass of calls, and judging each call's output.

A call fails when it raises, when its digest breaks a seed-free invariant,
or, on the default seed, when the digest differs from the pinned reference:
integers, booleans and strings exactly, floats within 1e-12 relative.  A
report row with ``pass: false`` is a measured result, not a failure; it is
compared with its pinned row like any other value.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

REL_TOL = 1e-12
NO_REFERENCE = object()


def compare(actual, expected, path: str = "", rel: float = REL_TOL) -> list:
    """Differences between a digest and its pinned reference, as messages."""
    if expected is NO_REFERENCE:
        return [f"{path or 'digest'}: no pinned reference"]
    if isinstance(expected, bool) or isinstance(actual, bool):
        return [] if actual is expected else [
            f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, int) and isinstance(actual, int):
        return [] if actual == expected else [
            f"{path}: {actual} != {expected}"]
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if math.isclose(actual, expected, rel_tol=rel, abs_tol=0.0):
            return []
        return [f"{path}: {actual!r} != {expected!r} (rel {rel:g})"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if actual.keys() != expected.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        out = []
        for k in expected:
            out += compare(actual[k], expected[k], f"{path}.{k}", rel)
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, f"{path}[{i}]", rel)
        return out
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


@dataclass
class CallRecord:
    name: str
    seconds: float
    digest: object = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_pass(calls, reference: dict | None = None,
             clock=time.perf_counter) -> list[CallRecord]:
    """Drive one pass: time each call, then digest and check it untimed.

    ``calls`` is a generator of workloads.Call that receives each return
    value.  A call that raises ends the pass, since later calls may need
    its value; the calls it skips are not attempted.
    """
    records: list[CallRecord] = []
    value = None
    while True:
        try:
            call = calls.send(value)
        except StopIteration:
            break
        t0 = clock()
        try:
            value = call.fn()
        except Exception as exc:
            records.append(CallRecord(call.name, clock() - t0, problems=[
                f"raised {type(exc).__name__}: {exc}"]))
            calls.close()
            break
        rec = CallRecord(call.name, clock() - t0)
        records.append(rec)
        try:
            rec.digest = call.digest(value)
            rec.problems += call.check(rec.digest)
        except Exception as exc:
            rec.problems.append(
                f"output check raised {type(exc).__name__}: {exc}")
            continue
        if reference is not None:
            rec.problems += compare(rec.digest,
                                    reference.get(call.name, NO_REFERENCE),
                                    call.name)
    return records


def typical_pass(passes: list) -> float:
    """Time of a typical pass: each call's median over the passes, summed.

    A burst of machine noise that slows one call in one pass does not move
    it, while a change that slows a call in every pass does."""
    times: dict[str, list] = {}
    for recs in passes:
        for r in recs:
            times.setdefault(r.name, []).append(r.seconds)
    return sum(statistics.median(t) for t in times.values())


def tally(passes: list) -> tuple[int, int]:
    """(attempted, failed) over every call of every pass."""
    attempted = sum(len(p) for p in passes)
    failed = sum(r.failed for p in passes for r in p)
    return attempted, failed
