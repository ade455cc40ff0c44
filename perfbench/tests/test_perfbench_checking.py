"""Output checks of the benchmark: reference comparison and failure counts."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checking  # noqa: E402
from workloads import Call, check_count, check_r_identity  # noqa: E402


def test_compare_floats_within_1e_12_relative():
    assert checking.compare(1.0 + 5e-13, 1.0) == []
    assert checking.compare(1.0 + 5e-12, 1.0) != []
    assert checking.compare([0.0], [0.0]) == []
    assert checking.compare(1e-30, 0.0) != []


def test_compare_integers_booleans_and_structure_exactly():
    assert checking.compare({"count": 8}, {"count": 8}) == []
    assert checking.compare({"count": 9}, {"count": 8}) == [".count: 9 != 8"]
    assert checking.compare(True, 1) != []
    assert checking.compare({"pass": False}, {"pass": True}) != []
    assert checking.compare([1, 2], [1, 2, 3]) != []
    assert checking.compare({"a": 1}, {"b": 1}) != []
    assert checking.compare("x", "y") != []
    assert checking.compare(1.0, checking.NO_REFERENCE, "op") == [
        "op: no pinned reference"]


def _pass(values, checks=None):
    """A generator of calls returning the given values (or raising them)."""
    checks = checks or {}

    def call(v):
        if isinstance(v, Exception):
            raise v
        return v

    def gen():
        for i, v in enumerate(values):
            yield Call(f"op{i}", lambda v=v: call(v), lambda d: d,
                       checks.get(i, lambda d: []))
    return gen()


def test_failed_row_is_a_result_and_bad_calls_are_failures():
    report = {"passed": False, "rows": [{"pass": False, "value": 0.5}]}
    recs = checking.run_pass(_pass([report, 2.0, 3.0],
                                   {1: lambda d: ["broken invariant"]}),
                             reference={"op0": report, "op1": 2.0,
                                        "op2": 3.5})
    assert [r.failed for r in recs] == [False, True, True]
    assert checking.tally([recs]) == (3, 2)


def test_a_raising_call_fails_and_ends_its_pass():
    recs = checking.run_pass(_pass([1.0, ValueError("bad"), 3.0]))
    assert [r.name for r in recs] == ["op0", "op1"]
    assert recs[1].problems == ["raised ValueError: bad"]
    assert checking.tally([recs, recs]) == (4, 2)


def test_missing_reference_fails_on_the_default_seed_only():
    assert checking.tally([checking.run_pass(_pass([1.0]), {})]) == (1, 1)
    assert checking.tally([checking.run_pass(_pass([1.0]), None)]) == (1, 0)


def test_seed_free_invariants():
    seen = []
    check = check_count(seen)
    assert check({"count": 4}) == []
    assert check({"count": 7}) != []      # odd, and not below 4
    assert check({"count": 2}) != []      # fewer pairs at a larger s
    parts = {"brute": 1.0, "fhat0": 0.0, "H1": 0.0, "H2": 0.0, "f0": 0.0}
    assert check_r_identity(parts, 8)(1.0 + 1e-7) == []
    assert check_r_identity(parts, 8)(1.0 + 1e-5) != []


def test_typical_pass_takes_each_calls_median():
    def recs(*secs):
        return [checking.CallRecord(f"op{i}", t) for i, t in enumerate(secs)]
    # a burst slows op0 in one pass and op1 in another
    passes = [recs(9.0, 1.0), recs(2.0, 1.0), recs(2.0, 7.0)]
    assert checking.typical_pass(passes) == 3.0
    assert checking.typical_pass([recs(2.0, 1.0)]) == 3.0
