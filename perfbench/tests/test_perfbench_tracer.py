"""Span arithmetic and the outside-in tracer of the benchmark."""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import tracer as tr  # noqa: E402


def test_union_length_merges_overlaps_and_gaps():
    assert tr.union_length([]) == 0.0
    assert tr.union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert tr.union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_counts_overlapping_thread_children_once():
    # a 10 s measure call whose pool ran two worker threads side by side
    parent = tr.Span("cli.second_moment_roff", "measure", 0.0, 10.0,
                     thread=1)
    spans = [parent,
             tr.Span("measure._tilde_from_values", "expsums.short", 1.0, 6.0,
                     parent=parent, thread=2),
             tr.Span("measure._tilde_from_values", "expsums.short", 2.0, 8.0,
                     parent=parent, thread=3),
             # a child that outlives its parent is clipped to the parent
             tr.Span("kernels.TestKernel.__call__", "kernels.profile", 9.0,
                     12.0, parent=parent, thread=1)]
    kids = tr.children_of(spans)
    # covered: [1, 8] and [9, 10] -> 8 s of 10
    assert tr.self_time(parent, kids) == pytest.approx(2.0)
    assert tr._workers(parent, kids) == 2
    assert tr.self_time(spans[1], kids) == pytest.approx(5.0)


def test_layer_metrics_sums_self_time_counts_and_cover():
    parent = tr.Span("cli.second_moment_roff", "measure", 0.0, 10.0,
                     thread=1, counts={"samples": 100})
    a = tr.Span("measure._tilde_from_values", "expsums.short", 0.0, 6.0,
                parent=parent, thread=2)
    b = tr.Span("expsums._short_components", "expsums.short", 1.0, 5.0,
                parent=a, thread=2, counts={"calls": 1, "terms": 40})
    c = tr.Span("measure._tilde_from_values", "expsums.short", 4.0, 9.0,
                parent=parent, thread=3)
    values, absent = tr.layer_metrics([parent, a, b, c], [], 10.0, 8.0)
    assert absent == []
    assert values["measure.self_s"] == pytest.approx(1.0)
    # a: 6 - 4, b: 4, c: 5, summed busy time over both threads
    assert values["expsums.short.self_s"] == pytest.approx(11.0)
    assert values["expsums.short.terms"] == 40
    assert values["expsums.short.calls"] == 1
    assert values["measure.samples_per_s"] == pytest.approx(10.0)
    assert values["measure.workers"] == 2
    assert values["measure.below_cover"] == pytest.approx(0.9)
    assert values["trace.overhead"] == pytest.approx(0.25)
    assert values["kernels.fourier.self_s"] == 0.0


def test_missing_boundary_and_unreadable_count_are_missing_not_zero():
    s = tr.Span("kernels.FourierTable.values", "kernels.fourier", 0.0, 1.0,
                counts={"freqs": 8, "exps": None})
    values, absent = tr.layer_metrics([s], ["measure._short_components"],
                                      1.0, 1.0)
    assert "kernels.fourier.exps" in absent
    assert values["kernels.fourier.freqs"] == 8
    for name in ("expsums.short.self_s", "expsums.short.terms",
                 "expsums.short.calls"):
        assert name in absent and name not in values


def test_guard_trips_count_the_innermost_raise_only():
    outer = tr.Span("cli.duq_bound_check", "diophantine.grid", 0.0, 2.0,
                    error="ResourceGuardError")
    inner = tr.Span("diophantine.build_zset", "diophantine.enum", 0.5, 1.0,
                    parent=outer, error="ResourceGuardError")
    values, _ = tr.layer_metrics([outer, inner], [], 2.0, 2.0)
    assert values["diophantine.guard_trips"] == 1


def test_worker_thread_spans_attach_to_the_open_call_of_the_root_thread():
    tracer = tr.Tracer()
    tracer._local.stack = tracer._root_stack
    leaf = tracer.wrap("leaf", "expsums.short", lambda i: i * i)

    def pool_call(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(n)))

    top = tracer.wrap("cli.second_moment_roff", "measure", pool_call)
    assert top(4) == [0, 1, 4, 9]
    root = [s for s in tracer.spans if s.name == "cli.second_moment_roff"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(root) == 1 and len(leaves) == 4
    assert all(s.parent is root[0] for s in leaves)
    assert {s.thread for s in leaves} != {threading.get_ident()}


def test_install_wraps_and_uninstall_restores():
    pytest.importorskip("paircorr")
    from paircorr import cli, expsums, kernels, measure
    originals = (measure._short_components, kernels.FourierTable.values,
                 vars(kernels.TestKernel)["__call__"], cli.run)
    tracer = tr.Tracer()
    tracer.install(tr.BOUNDARIES + [("expsums", "gone_helper", "expsums.short",
                                     None, ())])
    try:
        assert measure._short_components is not originals[0]
        f = kernels.default_f()
        spec = expsums.SequenceSpec(0.5, 1.37, 64)
        expsums.s_tilde_parts(spec, f, kernels.default_h(), 0.05)
    finally:
        tracer.uninstall()
    assert (measure._short_components, kernels.FourierTable.values,
            vars(kernels.TestKernel)["__call__"], cli.run) == originals
    assert tracer.missing == ["expsums.gone_helper"]
    names = {s.name for s in tracer.spans}
    assert {"expsums._tilde_from_values", "expsums._short_components",
            "kernels.FourierTable.values", "expsums.frac"} <= names


def test_benchmark_json_lists_every_metric_the_tracer_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared == [(n, u) for n, u, _, _ in tr.LAYER_METRICS]
