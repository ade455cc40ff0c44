"""One workload in a fresh process: set-up, timed passes, optional trace.

    python3 perfbench/worker.py setup --workload W --seed S
    python3 perfbench/worker.py run --workload W --seed S --seconds T \\
        --trace 0|1 --out DIR [--spans FILE] [--record]

Prints one JSON line.  run.py starts it with PYTHONPATH set to the
checkout's ``src``; ``--record`` pins this seed's digests in ``reference/``.
"""

import time

T0 = time.perf_counter()  # before numpy and paircorr are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def reference_path(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


def setup(workload: str, seed: int):
    """Import paircorr and build the workload's fixed objects."""
    import workloads
    wl = workloads.WORKLOADS[workload]
    inputs = wl.inputs(seed)
    ctx = wl.setup(inputs)
    return wl, inputs, ctx, time.perf_counter() - T0


def one_pass(wl, ctx, inputs, out_dir, reference):
    import checking
    recs = checking.run_pass(wl.calls(ctx, inputs, out_dir), reference)
    return recs, sum(r.seconds for r in recs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def passes_within(seconds, *pass_args):
    """Whole passes while the next one is expected to end within seconds,
    and the peak RSS through the first pass, which later passes (whose
    number varies with the machine's speed) do not move."""
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        recs, wall = one_pass(*pass_args)
        passes.append(recs)
        walls.append(wall)
        if len(passes) == 1:
            rss = peak_rss_mb()
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return passes, walls, rss


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, None if not found."""
    import ctypes

    import numpy as np
    site = Path(np.__file__).resolve().parent.parent
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for lib in sorted(site.glob("*/*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def run_context() -> dict:
    import numpy as np
    import scipy
    from paircorr import measure
    pool = getattr(measure, "_thread_workers", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pool_workers": pool() if pool is not None else None,
        "PAIRCORR_THREADS": os.environ.get("PAIRCORR_THREADS"),
        "openblas_threads": openblas_threads(),
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def span_table(spans, kids, limit=12) -> list:
    """Span names by total self time, for the human-readable report."""
    from tracer import self_time
    agg: dict = {}
    for s in spans:
        row = agg.setdefault(s.name, [s.layer, 0, 0.0])
        row[1] += 1
        row[2] += self_time(s, kids)
    top = sorted(agg.items(), key=lambda kv: -kv[1][2])[:limit]
    return [[name, layer, n, t] for name, (layer, n, t) in top]


def write_spans(path: str, spans) -> None:
    index = {id(s): i for i, s in enumerate(spans)}
    rows = [{"name": s.name, "layer": s.layer, "start": s.start,
             "end": s.end, "thread": s.thread, "counts": s.counts,
             "error": s.error,
             "parent": index.get(id(s.parent)) if s.parent else None}
            for s in spans]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh)


def write_reference(workload, seed, inputs, records) -> None:
    """One line per call, so a changed value shows as a one-line diff."""
    calls = ",\n".join(f"  {json.dumps(r.name)}: "
                       f"{json.dumps(r.digest, sort_keys=True)}"
                       for r in records)
    head = json.dumps({"workload": workload, "seed": seed, "inputs": inputs},
                      sort_keys=True)[:-1]
    reference_path(workload).write_text(
        f"{head}, \"calls\": {{\n{calls}\n}}}}\n", encoding="utf-8")


def run(args) -> dict:
    wl, inputs, ctx, setup_s = setup(args.workload, args.seed)
    import checking
    import workloads
    reference = None
    if args.seed == workloads.DEFAULT_SEED and not args.record:
        path = reference_path(args.workload)
        reference = (json.loads(path.read_text(encoding="utf-8"))["calls"]
                     if path.is_file() else {})
    cpu0 = os.times()
    out = {"setup_s": setup_s, "inputs": inputs}
    pass_args = (wl, ctx, inputs, args.out, reference)
    if args.trace:
        import tracer as tr
        # untraced, traced, untraced: the traced pass is compared with the
        # mean of its neighbours, so neither side gets the cold first pass
        before, wall_before = one_pass(*pass_args)
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced, wall_traced = one_pass(*pass_args)
        finally:
            tracer.uninstall()
        after, wall_after = one_pass(*pass_args)
        passes, walls = [before, traced, after], [wall_before, wall_after]
        rss = peak_rss_mb()
        spans = tracer.spans
        values, absent = tr.layer_metrics(spans, tracer.missing, wall_traced,
                                          statistics.mean(walls))
        out.update(layers=values, missing_metrics=absent,
                   missing_boundaries=tracer.missing,
                   traced_wall_s=wall_traced,
                   spans=span_table(spans, tr.children_of(spans)))
        if args.spans:
            write_spans(args.spans, spans)
    else:
        passes, walls, rss = passes_within(args.seconds, *pass_args)
        out["wall_s"] = checking.typical_pass(passes)
    cpu1 = os.times()
    attempted, failed = checking.tally(passes)
    if args.record:
        write_reference(args.workload, args.seed, inputs, passes[0])
    out.update(
        walls=walls,
        cpu_s=(cpu1.user + cpu1.system) - (cpu0.user + cpu0.system),
        peak_rss_mb=rss,
        attempted=attempted,
        failed=failed,
        problems=[f"{r.name}: {p}" for recs in passes for r in recs
                  for p in r.problems][:20],
        context=run_context(),
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".")
    parser.add_argument("--spans")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.mode == "setup":
        result = {"setup_s": setup(args.workload, args.seed)[3]}
    else:
        result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
