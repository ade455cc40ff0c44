"""The repository benchmark: one workload per call, every output checked.

    python3 perfbench/run.py --workload mc-variance --seed 0 --seconds 30 \\
        --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  The workload runs against ``src/`` in a
fresh process (worker.py); set-up is timed in seven more fresh processes
and reported as their median.  With ``--trace 0`` the last line of output
is a JSON object with the end-to-end metrics; with ``--trace 1`` the
workload runs three passes (untraced, traced, untraced) and the JSON holds
the per-layer metrics.  See README.md for every metric and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 7
DEADLINE_S = 170.0
WORKLOAD_NAMES = ("mc-variance", "exact-sums", "point-stats")
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_ratio": "1"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "paircorr").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    timeout = max(1.0, deadline - time.monotonic())
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True, env=env,
                          cwd=str(ROOT), timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {done.returncode}:\n"
                           + done.stderr[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",),
                        help="'all' runs every workload untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="pin this run's digests as the reference "
                             "(default seed only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        return fail("--seed must be a non-negative integer")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if args.record and args.seed != 0:
        return fail("--record pins the default seed 0 only")
    if not (SRC / "paircorr" / "__init__.py").is_file():
        return fail(f"no paircorr sources under {SRC}; run from a checkout")
    if args.workload == "all":
        if args.record:
            return fail("--record needs one workload")
        return max(main(["--workload", w, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(t)])
                   for w in WORKLOAD_NAMES for t in (0, 1))
    deadline = time.monotonic() + DEADLINE_S
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # set-up is sampled before and after the workload, so that one quiet or
    # busy moment of the machine does not set the median alone
    setup_runs = 0 if args.trace else SETUP_RUNS
    try:
        setups = [worker(["setup", *common], deadline)["setup_s"]
                  for _ in range(setup_runs // 2)]
        extra = ["--record"] if args.record else []
        if args.trace:
            extra += ["--spans",
                      str(OUT / f"spans-{args.workload}-seed{args.seed}.json")]
        res = worker(["run", *common, "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--out", str(out_dir),
                      *extra], deadline)
        setups += [worker(["setup", *common], deadline)["setup_s"]
                   for _ in range(setup_runs - setup_runs // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            OSError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    ctx = dict(res["context"], git=git_revision(), src_sha256=source_digest())
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"inputs={json.dumps(res['inputs'])}")
    print("context " + " ".join(f"{k}={v}" for k, v in ctx.items()))
    print(f"passes={len(res['walls'])} pass_walls_s="
          + ",".join(f"{w:.3f}" for w in res["walls"])
          + (f" traced_pass_wall_s={res['traced_wall_s']:.3f}"
             if args.trace else "")
          + f" cpu_s={res['cpu_s']:.2f}")
    print(f"fail_ratio {failed / attempted:.6g} (1)  "
          f"[{failed} of {attempted} calls failed]")
    for p in res["problems"]:
        print(f"  FAIL {p}")
    if args.trace:
        import tracer
        units = {name: unit for name, unit, _, _ in tracer.LAYER_METRICS}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in res["layers"].items()}
        for name, layer, n, t in res["spans"]:
            print(f"  span {name:<40s} {layer:<24s} n={n:<7d} self={t:.4f} s")
        for name in res["missing_metrics"]:
            print(f"  MISSING {name} (boundaries gone: "
                  f"{', '.join(res['missing_boundaries'])})")
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": res["wall_s"],
                  "peak_rss_mb": res["peak_rss_mb"],
                  "ok_ratio": (attempted - failed) / attempted}
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in values.items()}
        print("setup_samples_s=" + ",".join(f"{s:.4f}" for s in setups))
    for k, m in metrics.items():
        print(f"{k:<32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
