"""The benchmark's workloads: generated inputs, library calls, output checks.

A workload is a set-up function that builds the fixed objects (kernels,
measures) and a pass: a generator that yields one ``Call`` per call into
the library and receives that call's return value.  Every call carries a
digest (the JSON-able summary pinned in ``reference/`` for the default
seed) and a check of the invariants that hold for any seed.

All inputs derive from the benchmark seed through ``numpy.random``; the
library only ever sees the generated numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

DEFAULT_SEED = 0

# Sizes.  roff-variance keeps its N ladder; 100 samples is the least the
# library accepts, which keeps one pass near 20 s on a 2-core desk machine.
ROFF_N = (2 ** 10, 2 ** 12, 2 ** 14)
ROFF_SAMPLES = 100
MOMENTS_N = 10 ** 4
MOMENTS_SAMPLES = 2000
CHECK5_N = 512
CHECK5_J_FACTOR = 64
TILDE_N = 4096
DIO_N = (256, 512)
DIO_EPS = 0.1
POINT_THETAS = (0.3, 0.5, 0.7)
WINDOW_N = 10 ** 5
ALPHAS_PER_THETA = 10
S_VALUES = (0.25, 0.5, 1.0, 2.0)
GAPS_N = 10 ** 6
GAPS_ALPHAS = 2
SMOOTH_N = 2 ** 14
SMOOTH_ALPHAS = 5


def no_problems(digest) -> list[str]:
    return []


@dataclass
class Call:
    """One call into the library, with how to summarise and check it."""

    name: str
    fn: Callable[[], object]
    digest: Callable[[object], object]
    check: Callable[[object], list] = field(default=no_problems)


# --- digests ---------------------------------------------------------------

def as_float(x) -> float:
    return float(x)


def as_floats(xs) -> list:
    return [float(x) for x in xs]


def as_complex(z) -> list:
    return [float(z.real), float(z.imag)]


def report_digest(report: dict) -> dict:
    """Rows and verdict of a cli.run report; config and timings vary."""
    return {"passed": bool(report["passed"]), "rows": report["rows"]}


def points_digest(ps) -> dict:
    pts = ps.points
    return {"size": int(ps.size), "sum": float(np.sum(pts)),
            "min": float(pts.min()), "max": float(pts.max())}


def count_digest(est) -> dict:
    return {"s": float(est.s), "count": int(est.count),
            "normalized": float(est.normalized)}


def gaps_digest(g) -> dict:
    width = float(g.edges[1] - g.edges[0])
    mass = float(g.density.sum() * width + g.overflow_count / g.n_points)
    return {"counts": [int(c) for c in g.counts],
            "overflow_count": int(g.overflow_count),
            "overflow_mass": float(g.overflow_mass),
            "n_points": int(g.n_points), "mass": mass}


def weight_sums(w) -> dict:
    return {"H1": float(w.sum()), "H2": float((w ** 2).sum())}


def tilde_digest(parts) -> dict:
    return {"total": float(parts.total), "diagonal": float(parts.diagonal),
            "off_diagonal": float(parts.off_diagonal),
            "j_lo": int(parts.j_lo), "j_hi": int(parts.j_hi)}


def dio_digest(rows) -> list:
    return [{k: (v if isinstance(v, (bool, int)) else float(v))
             for k, v in r.items()} for r in rows]


# --- seed-free invariants -------------------------------------------------

def finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_moment_rows(d: dict) -> list[str]:
    out = []
    if not d["rows"]:
        out.append("no rows")
    for r in d["rows"]:
        if r["op"].endswith(".slope"):
            if not finite(r["value"]):
                out.append(f"slope {r['value']!r} not finite")
            continue
        stderr = r["inputs"].get("stderr")
        if not (finite(r["value"]) and r["value"] >= 0.0):
            out.append(f"{r['op']}: moment {r['value']!r} not finite >= 0")
        if not (finite(stderr) and stderr >= 0.0):
            out.append(f"{r['op']}: stderr {stderr!r} not finite >= 0")
    return out


def check_gap_mass(d: dict) -> list[str]:
    if abs(d["mass"] - 1.0) > 1e-9:
        return [f"gap histogram mass {d['mass']!r} != 1 within 1e-9"]
    return []


def check_gap_report(d: dict) -> list[str]:
    masses = [r for r in d["rows"] if r["op"] == "stats.gap_distribution.mass"]
    if not masses:
        return ["no gap mass rows"]
    return [f"gap histogram mass {r['value']!r} != 1 within 1e-9"
            for r in masses if abs(r["value"] - 1.0) > 1e-9]


def check_count(prev_count: list) -> Callable[[dict], list]:
    """Even ordered-pair count, non-decreasing in s over one point set."""
    def check(d: dict) -> list[str]:
        out = []
        if d["count"] % 2:
            out.append(f"odd ordered-pair count {d['count']}")
        if prev_count and d["count"] < prev_count[-1]:
            out.append(f"count {d['count']} fell below {prev_count[-1]} "
                       "at a larger s")
        prev_count.append(d["count"])
        return out
    return check


def check_paircorr_report(d: dict) -> list[str]:
    out = [] if d["rows"] else ["no rows"]
    for r in d["rows"]:
        n = r["value"] * r["inputs"]["N"]
        if abs(n - round(n)) > 1e-6 * max(1.0, abs(n)) or round(n) % 2:
            out.append(f"pair count {n!r} at s={r['x']} is not an even "
                       "integer")
    return out


def check_points(size: int) -> Callable[[dict], list]:
    def check(d: dict) -> list[str]:
        out = []
        if d["size"] != size:
            out.append(f"{d['size']} points, expected {size}")
        if not (0.0 <= d["min"] and d["max"] < 1.0):
            out.append(f"points outside [0, 1): [{d['min']}, {d['max']}]")
        return out
    return check


def check_finite_nonneg(x: float) -> list[str]:
    return [] if finite(x) and x >= 0.0 else [f"{x!r} not finite >= 0"]


def check_r_identity(route_parts: dict, N: int) -> Callable[[float], list]:
    """Check 5: S + main term - diagonal equals the brute-force R."""
    def check(s: float) -> list[str]:
        p = route_parts
        route = (s + p["fhat0"] * p["H1"] ** 2 / N ** 2
                 - p["f0"] * p["H2"] / N)
        rel = abs(route - p["brute"]) / abs(p["brute"])
        return [] if rel <= 1e-6 else [f"R identity rel error {rel:.2e}"]
    return check


def check_dio_rows(rows: list) -> list[str]:
    out = [] if rows else ["counting grid returned no rows"]
    for r in rows:
        cell = f"(u={r['u']}, q={r['q']})"
        if r["duq"] < 0 or r["zdiag"] < 0:
            out.append(f"{cell}: negative count")
        if not r["vacuous"] and r["duq"] < r["j_count"] * r["z_count"]:
            out.append(f"{cell}: duq {r['duq']} misses the self-pairs")
        if r["zdiag_tau"] > 0 and r["zdiag"] < r["z_count"]:
            out.append(f"{cell}: zdiag {r['zdiag']} misses the self-pairs")
    return out


def check_tilde(d: dict) -> list[str]:
    if not all(finite(d[k]) for k in ("total", "diagonal", "off_diagonal")):
        return [f"non-finite parts {d}"]
    if d["j_lo"] > d["j_hi"]:
        return ["empty j band"]
    return []


def check_bs_rows(d: dict) -> list[str]:
    if len(d["rows"]) != 4:
        return [f"{len(d['rows'])} majorant rows, expected 4"]
    return [f"{r['op']}: {r['value']!r} not finite"
            for r in d["rows"] if not finite(r["value"])]


# --- workloads -------------------------------------------------------------

def _config(cli, out_dir: str, experiment: str, **fields):
    return cli.ExperimentConfig(experiment, output_dir=out_dir, **fields)


def _seeds(seed: int, k: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2 ** 31, size=k)]


class McVariance:
    """Monte Carlo variance: the roff-variance and moments experiments."""

    name = "mc-variance"

    def inputs(self, seed: int) -> dict:
        roff_seed, moments_seed = _seeds(seed, 2)
        return {"roff_seed": roff_seed, "moments_seed": moments_seed}

    def setup(self, inp: dict):
        # cli.run builds its own copies; these time the same set-up work
        from paircorr import kernels, measure
        return {"f": kernels.default_f(), "h": kernels.default_h(),
                "mu": measure.MuMeasure(0.5, seed=inp["roff_seed"])}

    def calls(self, ctx: dict, inp: dict, out_dir: str):
        from paircorr import cli
        roff = _config(cli, out_dir, "roff-variance", theta=0.5, eps=0.05,
                       N_list=list(ROFF_N), samples=ROFF_SAMPLES,
                       seed=inp["roff_seed"])
        yield Call("cli.run.roff-variance", lambda: cli.run(roff),
                   report_digest, check_moment_rows)
        moments = _config(cli, out_dir, "moments", theta=0.5,
                          N_list=[MOMENTS_N], samples=MOMENTS_SAMPLES,
                          seed=inp["moments_seed"])
        yield Call("cli.run.moments", lambda: cli.run(moments),
                   report_digest, check_moment_rows)


class ExactSums:
    """Check 5's fast path, the certified majorant, the counting grid."""

    name = "exact-sums"

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {"alpha": float(rng.uniform(1.0, 2.0))}

    def setup(self, inp: dict):
        from paircorr import expsums, kernels
        return {"f": kernels.default_f(), "h": kernels.default_h(),
                "spec": expsums.SequenceSpec(0.5, inp["alpha"], CHECK5_N),
                "spec_tilde": expsums.SequenceSpec(0.5, inp["alpha"],
                                                   TILDE_N)}

    def calls(self, ctx: dict, inp: dict, out_dir: str):
        from paircorr import cli, diophantine, expsums, kernels
        f, h, spec = ctx["f"], ctx["h"], ctx["spec"]
        N = spec.N
        parts: dict = {}
        parts["brute"] = yield Call(
            "check5.pair_corr_smooth.brute",
            lambda: expsums.pair_corr_smooth(spec, f, h, method="brute"),
            as_float, check_finite_nonneg)
        parts["fhat0"] = (yield Call(
            "check5.fourier.0", lambda: kernels.fourier(f, 0.0),
            as_complex)).real
        parts["f0"] = yield Call("check5.f.0", lambda: f(0.0), as_float)
        parts.update(weight_sums((yield Call(
            "check5.h.weights", lambda: h(np.arange(N, 2 * N + 1) / N),
            weight_sums))))
        yield Call("check5.s_sum",
                   lambda: expsums.s_sum(spec, f, h, CHECK5_J_FACTOR * N),
                   as_float, check_r_identity(parts, N))
        yield Call("check5.s_tilde_parts",
                   lambda: expsums.s_tilde_parts(ctx["spec_tilde"], f, h,
                                                 0.05),
                   tilde_digest, check_tilde)
        bs = _config(cli, out_dir, "bs-check")
        yield Call("cli.run.bs-check", lambda: cli.run(bs), report_digest,
                   check_bs_rows)
        for n in DIO_N:
            yield Call(f"dio.duq_bound_check.N{n}",
                       lambda n=n: diophantine.duq_bound_check(0.5, n,
                                                               DIO_EPS),
                       dio_digest, check_dio_rows)


class PointStats:
    """Point sets, gaps and pair counts: no Fourier tables, no short sums."""

    name = "point-stats"

    def inputs(self, seed: int) -> dict:
        mu_seed, gaps_seed, paircorr_seed = _seeds(seed, 3)
        return {"mu_seed": mu_seed, "gaps_seed": gaps_seed,
                "paircorr_seed": paircorr_seed}

    def setup(self, inp: dict):
        from paircorr import kernels, measure
        return {"f": kernels.default_f(), "h": kernels.default_h(),
                "mu": {t: measure.MuMeasure(t, seed=inp["mu_seed"])
                       for t in POINT_THETAS}}

    def _counts(self, stats, ps, tag: str):
        seen: list = []
        for s in S_VALUES:
            yield Call(f"{tag}.pair_corr_count.s{s}",
                       lambda s=s: stats.pair_corr_count(ps, s),
                       count_digest, check_count(seen))

    def calls(self, ctx: dict, inp: dict, out_dir: str):
        from paircorr import cli, expsums, stats
        for theta in POINT_THETAS:
            gaps = _config(cli, out_dir, "gaps", theta=theta,
                           alpha_mode="sample", alpha_count=GAPS_ALPHAS,
                           N_list=[GAPS_N], seed=inp["gaps_seed"])
            yield Call(f"cli.run.gaps.theta{theta}", lambda c=gaps: cli.run(c),
                       report_digest, check_gap_report)
        paircorr = _config(cli, out_dir, "paircorr",
                           seed=inp["paircorr_seed"])
        yield Call("cli.run.paircorr", lambda: cli.run(paircorr),
                   report_digest, check_paircorr_report)
        # check 2: windows (N, 2N] at sampled alphas
        for theta in POINT_THETAS:
            mu = ctx["mu"][theta]
            alphas = yield Call(
                f"check2.theta{theta}.sample_alphas",
                lambda mu=mu: mu.sample_alphas(ALPHAS_PER_THETA, substream=1),
                as_floats)
            for i, alpha in enumerate(alphas):
                tag = f"check2.theta{theta}.alpha{i}"
                ps = yield Call(
                    f"{tag}.fractional_parts",
                    lambda t=theta, a=float(alpha): stats.fractional_parts(
                        t, a, WINDOW_N + 1, 2 * WINDOW_N),
                    points_digest, check_points(WINDOW_N))
                yield from self._counts(stats, ps, tag)
        # check 3: sort-and-sweep smoothed pair correlation
        mu = ctx["mu"][0.5]
        alphas = yield Call("check3.sample_alphas",
                            lambda: mu.sample_alphas(SMOOTH_ALPHAS,
                                                     substream=2),
                            as_floats)
        for i, alpha in enumerate(alphas):
            spec = expsums.SequenceSpec(0.5, float(alpha), SMOOTH_N)
            yield Call(f"check3.alpha{i}.pair_corr_smooth",
                       lambda spec=spec: expsums.pair_corr_smooth(
                           spec, ctx["f"], ctx["h"]),
                       as_float, check_finite_nonneg)
        # check 10: sqrt(n) at alpha = 1, with and without the squares
        squares = math.isqrt(GAPS_N)
        for tag, drop in (("check10.all", False), ("check10.nosquares", True)):
            ps = yield Call(
                f"{tag}.fractional_parts",
                lambda d=drop: stats.fractional_parts(0.5, 1.0, 1, GAPS_N,
                                                      exclude_squares=d),
                points_digest,
                check_points(GAPS_N - squares if drop else GAPS_N))
            yield Call(f"{tag}.gap_distribution",
                       lambda ps=ps: stats.gap_distribution(ps, bins=80),
                       gaps_digest, check_gap_mass)
            yield from self._counts(stats, ps, tag)


WORKLOADS = {w.name: w for w in (McVariance(), ExactSums(), PointStats())}
