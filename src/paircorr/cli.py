"""Experiment runner: configure, execute, and serialize the lab runs.

Each experiment calls the library, collects per-row results with their
provenance, and writes a deterministic report.json plus a plot-ready CSV.
Exit codes: 0 all rows pass, 1 some row failed, 2 config error, 3 resource
guard tripped.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import platform
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__, _precision
from ._pool import ResourceGuardError
from .beurling import build_beurling_selberg
from .diophantine import duq_bound_check
from .expsums import SequenceSpec, exp_sum_pair
from .kernels import default_f, default_h
from .measure import MuMeasure, second_moment_roff, second_moment_tilde_e
from .stats import fractional_parts, gap_distribution, pair_corr_count

# each size of a (C, ell_range) subsequence is one more run of the experiment
_MAX_THETA_N = 1000
# each sampled alpha is one more point set, and each gap bin one more row
_MAX_ALPHAS = 1000
_MAX_BINS = 10_000


class ConfigError(Exception):
    """The run request cannot be executed as configured."""


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _is_ints(v, lo: int) -> bool:
    return (isinstance(v, (list, tuple))
            and all(_is_int(n) and n >= lo for n in v))


# one check per field, type and range together, and how to say it fails;
# None stands for the experiment's own sizes, eps or samples
_FIELDS = {
    "theta": (lambda v: _is_real(v) and 0 < v < 1,
              "a number strictly between 0 and 1"),
    "alpha_mode": (lambda v: v in ("fixed", "sample"), "'fixed' or 'sample'"),
    "alpha": (lambda v: _is_real(v) and v > 0, "a positive number"),
    "alpha_count": (lambda v: _is_int(v) and 1 <= v <= _MAX_ALPHAS,
                    f"an integer from 1 to {_MAX_ALPHAS}"),
    "N_list": (lambda v: v is None or (_is_ints(v, 2) and len(v) > 0),
               "a non-empty list of integers >= 2"),
    "C": (lambda v: v is None or (_is_int(v) and v >= 2), "an integer >= 2"),
    "ell_range": (lambda v: v is None or (_is_ints(v, 2) and len(v) == 2
                                          and 0 <= v[1] - v[0] < _MAX_THETA_N),
                  f"a pair lo <= hi of integers >= 2, at most {_MAX_THETA_N} "
                  "apart"),
    "eps": (lambda v: v is None or (_is_real(v) and 0 < v < 0.2),
            "a number strictly between 0 and 0.2"),
    # the Philox key range
    "seed": (lambda v: _is_int(v) and 0 <= v < 2 ** 128,
             "an integer in [0, 2**128)"),
    "output_dir": (lambda v: isinstance(v, str), "a string"),
    "exclude_squares": (lambda v: isinstance(v, bool), "true or false"),
    "bins": (lambda v: _is_int(v) and 1 <= v <= _MAX_BINS,
             f"an integer from 1 to {_MAX_BINS}"),
    "samples": (lambda v: v is None or (_is_int(v) and v >= 2),
                "an integer >= 2"),
    "tolerances": (lambda v: isinstance(v, dict)
                   and all(map(_is_real, v.values())),
                   "an object of finite numbers"),
}
# fields every experiment takes; the record lists the others it reads
_ALWAYS_READ = ("experiment", "seed", "output_dir", "tolerances")


@dataclass
class ExperimentConfig:
    """One experiment request; every default gives a small honest run.

    N values come either from N_list or from the polynomial subsequence
    (C, ell_range).  Sizes, eps and samples left at None, and the per-row
    pass thresholds that tolerances does not override, come from the
    experiment's record in _EXPERIMENTS.
    """

    experiment: str
    theta: float = 0.5
    alpha_mode: str = "fixed"
    alpha: float = 1.0
    alpha_count: int = 3
    N_list: list[int] | None = None
    C: int | None = None
    ell_range: tuple[int, int] | None = None
    eps: float | None = None
    seed: int = 0
    output_dir: str = "."
    exclude_squares: bool = False
    bins: int = 80
    samples: int | None = None
    tolerances: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Check every field, then fill eps and samples from the record.

        A field away from its default that the experiment does not read
        is an error, not silently dropped.
        """
        for name, (ok, kind) in _FIELDS.items():
            value = getattr(self, name)
            if not ok(value):
                raise ConfigError(f"{name} must be {kind}, got {value!r}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {', '.join(EXPERIMENTS)}")
        exp = _EXPERIMENTS[self.experiment]
        default = ExperimentConfig(self.experiment)
        unread = [name for name in _FIELDS
                  if name not in _ALWAYS_READ + exp.reads
                  and getattr(self, name) != getattr(default, name)]
        if unread:
            raise ConfigError(
                f"{self.experiment} does not read {', '.join(unread)}")
        unknown = [k for k in self.tolerances if k not in exp.tolerances]
        if unknown:
            raise ConfigError(
                f"{self.experiment} takes no tolerances {unknown!r}; "
                f"its keys are {list(exp.tolerances)!r}")
        if (self.C is not None) != (self.ell_range is not None):
            raise ConfigError("subsequence mode needs both C and ell_range")
        if self.C is not None and _past_int64(self.C, self.ell_range[1]):
            raise ConfigError(
                f"{self.ell_range[1]}**{self.C} exceeds the 2^63 size range")
        if self.eps is None:
            self.eps = exp.eps
        if self.samples is None:
            self.samples = exp.samples
        if min(self.resolve_N(), default=exp.min_N) < exp.min_N:
            raise ConfigError(f"{self.experiment} needs N >= {exp.min_N}")
        if self.samples is not None and self.samples < exp.min_samples:
            raise ConfigError(f"{self.experiment} needs at least "
                              f"{exp.min_samples} samples")

    def resolve_N(self) -> list[int]:
        if self.N_list is not None:
            return [int(n) for n in self.N_list]
        if self.C is not None:
            return subsequence(self.C, self.ell_range[0], self.ell_range[1])
        return list(_EXPERIMENTS[self.experiment].sizes)

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(
            key, _EXPERIMENTS[self.experiment].tolerances[key]))


@dataclass(frozen=True)
class _Experiment:
    """Everything the runner knows of one experiment."""

    runner: Callable[[ExperimentConfig], list[dict]]
    reads: tuple[str, ...]  # its config fields besides _ALWAYS_READ
    sizes: tuple[int, ...]  # N when neither N_list nor C is given
    tolerances: dict  # pass-threshold keys and their defaults
    eps: float | None = None
    samples: int | None = None
    min_N: int = 2
    min_samples: int = 2


def _past_int64(C: int, ell: int) -> bool:
    # C >= 63 decides without forming a huge power
    return ell > 1 and (C >= 63 or ell ** C >= 2 ** 63)


def subsequence(C: int, ell_lo: int, ell_hi: int) -> list[int]:
    """The polynomial test sizes ell**C, deduplicated and ascending."""
    if C < 1:
        raise ValueError("C must be a positive integer")
    if not 1 <= ell_lo <= ell_hi:
        raise ValueError("need 1 <= ell_lo <= ell_hi")
    if _past_int64(C, ell_hi):
        raise OverflowError(
            f"{ell_hi}**{C} exceeds the 2^63 size range")
    return sorted({ell ** C for ell in range(ell_lo, ell_hi + 1)})


def _row(op: str, seed: int, inputs: dict, x: float, value: float,
         reference: float, ok: bool) -> dict:
    # ratio pinned to 0 for zero references to keep the JSON strict
    ratio = value / reference if reference != 0.0 else 0.0
    return {"op": op, "seed": seed, "inputs": inputs, "x": float(x),
            "value": float(value), "reference": float(reference),
            "ratio": float(ratio), "pass": bool(ok)}


def _alphas(cfg: ExperimentConfig) -> list[float]:
    if cfg.alpha_mode == "fixed":
        return [float(cfg.alpha)]
    mu = MuMeasure(cfg.theta, seed=cfg.seed)
    return [float(a) for a in mu.sample_alphas(cfg.alpha_count, substream=0)]


def _point_sets(cfg: ExperimentConfig, window):
    """(N, alpha, point set) for each size and dilate, the integers from
    window(N) = (n_lo, n_hi).

    Every pair is checked before any set is built.  The long-double spacing
    of the largest phase, 2**-LD_NMANT of alpha * n_hi**theta, must stay
    within 1e-6 of the mean gap 1 / M, M = n_hi - n_lo + 1; past it the
    points are not alpha * n**theta mod 1 to the digits a pair count or a
    gap reads, and the run is refused as bad config.
    """
    alphas = _alphas(cfg)
    cells = [(N, alpha) for N in cfg.resolve_N() for alpha in alphas]
    for N, alpha in cells:
        n_lo, n_hi = window(N)
        M = n_hi - n_lo + 1
        phase = alpha * float(n_hi) ** cfg.theta
        if not phase * 2.0 ** -_precision.LD_NMANT <= 1e-6 / M:
            raise ConfigError(
                f"alpha * n**theta keeps too few digits mod 1 for {M} points "
                f"(alpha={alpha!r}, theta={cfg.theta!r}, N={N}, n_hi={n_hi})")
    for N, alpha in cells:
        yield N, alpha, fractional_parts(cfg.theta, alpha, *window(N),
                                         exclude_squares=cfg.exclude_squares)


def _run_paircorr(cfg: ExperimentConfig) -> list[dict]:
    tol = cfg.tol("pair_corr_rel")
    rows = []
    for N, alpha, ps in _point_sets(cfg, lambda N: (N + 1, 2 * N)):
        for s in (0.5, 1.0, 2.0):
            est = pair_corr_count(ps, s)
            ok = abs(est.normalized - est.poisson_ref) <= tol * est.poisson_ref
            rows.append(_row(
                "stats.pair_corr_count", cfg.seed,
                {"theta": cfg.theta, "alpha": alpha, "N": N, "s": s},
                s, est.normalized, est.poisson_ref, ok))
    return rows


def _run_gaps(cfg: ExperimentConfig) -> list[dict]:
    rows = []
    for N, alpha, ps in _point_sets(cfg, lambda N: (1, N)):
        g = gap_distribution(ps, bins=cfg.bins)
        width = float(g.edges[1] - g.edges[0])
        inputs = {"theta": cfg.theta, "alpha": alpha, "N": N,
                  "bins": cfg.bins}
        for mid, dens in zip(g.midpoints, g.density):
            # reference column is the Poisson gap law, plot aid only
            rows.append(_row("stats.gap_distribution", cfg.seed, inputs,
                             float(mid), float(dens),
                             float(math.exp(-mid)), True))
        mass = float(g.density.sum() * width + g.overflow_count / g.n_points)
        rows.append(_row("stats.gap_distribution.mass", cfg.seed, inputs,
                         -1.0, mass, 1.0, abs(mass - 1.0) <= 1e-9))
    return rows


def _run_bprocess(cfg: ExperimentConfig) -> list[dict]:
    h = default_h()
    bound = cfg.tol("bprocess_const")
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for N in cfg.resolve_N():
        for _ in range(10):
            alpha = float(rng.uniform(1.0, 2.0))
            j = int(rng.integers(int(math.ceil(N ** 0.6)),
                                 max(int(N ** 1.1), int(N ** 0.6) + 2)))
            spec = SequenceSpec(cfg.theta, alpha, N)
            const = exp_sum_pair(spec, h, j).ratio
            rows.append(_row(
                "expsums.exp_sum_pair", cfg.seed,
                {"theta": cfg.theta, "alpha": alpha, "N": N, "j": j},
                j, const, bound, const <= bound))
    return rows


def _run_moments(cfg: ExperimentConfig) -> list[dict]:
    mu = MuMeasure(cfg.theta, seed=cfg.seed)
    ratio_bound = cfg.tol("moment_ratio")
    rows = []
    for N in cfg.resolve_N():
        for j in (N, 2 * N, 4 * N):
            est = second_moment_tilde_e(N, j, mu, samples=cfg.samples)
            ref = ratio_bound * N
            rows.append(_row(
                "measure.second_moment_tilde_e", cfg.seed,
                {"theta": cfg.theta, "N": N, "j": j, "samples": cfg.samples,
                 "stderr": est.stderr},
                j, est.value, ref, est.value <= ref))
    return rows


def _run_roff_variance(cfg: ExperimentConfig) -> list[dict]:
    mu = MuMeasure(cfg.theta, seed=cfg.seed)
    f, h = default_f(), default_h()
    Ns = cfg.resolve_N()
    rows = []
    values = []
    for N in Ns:
        est = second_moment_roff(N, f, h, cfg.eps, mu, samples=cfg.samples)
        prev = values[-1] if values else est.value
        values.append(est.value)
        rows.append(_row(
            "measure.second_moment_roff", cfg.seed,
            {"theta": cfg.theta, "N": N, "eps": cfg.eps,
             "samples": cfg.samples, "stderr": est.stderr},
            N, est.value, prev, est.value <= prev))
    # a slope needs two distinct sizes; repeated ones fit a single point
    if len(set(Ns)) >= 2 and all(v > 0 for v in values):
        slope = float(np.polyfit(np.log(Ns), np.log(values), 1)[0])
        target = cfg.tol("roff_slope")
        rows.append(_row("measure.second_moment_roff.slope", cfg.seed,
                         {"theta": cfg.theta, "N_list": list(Ns)},
                         -1.0, slope, target, slope <= target))
    return rows


def _run_dio(cfg: ExperimentConfig) -> list[dict]:
    bound = cfg.tol("count_ratio")
    rows = []
    for N in cfg.resolve_N():
        for r in duq_bound_check(cfg.theta, N, cfg.eps):
            inputs = {"theta": cfg.theta, "N": N, "eps": cfg.eps,
                      "u": r["u"], "q": r["q"], "vacuous": r["vacuous"],
                      "j_count": r["j_count"], "z_count": r["z_count"]}
            x = r["u"] + r["q"] / 100.0
            rows.append(_row("diophantine.count_duq", cfg.seed, inputs, x,
                             r["duq"], r["duq_ref"],
                             r["duq_ratio"] <= bound))
            rows.append(_row("diophantine.count_zdiag", cfg.seed, inputs, x,
                             r["zdiag"], r["zdiag_ref"],
                             r["zdiag_ratio"] <= bound))
    return rows


def _run_bs_check(cfg: ExperimentConfig) -> list[dict]:
    bs = build_beurling_selberg()
    slack = cfg.tol("bs_slack")
    ts = np.linspace(-bs.t_max, bs.t_max, 1 << 18)
    xs = np.linspace(-bs.x_max, bs.x_max, 1 << 20)
    core = np.linspace(-1.0, 1.0, 1 << 16)
    phi_min = float(np.min(bs.phi(ts)))
    phi_hat_min = float(np.min(bs.phi_hat(xs)))
    core_min = float(np.min(bs.phi_hat(core)))
    outside = ts[np.abs(ts) > 1.0]
    tail_max = float(np.max(np.abs(bs.phi(outside))))
    inputs = {"series_cutoff": bs.series_cutoff, "x_max": bs.x_max,
              "t_max": bs.t_max}
    return [
        _row("beurling.phi_nonneg", cfg.seed, inputs, 1.0,
             phi_min, 0.0, phi_min >= -1e-12),
        _row("beurling.phi_hat_nonneg", cfg.seed, inputs, 2.0,
             phi_hat_min, 0.0, phi_hat_min >= -slack),
        _row("beurling.phi_hat_core", cfg.seed, inputs, 3.0,
             core_min, 1.0, core_min >= 1.0 - slack),
        _row("beurling.phi_support", cfg.seed, inputs, 4.0,
             tail_max, slack, tail_max <= slack),
    ]


_THETA_N = ("theta", "N_list", "C", "ell_range")
_POINTS = _THETA_N + ("alpha_mode", "alpha", "alpha_count", "exclude_squares")

# one record per experiment, in the order the help text lists them
_EXPERIMENTS = {
    "paircorr": _Experiment(_run_paircorr, _POINTS, (10 ** 5,),
                            {"pair_corr_rel": 0.10}),
    "gaps": _Experiment(_run_gaps, _POINTS + ("bins",), (10 ** 6,), {}),
    "bprocess": _Experiment(_run_bprocess, _THETA_N, (10 ** 3, 10 ** 4),
                            {"bprocess_const": 10.0}),
    "moments": _Experiment(_run_moments, _THETA_N + ("samples",), (10 ** 4,),
                           {"moment_ratio": 20.0}, samples=2000),
    "roff-variance": _Experiment(
        _run_roff_variance, _THETA_N + ("eps", "samples"),
        (2 ** 10, 2 ** 12, 2 ** 14), {"roff_slope": -0.2}, eps=0.05,
        samples=500, min_samples=100),
    # eps 0.05 gives N = 256 no rows; duq_bound_check needs N >= 4
    "dio": _Experiment(_run_dio, _THETA_N + ("eps",), (256,),
                       {"count_ratio": 50.0}, eps=0.1, min_N=4),
    "bs-check": _Experiment(_run_bs_check, (), (), {"bs_slack": 1e-3}),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def _peak_rss_mb() -> float | None:
    """The process's peak resident set so far, in MB (2**20 bytes); None
    where the platform has no resource module (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in KiB elsewhere
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment and write report.json plus a CSV next to it.

    Returns the report dict; the timestamp field is the only part that
    varies between identically-configured runs.  It holds the start time,
    the wall time and the process's peak RSS when the rows were done.
    """
    config.validate()
    if _precision.LD_NMANT < 63:
        raise ConfigError(
            f"long double has {_precision.LD_NMANT} mantissa bits; the "
            "phase reductions need at least 63")
    t0 = time.time()
    exp = _EXPERIMENTS[config.experiment]
    rows = exp.runner(config)
    if not rows:
        at = [f"{k}={getattr(config, k)}" for k in ("theta", "eps")
              if k in exp.reads]
        raise ConfigError(
            f"{config.experiment} has no rows: its range is empty at "
            f"{', '.join(at + [f'N={config.resolve_N()}'])}")
    report = {
        "config": asdict(config),
        "experiment": config.experiment,
        "rows": rows,
        "passed": all(r["pass"] for r in rows),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "paircorr": __version__,
            "longdouble_nmant": _precision.LD_NMANT,
        },
        "timestamp": {
            "started": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(),
            "wall_seconds": time.time() - t0,
            "peak_rss_mb": _peak_rss_mb(),
        },
    }
    # both files serialised before any is touched: a non-finite value raises
    # ValueError here (strict JSON) and leaves no half-written report
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    csv = "x,value,reference,ratio\n" + "".join(
        f"{r['x']!r},{r['value']!r},{r['reference']!r},{r['ratio']!r}\n"
        for r in rows)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    csv_path = out / f"{config.experiment}.csv"
    # a rerun writes new files: truncating one whose blocks are on disk waits
    # 40-75 ms on ext4; report.json goes last, so a failed write leaves none
    report_path.unlink(missing_ok=True)
    csv_path.unlink(missing_ok=True)
    csv_path.write_text(csv, encoding="utf-8", newline="\n")
    report_path.write_text(text + "\n", encoding="utf-8", newline="\n")
    return report


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    given = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                given = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse {args.config}: {exc}") from exc
        if not isinstance(given, dict):
            raise ConfigError("config file must hold a JSON object")
    given["experiment"] = args.experiment
    for flag, name in (("theta", "theta"), ("seed", "seed"), ("eps", "eps"),
                       ("out", "output_dir")):
        if getattr(args, flag) is not None:
            given[name] = getattr(args, flag)
    if args.N is not None:
        try:
            given["N_list"] = [int(tok) for tok in args.N.split(",") if tok]
        except ValueError as exc:
            raise ConfigError(f"bad N list {args.N!r}") from exc
    try:
        return ExperimentConfig(**given)
    except TypeError as exc:
        raise ConfigError(f"bad config field: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="paircorr-lab",
        description="numerical experiments on the pair correlation of "
                    "alpha * n**theta mod 1")
    parser.add_argument("experiment", help=f"one of {', '.join(EXPERIMENTS)}")
    parser.add_argument("--config", help="JSON config file; flags override")
    parser.add_argument("--theta", type=float)
    parser.add_argument("--N", help="comma-separated sizes")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--eps", type=float)
    parser.add_argument("--out", help="output directory")
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        report = run(config)
    except (ConfigError, OSError, ValueError) as exc:
        # a ValueError from inside run is an input that validate let through
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    n_fail = sum(1 for r in report["rows"] if not r["pass"])
    print(f"{config.experiment}: {len(report['rows'])} rows, "
          f"{n_fail} failed -> {Path(config.output_dir) / 'report.json'}")
    return 0 if n_fail == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
