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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__, _precision
from .beurling import build_beurling_selberg
from .diophantine import ResourceGuardError, duq_bound_check
from .expsums import SequenceSpec, exp_sum_pair
from .kernels import default_f, default_h
from .measure import MuMeasure, second_moment_roff, second_moment_tilde_e
from .stats import fractional_parts, gap_distribution, pair_corr_count

EXPERIMENTS = ("paircorr", "gaps", "bprocess", "moments", "roff-variance",
               "dio", "bs-check")

# the per-row pass thresholds each experiment reads, with their defaults;
# ExperimentConfig.tolerances may override these keys and no others
_TOLERANCES = {
    "paircorr": {"pair_corr_rel": 0.10},
    "gaps": {},
    "bprocess": {"bprocess_const": 10.0},
    "moments": {"moment_ratio": 20.0},
    "roff-variance": {"roff_slope": -0.2},
    "dio": {"count_ratio": 50.0},
    "bs-check": {"bs_slack": 1e-3},
}


# each size of a (C, ell_range) subsequence is one more run of the experiment
_MAX_SIZES = 1000
# each sampled alpha is one more point set, and each gap bin one more row
_MAX_ALPHAS = 1000
_MAX_BINS = 10_000


class ConfigError(Exception):
    """The run request cannot be executed as configured."""


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _is_ints(v, length: int | None = None) -> bool:
    return (isinstance(v, (list, tuple)) and all(map(_is_int, v))
            and length in (None, len(v)))


def _optional(test):
    return lambda v: v is None or test(v)


# what a JSON config may hold in each field that a range or membership
# test alone would not reject cleanly, and how to say so
_FIELD_TYPES = {
    "theta": (_is_real, "a finite number"),
    "alpha": (_is_real, "a finite number"),
    "alpha_count": (_is_int, "an integer"),
    "N_list": (_optional(_is_ints), "a list of integers"),
    "C": (_optional(_is_int), "an integer"),
    "ell_range": (_optional(lambda v: _is_ints(v, 2)), "a pair of integers"),
    "eps": (_is_real, "a finite number"),
    "seed": (_is_int, "an integer"),
    "output_dir": (lambda v: isinstance(v, str), "a string"),
    "exclude_squares": (lambda v: isinstance(v, bool), "true or false"),
    "bins": (_is_int, "an integer"),
    "samples": (_optional(_is_int), "an integer"),
    "tolerances": (lambda v: isinstance(v, dict)
                   and all(map(_is_real, v.values())),
                   "an object of finite numbers"),
}


@dataclass
class ExperimentConfig:
    """One experiment request; field defaults give a small honest run.

    N values come either from N_list or from the polynomial subsequence
    (C, ell_range); when both are absent each experiment picks its
    customary sizes.  tolerances overrides the per-row pass thresholds.
    """

    experiment: str
    theta: float = 0.5
    alpha_mode: str = "fixed"
    alpha: float = 1.0
    alpha_count: int = 3
    N_list: list[int] | None = None
    C: int | None = None
    ell_range: tuple[int, int] | None = None
    eps: float = 0.05
    seed: int = 0
    output_dir: str = "."
    exclude_squares: bool = False
    bins: int = 80
    samples: int | None = None
    tolerances: dict = field(default_factory=dict)

    def validate(self) -> None:
        for name, (ok, kind) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ConfigError(f"{name} must be {kind}, got {value!r}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {', '.join(EXPERIMENTS)}")
        known = _TOLERANCES[self.experiment]
        unknown = [k for k in self.tolerances if k not in known]
        if unknown:
            raise ConfigError(
                f"{self.experiment} takes no tolerances {unknown!r}; "
                f"its keys are {list(known)!r}")
        if not 0.0 < self.theta < 1.0:
            raise ConfigError("theta must lie strictly between 0 and 1")
        if not 0.0 < self.eps < 0.2:
            raise ConfigError("eps must lie strictly between 0 and 0.2")
        if self.alpha_mode not in ("fixed", "sample"):
            raise ConfigError("alpha_mode must be 'fixed' or 'sample'")
        if self.alpha_mode == "fixed" and self.alpha <= 0.0:
            raise ConfigError("alpha must be positive")
        if self.alpha_mode == "sample" and self.alpha_count < 1:
            raise ConfigError("alpha_count must be a positive integer")
        if self.alpha_mode == "sample" and self.alpha_count > _MAX_ALPHAS:
            raise ConfigError(f"alpha_count is {self.alpha_count}; at most "
                              f"{_MAX_ALPHAS} alphas are allowed")
        if (self.C is not None) != (self.ell_range is not None):
            raise ConfigError("subsequence mode needs both C and ell_range")
        if self.C is not None:
            if self.C < 2:
                raise ConfigError("subsequence exponent C must be >= 2")
            lo, hi = self.ell_range
            if not 2 <= lo <= hi:  # sizes >= 2, as in N_list
                raise ConfigError("ell_range must satisfy 2 <= lo <= hi")
            if hi - lo >= _MAX_SIZES:
                raise ConfigError(f"ell_range gives {hi - lo + 1} sizes; "
                                  f"at most {_MAX_SIZES} are allowed")
            if _past_int64(self.C, hi):
                raise ConfigError(
                    f"{hi}**{self.C} exceeds the 2^63 size range")
        if self.N_list is not None:
            if not self.N_list or min(self.N_list) < 2:
                raise ConfigError("N_list entries must be integers >= 2")
            if self.experiment == "dio" and min(self.N_list) < 4:
                raise ConfigError("dio needs N >= 4")  # duq_bound_check's
        if self.bins < 1:
            raise ConfigError("bins must be a positive integer")
        if self.bins > _MAX_BINS:
            raise ConfigError(f"bins is {self.bins}; at most {_MAX_BINS} "
                              "are allowed")
        if self.samples is not None and self.samples < 2:
            raise ConfigError("samples must be at least 2")
        if (self.experiment == "roff-variance" and self.samples is not None
                and self.samples < 100):
            raise ConfigError("roff-variance needs at least 100 samples")
        if not 0 <= self.seed < 2 ** 128:  # the Philox key range
            raise ConfigError("seed must be an integer in [0, 2**128)")

    def resolve_N(self, default: list[int]) -> list[int]:
        if self.N_list is not None:
            return [int(n) for n in self.N_list]
        if self.C is not None:
            return subsequence(self.C, self.ell_range[0], self.ell_range[1])
        return default

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key,
                                         _TOLERANCES[self.experiment][key]))


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


def _alphas(cfg: ExperimentConfig, mu: MuMeasure) -> list[float]:
    if cfg.alpha_mode == "fixed":
        return [float(cfg.alpha)]
    return [float(a) for a in mu.sample_alphas(cfg.alpha_count, substream=0)]


def _run_paircorr(cfg: ExperimentConfig) -> list[dict]:
    mu = MuMeasure(cfg.theta, seed=cfg.seed)
    tol = cfg.tol("pair_corr_rel")
    rows = []
    for N in cfg.resolve_N([10 ** 5]):
        for alpha in _alphas(cfg, mu):
            ps = fractional_parts(cfg.theta, alpha, N + 1, 2 * N,
                                  exclude_squares=cfg.exclude_squares)
            for s in (0.5, 1.0, 2.0):
                est = pair_corr_count(ps, s)
                ok = abs(est.normalized - est.poisson_ref) <= tol * est.poisson_ref
                rows.append(_row(
                    "stats.pair_corr_count", cfg.seed,
                    {"theta": cfg.theta, "alpha": alpha, "N": N, "s": s},
                    s, est.normalized, est.poisson_ref, ok))
    return rows


def _run_gaps(cfg: ExperimentConfig) -> list[dict]:
    mu = MuMeasure(cfg.theta, seed=cfg.seed)
    rows = []
    for N in cfg.resolve_N([10 ** 6]):
        for alpha in _alphas(cfg, mu):
            ps = fractional_parts(cfg.theta, alpha, 1, N,
                                  exclude_squares=cfg.exclude_squares)
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
    for N in cfg.resolve_N([10 ** 3, 10 ** 4]):
        for _ in range(10):
            alpha = float(rng.uniform(1.0, 2.0))
            j = int(rng.integers(int(math.ceil(N ** 0.6)),
                                 max(int(N ** 1.1), int(N ** 0.6) + 2)))
            spec = SequenceSpec(cfg.theta, alpha, N)
            pair = exp_sum_pair(spec, h, j)
            const = (abs(pair.direct - pair.short) * math.sqrt(j)
                     / N ** (1.0 - cfg.theta / 2.0))
            rows.append(_row(
                "expsums.exp_sum_pair", cfg.seed,
                {"theta": cfg.theta, "alpha": alpha, "N": N, "j": j},
                j, const, bound, const <= bound))
    return rows


def _run_moments(cfg: ExperimentConfig) -> list[dict]:
    mu = MuMeasure(cfg.theta, seed=cfg.seed)
    samples = cfg.samples or 2000
    ratio_bound = cfg.tol("moment_ratio")
    rows = []
    for N in cfg.resolve_N([10 ** 4]):
        for j in (N, 2 * N, 4 * N):
            est = second_moment_tilde_e(cfg.theta, N, j, mu, samples=samples)
            ref = ratio_bound * N
            rows.append(_row(
                "measure.second_moment_tilde_e", cfg.seed,
                {"theta": cfg.theta, "N": N, "j": j, "samples": samples,
                 "stderr": est.stderr},
                j, est.value, ref, est.value <= ref))
    return rows


def _run_roff_variance(cfg: ExperimentConfig) -> list[dict]:
    mu = MuMeasure(cfg.theta, seed=cfg.seed)
    f, h = default_f(), default_h()
    samples = cfg.samples or 500
    Ns = cfg.resolve_N([2 ** 10, 2 ** 12, 2 ** 14])
    rows = []
    values = []
    for N in Ns:
        est = second_moment_roff(cfg.theta, N, f, h, cfg.eps, mu,
                                 samples=samples)
        prev = values[-1] if values else est.value
        values.append(est.value)
        rows.append(_row(
            "measure.second_moment_roff", cfg.seed,
            {"theta": cfg.theta, "N": N, "eps": cfg.eps, "samples": samples,
             "stderr": est.stderr},
            N, est.value, prev, est.value <= prev))
    if len(Ns) >= 2 and all(v > 0 for v in values):
        slope = float(np.polyfit(np.log(Ns), np.log(values), 1)[0])
        target = cfg.tol("roff_slope")
        rows.append(_row("measure.second_moment_roff.slope", cfg.seed,
                         {"theta": cfg.theta, "N_list": list(Ns)},
                         -1.0, slope, target, slope <= target))
    return rows


def _run_dio(cfg: ExperimentConfig) -> list[dict]:
    bound = cfg.tol("count_ratio")
    rows = []
    for N in cfg.resolve_N([256]):
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


_RUNNERS = {
    "paircorr": _run_paircorr,
    "gaps": _run_gaps,
    "bprocess": _run_bprocess,
    "moments": _run_moments,
    "roff-variance": _run_roff_variance,
    "dio": _run_dio,
    "bs-check": _run_bs_check,
}


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment and write report.json plus a CSV next to it.

    Returns the report dict; the timestamp field is the only part that
    varies between identically-configured runs.
    """
    config.validate()
    if _precision.LD_NMANT < 63:
        raise ConfigError(
            f"long double has {_precision.LD_NMANT} mantissa bits; the "
            "phase reductions need at least 63")
    t0 = time.time()
    rows = _RUNNERS[config.experiment](config)
    if not rows:
        sizes = f"N={config.N_list}" if config.N_list else "its default N"
        raise ConfigError(
            f"{config.experiment} has no rows: its range is empty at "
            f"theta={config.theta}, eps={config.eps}, {sizes}")
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
        },
    }
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(out / f"{config.experiment}.csv", "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("x,value,reference,ratio\n")
        for r in rows:
            fh.write(f"{r['x']!r},{r['value']!r},{r['reference']!r},"
                     f"{r['ratio']!r}\n")
    return report


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    fields = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                fields = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse {args.config}: {exc}") from exc
        if not isinstance(fields, dict):
            raise ConfigError("config file must hold a JSON object")
    fields["experiment"] = args.experiment
    if args.theta is not None:
        fields["theta"] = args.theta
    if args.N is not None:
        try:
            fields["N_list"] = [int(tok) for tok in args.N.split(",") if tok]
        except ValueError as exc:
            raise ConfigError(f"bad N list {args.N!r}") from exc
    if args.seed is not None:
        fields["seed"] = args.seed
    if args.eps is not None:
        fields["eps"] = args.eps
    if args.out is not None:
        fields["output_dir"] = args.out
    try:
        return ExperimentConfig(**fields)
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
        config.validate()
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
