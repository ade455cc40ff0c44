"""Averaging over the dilate alpha: the measure, its sampler, and moments.

The dilate is averaged with density proportional to rho(alpha**Theta)/alpha,
normalised so the substitution beta = alpha**Theta turns the measure into
rho(beta)/beta dbeta with total mass one.  Everything alpha-averaged in this
package (oscillatory integrals, Monte Carlo second moments) is phrased in
the beta variable, where the phases are linear and the windows are fixed.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._precision import LD, as_ld
from .expsums import (SequenceSpec, _short_components, _tilde_from_values,
                      bprocess_constants, _band, _pow_ld)
from .kernels import (FourierTable, TestKernel, _gl_grid, default_h,
                      default_rho, integrate)


class MeasureError(Exception):
    """The supplied density cannot serve as an averaging measure."""


def _thread_workers() -> int:
    return min(4, os.cpu_count() or 1)


@dataclass
class MuMeasure:
    """Probability measure on the dilate, given by a density in beta.

    rho must be positive somewhere on (0, inf) with int rho(b)/b db = 1
    (see kernels.normalize_rho); seed fixes the Philox key that all
    sampling derives from, so runs are reproducible by construction.
    """

    theta: float
    rho: TestKernel = field(default_factory=default_rho)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie strictly between 0 and 1")
        if self.rho.support_lo <= 0.0:
            raise MeasureError("density support must sit inside (0, inf)")
        mass = integrate(self.rho, weight=lambda b: 1.0 / b)
        if abs(mass - 1.0) > 1e-8:
            raise MeasureError(
                f"multiplicative mass is {mass:.10f}, expected 1")
        # envelope and cdf tables in beta
        lo, hi = self.rho.support_lo, self.rho.support_hi
        grid = np.linspace(lo, hi, 1 << 14)
        pdf = self.rho(grid) / grid
        self._pdf_max = float(pdf.max()) * (1.0 + 1e-6)
        width = grid[1] - grid[0]
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))))
        self._cdf_grid = grid
        self._cdf_vals = cum * width

    @property
    def Theta(self) -> float:
        return 1.0 / (1.0 - self.theta)

    @property
    def alpha_range(self) -> tuple[float, float]:
        inv = 1.0 / self.Theta
        return (self.rho.support_lo ** inv, self.rho.support_hi ** inv)

    def pdf_beta(self, beta):
        beta = np.asarray(beta, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(beta > 0.0, self.rho(beta) / np.where(beta > 0, beta, 1.0), 0.0)
        return float(out) if np.ndim(beta) == 0 else out

    def pdf_alpha(self, alpha):
        alpha = np.asarray(alpha, dtype=np.float64)
        out = self.Theta * self.rho(alpha ** self.Theta) / alpha
        return float(out) if np.ndim(alpha) == 0 else out

    def cdf_alpha(self, alpha):
        beta = np.asarray(alpha, dtype=np.float64) ** self.Theta
        out = np.interp(beta, self._cdf_grid, self._cdf_vals,
                        left=0.0, right=1.0)
        return float(out) if np.ndim(alpha) == 0 else out

    def quad(self, g, nodes_per_unit: int = 8192) -> float:
        """Quadrature expectation int g(alpha) dmu(alpha), in beta variables."""
        inv = 1.0 / self.Theta
        return integrate(self.rho, nodes_per_unit=nodes_per_unit,
                         weight=lambda b: np.asarray(g(b ** inv)) / b)

    def sample_alphas(self, n: int, substream: int | None = None) -> np.ndarray:
        """n independent draws; substream k derives a Philox stream jumped k
        times from the seed, so (seed, substream) pins the values exactly."""
        bitgen = np.random.Philox(key=self.seed)
        if substream is not None:
            bitgen = bitgen.jumped(substream + 1)
        gen = np.random.Generator(bitgen)
        # rejection in beta under the flat envelope, mapped back by beta^(1/Theta)
        lo, hi = self.rho.support_lo, self.rho.support_hi
        out = np.empty(n, dtype=np.float64)
        got = 0
        while got < n:
            want = max(64, int(1.5 * (n - got) / max(self._accept_rate(), 0.05)))
            beta = gen.uniform(lo, hi, size=want)
            height = gen.uniform(0.0, self._pdf_max, size=want)
            kept = beta[height <= self.pdf_beta(beta)]
            take = min(kept.size, n - got)
            out[got:got + take] = kept[:take]
            got += take
        return out ** (1.0 / self.Theta)

    def _accept_rate(self) -> float:
        width = self.rho.support_hi - self.rho.support_lo
        return 1.0 / (width * self._pdf_max)


def _check_theta(theta: float, mu: MuMeasure) -> None:
    if abs(theta - mu.theta) > 1e-12:
        raise ValueError("theta disagrees with the measure's theta")


def _stationary_scale(theta: float, N: int, j: int, m) -> np.ndarray:
    """x~ = (theta j / m)^Theta / N, so the window weight reads h(beta x~)."""
    Theta = 1.0 / (1.0 - theta)
    return (theta * float(j) / np.asarray(m, dtype=np.float64)) ** Theta / N


def _osc_panels(lo: float, hi: float, freq: float, node_factor: int = 8):
    panels = max(16, int(np.ceil(node_factor * abs(freq) * (hi - lo))))
    return _gl_grid(lo, hi, panels)


def osc_integral_single(theta: float, N: int, j: int, m: int, n: int,
                        mu: MuMeasure, h: TestKernel | None = None,
                        node_factor: int = 8) -> complex:
    """One off-diagonal pair term averaged over the dilate.

        I = int alpha^Theta h(x_m/N) h(x_n/N)
                e(c2 (alpha j)^Theta (m^(1-Theta) - n^(1-Theta))) dmu(alpha)
          = int rho(beta) h(beta x~_m) h(beta x~_n) e(c2 j^Theta z beta) dbeta

    since the alpha^Theta weight cancels the 1/beta of the measure.  For
    m = n the phase drops out and I is real and nonnegative; for m != n the
    frequency is large for every admissible window and I decays faster than
    any power of N.
    """
    _check_theta(theta, mu)
    if h is None:
        h = default_h()
    Theta = mu.Theta
    c2 = bprocess_constants(theta).c2
    z = float(_pow_ld(np.array([m]), 1.0 - Theta)[0]
              - _pow_ld(np.array([n]), 1.0 - Theta)[0])
    freq = c2 * float(j) ** Theta * z
    xm = _stationary_scale(theta, N, j, m)
    xn = _stationary_scale(theta, N, j, n)
    nodes, wts = _osc_panels(mu.rho.support_lo, mu.rho.support_hi, freq,
                             node_factor)
    amp = mu.rho(nodes) * h(nodes * xm) * h(nodes * xn)
    return complex(np.dot(amp * wts, np.exp(2j * np.pi * freq * nodes)))


def osc_integral_vec(theta: float, N: int, j1: int, j2: int,
                     m1: int, n1: int, m2: int, n2: int,
                     mu: MuMeasure, h: TestKernel | None = None,
                     node_factor: int = 8) -> complex:
    """Averaged quadruple term: two pair phases beating against each other.

    The frequency is c2 (j1^Theta z1 - j2^Theta z2); the two big products
    are differenced in long double before being handed to quadrature, since
    near-diagonal quadruples cancel to many digits.  The amplitude carries
    the beta weight of mean-square averages: beta rho(beta) times the four
    window factors.
    """
    _check_theta(theta, mu)
    if h is None:
        h = default_h()
    Theta = mu.Theta
    c2 = bprocess_constants(theta).c2
    TH_LD = LD(Theta)
    one_m = LD(1.0) - TH_LD
    prod1 = np.power(as_ld(j1), TH_LD) * (
        np.power(as_ld(m1), one_m) - np.power(as_ld(n1), one_m))
    prod2 = np.power(as_ld(j2), TH_LD) * (
        np.power(as_ld(m2), one_m) - np.power(as_ld(n2), one_m))
    freq = c2 * float(prod1 - prod2)
    scales = [_stationary_scale(theta, N, j1, m1), _stationary_scale(theta, N, j1, n1),
              _stationary_scale(theta, N, j2, m2), _stationary_scale(theta, N, j2, n2)]
    nodes, wts = _osc_panels(mu.rho.support_lo, mu.rho.support_hi, freq,
                             node_factor)
    amp = nodes * mu.rho(nodes)
    for s in scales:
        amp = amp * h(nodes * s)
    return complex(np.dot(amp * wts, np.exp(2j * np.pi * freq * nodes)))


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo estimate with its standard error and provenance."""

    value: float
    stderr: float
    samples: int
    seed: int


def _estimate(vals: np.ndarray, samples: int, seed: int) -> MomentEstimate:
    vals = np.asarray(vals, dtype=np.float64)
    err = float(vals.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return MomentEstimate(value=float(vals.mean()), stderr=err,
                          samples=samples, seed=seed)


def _per_sample(theta: float, N: int, mu: MuMeasure, samples: int,
                fn) -> np.ndarray:
    """fn(SequenceSpec(theta, alpha_i, N)) for i < samples, alpha_i the
    first draw of substream i; a thread pool runs them, rows keep order."""
    def one(i: int):
        alpha = float(mu.sample_alphas(1, substream=i)[0])
        return fn(SequenceSpec(theta, alpha, N))

    workers = _thread_workers()
    if workers == 1 or samples <= 1:
        return np.array([one(i) for i in range(samples)])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.array(list(pool.map(one, range(samples))))


def second_moment_tilde_e(theta: float, N: int, j: int, mu: MuMeasure,
                          samples: int = 256, h: TestKernel | None = None,
                          split: bool = False):
    """Monte Carlo for int |E~_{N,j}(alpha)|^2 dmu(alpha).

    With split=True also returns the diagonal (n = m) part of the same
    average, computed from the identical sample path.
    """
    _check_theta(theta, mu)
    if h is None:
        h = default_h()
    js = np.array([j], dtype=np.int64)

    def one(spec: SequenceSpec):
        abs2, diag, _ = _short_components(spec, h, js)
        return abs2[0], diag[0]

    rows = _per_sample(theta, N, mu, samples, one)
    total = _estimate(rows[:, 0], samples, mu.seed)
    if split:
        return total, _estimate(rows[:, 1], samples, mu.seed)
    return total


def second_moment_roff(theta: float, N: int, f: TestKernel, h: TestKernel,
                       eps: float, mu: MuMeasure,
                       samples: int = 128) -> MomentEstimate:
    """Monte Carlo for int |R_off(alpha)|^2 dmu(alpha) over the j-band."""
    _check_theta(theta, mu)
    if samples < 100:
        raise ValueError("variance runs need at least 100 samples")
    probe = SequenceSpec(theta, 1.0, N)
    js = _band(probe, eps)
    if js.size == 0:
        return MomentEstimate(0.0, 0.0, samples, mu.seed)
    table = FourierTable(f, max_abs_freq=js[-1] / N)
    fv = table.values(js / N).real

    def one(spec: SequenceSpec):
        return _tilde_from_values(spec, h, js, fv).off_diagonal ** 2

    return _estimate(_per_sample(theta, N, mu, samples, one), samples,
                     mu.seed)
