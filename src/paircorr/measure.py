"""Averaging over the dilate alpha: the measure, its sampler, and moments.

The dilate is averaged with density proportional to rho(alpha**Theta)/alpha,
normalised so the substitution beta = alpha**Theta turns the measure into
rho(beta)/beta dbeta with total mass one.  Everything alpha-averaged in this
package (oscillatory integrals, Monte Carlo second moments) is phrased in
the beta variable, where the phases are linear and the windows are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._pool import _thread_workers, pmap
from ._precision import _pow_ld
from .expsums import (DilateBlock, SequenceSpec, _short_components,
                      _tilde_from_values, bprocess_constants, _band)
from .kernels import (FourierTable, TestKernel, _gl_grid, default_h,
                      default_rho, integrate)


class MeasureError(Exception):
    """The supplied density cannot serve as an averaging measure."""


# candidates in a first rejection round of sample_alphas
_FIRST_ROUND = 64
# (dilate, j) pairs per block of dilates: a block of samples is one pool
# job, and a sample whose band holds more pairs goes alone.
# _short_components builds a block's terms in chunks of about _pool._CHUNK,
# so no block sets the peak memory; blocks of 2**15 pairs raised the
# mc-variance peak from 128 to 131 MB (2-vCPU x86).
_BLOCK_PAIRS = 1 << 13


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
        # flat rejection envelope in beta
        grid = np.linspace(self.rho.support_lo, self.rho.support_hi, 1 << 14)
        self._pdf_max = float((self.rho(grid) / grid).max()) * (1.0 + 1e-6)

    @property
    def Theta(self) -> float:
        return 1.0 / (1.0 - self.theta)

    def pdf_beta(self, beta):
        beta = np.asarray(beta, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(beta > 0.0, self.rho(beta) / np.where(beta > 0, beta, 1.0), 0.0)
        return float(out) if np.ndim(beta) == 0 else out

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
            want = max(_FIRST_ROUND,
                       int(1.5 * (n - got) / max(self._accept_rate(), 0.05)))
            beta = gen.uniform(lo, hi, size=want)
            height = gen.uniform(0.0, self._pdf_max, size=want)
            kept = beta[height <= self.pdf_beta(beta)]
            take = min(kept.size, n - got)
            out[got:got + take] = kept[:take]
            got += take
        return out ** (1.0 / self.Theta)

    def first_draws(self, n: int) -> np.ndarray:
        """sample_alphas(1, substream=i)[0] for i < n, in one call.

        A single draw takes one round of _FIRST_ROUND candidates (the rate
        floor in sample_alphas keeps the round at that size), so each
        substream's round is replayed here and the accept test runs over
        all rounds at once.  A substream none of whose candidates is
        accepted falls back to sample_alphas itself.
        """
        lo, hi = self.rho.support_lo, self.rho.support_hi
        bitgen = np.random.Philox(key=self.seed)
        start = bitgen.state
        gen = np.random.Generator(bitgen)
        beta = np.empty((n, _FIRST_ROUND))
        height = np.empty((n, _FIRST_ROUND))
        for i in range(n):
            # the state of Philox(key=seed).jumped(i + 1), with no new object
            bitgen.state = start
            bitgen.advance((i + 1) << 128)
            beta[i] = gen.uniform(lo, hi, size=_FIRST_ROUND)
            height[i] = gen.uniform(0.0, self._pdf_max, size=_FIRST_ROUND)
        kept = height <= self.pdf_beta(beta)
        out = beta[np.arange(n), kept.argmax(axis=1)] ** (1.0 / self.Theta)
        for i in np.flatnonzero(~kept.any(axis=1)):
            out[i] = self.sample_alphas(1, substream=int(i))[0]
        return out

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


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo estimate with its standard error and provenance."""

    value: float
    stderr: float
    samples: int
    seed: int


def _estimate(vals: np.ndarray, samples: int, seed: int) -> MomentEstimate:
    vals = np.asarray(vals, dtype=np.float64)
    err = float(vals.std(ddof=1) / np.sqrt(samples))
    return MomentEstimate(value=float(vals.mean()), stderr=err,
                          samples=samples, seed=seed)


def _per_block(theta: float, N: int, mu: MuMeasure, samples: int,
               js: np.ndarray, fn) -> np.ndarray:
    """fn(DilateBlock) over blocks of consecutive samples, its rows joined
    in sample order; sample i's dilate is the first draw of substream i.

    The samples are cut into at least one block per worker, each of at
    most _BLOCK_PAIRS (dilate, j) pairs or a single dilate, as evenly as
    the count allows; the shared pool runs them.
    """
    alphas = mu.first_draws(samples)
    workers = _thread_workers()
    per_block = max(1, _BLOCK_PAIRS // len(js))
    count = max(min(workers, samples), -(-samples // per_block))
    cuts = [i * samples // count for i in range(count + 1)]
    blocks = [DilateBlock(theta, alphas[a:b], N)
              for a, b in zip(cuts[:-1], cuts[1:])]
    return np.concatenate(pmap(fn, blocks, workers))


def second_moment_tilde_e(theta: float, N: int, j: int, mu: MuMeasure,
                          samples: int = 256, h: TestKernel | None = None,
                          split: bool = False):
    """Monte Carlo for int |E~_{N,j}(alpha)|^2 dmu(alpha).

    With split=True also returns the diagonal (n = m) part of the same
    average, computed from the identical sample path.
    """
    _check_theta(theta, mu)
    if samples < 2:
        raise ValueError("second moments need at least 2 samples")
    if h is None:
        h = default_h()
    js = np.array([j], dtype=np.int64)

    def block(b: DilateBlock):
        abs2, diag, _ = _short_components(b, h, js)
        return np.stack([abs2, diag], axis=1)

    rows = _per_block(theta, N, mu, samples, js, block)
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

    def block(b: DilateBlock):
        return [t.off_diagonal ** 2 for t in _tilde_from_values(b, h, js, fv)]

    return _estimate(_per_block(theta, N, mu, samples, js, block), samples,
                     mu.seed)
