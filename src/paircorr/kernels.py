"""Smooth compactly supported test kernels and their Fourier calculus.

Everything downstream (pair correlation windows, smoothed counts, the
sampling density on the alpha interval) is phrased in terms of one kernel
type: a smooth profile that is identically zero outside an open interval.
Exact zeros outside the support are load-bearing; they are what lets the
big sums truncate without an error term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss


class KernelError(Exception):
    """A kernel violated a construction contract."""


class DegenerateKernelError(KernelError):
    """Normalisation was requested for a kernel without positive mass."""


_GL_ORDER = 16
_GL_X, _GL_W = leggauss(_GL_ORDER)


def _gl_grid(lo: float, hi: float, panels: int):
    """Composite Gauss-Legendre rule: `panels` equal panels of 16 nodes."""
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (hi - lo) / panels
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mids[:, None] + half * _GL_X[None, :]).ravel()
    weights = np.tile(half * _GL_W, panels)
    return nodes, weights


@dataclass(frozen=True)
class TestKernel:
    """Smooth function vanishing identically outside (support_lo, support_hi).

    ``profile`` is only evaluated strictly inside the support; the wrapper
    returns exact 0.0 elsewhere.  ``whole_array`` marks a profile that may
    take every point and itself returns exact 0.0 outside the support, with
    the bits the inside-only evaluation would give (make_bump's); the
    wrapper then calls it once on the whole array instead of gathering and
    scattering the inside points.
    """

    # "Test" here means test function, not a pytest suite
    __test__ = False

    support_lo: float
    support_hi: float
    profile: Callable[[np.ndarray], np.ndarray]
    whole_array: bool = False

    def __post_init__(self):
        if not self.support_hi > self.support_lo:
            raise KernelError("empty support interval")

    @property
    def width(self) -> float:
        return self.support_hi - self.support_lo

    def __call__(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if self.whole_array:
            out = self.profile(arr)
        else:
            out = np.zeros(arr.shape, dtype=np.float64)
            inside = (arr > self.support_lo) & (arr < self.support_hi)
            if inside.any():
                out[inside] = self.profile(arr[inside])
        if np.ndim(x) == 0:
            return float(out[0])
        return out

    def scaled(self, c: float) -> "TestKernel":
        """Same support, profile multiplied by the constant c."""
        prof = self.profile
        return TestKernel(
            self.support_lo,
            self.support_hi,
            lambda t, _p=prof, _c=c: _c * _p(t),
        )


def make_bump(lo: float = -1.0, hi: float = 1.0) -> TestKernel:
    """The standard bump exp(-1/(1-u^2)) mapped onto (lo, hi).

    u is the affine image of x in (-1, 1).  The peak value is exp(-1) at the
    midpoint and every derivative vanishes at the endpoints.
    """
    if not hi > lo:
        raise KernelError(f"need lo < hi, got ({lo}, {hi})")

    def profile(x, _lo=lo, _hi=hi):
        # in place: a fresh temporary per step costs more than its arithmetic
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            t = 2.0 * x
            t -= _lo
            t -= _hi
            t /= _hi - _lo  # u
            np.multiply(t, t, out=t)
            np.subtract(1.0, t, out=t)  # 1 - u*u
            # outside the open support, and where t underflows to 0 at its
            # edge, t is set to 0: -1/t = -inf and exp gives the exact 0
            inside = (x > _lo) & (x < _hi) & (t > 0.0)
            if not inside.all():
                np.putmask(t, ~inside, 0.0)
            np.divide(-1.0, t, out=t)
            return np.exp(t, out=t)

    return TestKernel(lo, hi, profile, whole_array=True)


def integrate(kernel: TestKernel, weight: Callable | None = None,
              nodes_per_unit: int = 4096) -> float:
    """Integral of kernel(x) * weight(x) over the support."""
    panels = max(1, math.ceil(kernel.width * nodes_per_unit / _GL_ORDER))
    nodes, wts = _gl_grid(kernel.support_lo, kernel.support_hi, panels)
    vals = kernel(nodes)
    if weight is not None:
        vals = vals * weight(nodes)
    return float(np.dot(vals, wts))


def normalize_rho(kernel: TestKernel, nodes_per_unit: int = 4096) -> TestKernel:
    """Rescale a density on (0, inf) so that int k(x)/x dx = 1."""
    if kernel.support_lo <= 0.0:
        raise DegenerateKernelError("1/x weight needs support inside (0, inf)")
    mass = integrate(kernel, weight=lambda x: 1.0 / x,
                     nodes_per_unit=nodes_per_unit)
    if not math.isfinite(mass) or mass <= 0.0:
        raise DegenerateKernelError(f"multiplicative mass {mass!r} not positive")
    return kernel.scaled(1.0 / mass)


def _transform_grid(kernel: TestKernel, max_abs_freq: float,
                    nodes_per_unit: int):
    # one oscillation period per panel keeps 16-node Gauss-Legendre far below
    # 1e-12 relative error at the largest frequency
    panels = max(
        math.ceil(kernel.width * nodes_per_unit / _GL_ORDER),
        math.ceil(kernel.width * max_abs_freq),
        1,
    )
    nodes, wts = _gl_grid(kernel.support_lo, kernel.support_hi, panels)
    return nodes, kernel(nodes) * wts


def fourier(kernel: TestKernel, x, nodes_per_unit: int = 4096):
    """Fourier transform int kernel(y) e(-x y) dy at frequency/ies x."""
    xs = np.asarray(x, dtype=np.float64)
    fmax = float(np.max(np.abs(xs))) if xs.size else 0.0
    out = FourierTable(kernel, fmax, nodes_per_unit).values(xs)
    if np.ndim(x) == 0:
        return complex(out)
    return out


# complex entries per block of phases, about 64 MB
_BLOCK = 4_000_000


class FourierTable:
    """Transform values of one kernel from a fixed quadrature grid.

    The grid is sized at construction for frequencies up to ``max_abs_freq``;
    asking beyond that band raises instead of silently losing accuracy.
    On an arithmetic lattice x0 + i*step the phases factor as
    e(-t*step*y) * e(-(x0 + b*T*step)*y) with i = b*T + t, so one fine and
    one coarse table of about sqrt(n) rows each and a matrix product replace
    the n-by-nodes exponentials; any other input is a direct matrix product.
    """

    def __init__(self, kernel: TestKernel, max_abs_freq: float = 64.0,
                 nodes_per_unit: int = 4096):
        self.kernel = kernel
        self.max_abs_freq = float(max_abs_freq)
        self._nodes, self._wvals = _transform_grid(kernel, self.max_abs_freq,
                                                   nodes_per_unit)

    def _check(self, fmax: float):
        if fmax > self.max_abs_freq * (1 + 1e-12):
            raise ValueError(
                f"frequency {fmax} outside the table band "
                f"[-{self.max_abs_freq}, {self.max_abs_freq}]")

    def _phases(self, xs: np.ndarray) -> np.ndarray:
        return np.exp(-2j * np.pi * np.outer(xs, self._nodes))

    def _dense(self, xs: np.ndarray) -> np.ndarray:
        out = np.empty(xs.size, dtype=np.complex128)
        rows = max(1, _BLOCK // self._nodes.size)
        for i in range(0, xs.size, rows):
            out[i:i + rows] = self._phases(xs[i:i + rows]) @ self._wvals
        return out

    def _lattice(self, x0: float, step: float, n: int) -> np.ndarray:
        rows = max(1, _BLOCK // self._nodes.size)
        T = min(math.isqrt(n - 1) + 1, rows)
        fine = self._phases(step * np.arange(T))
        starts = x0 + step * (T * np.arange(-(-n // T)))
        out = np.empty(starts.size * T, dtype=np.complex128)
        for b in range(0, starts.size, rows):
            coarse = self._phases(starts[b:b + rows]) * self._wvals
            out[b * T:(b + rows) * T] = (fine @ coarse.T).T.ravel()
        return out[:n]

    def values(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        flat = xs.ravel()
        n = flat.size
        if n == 0:
            return np.empty(xs.shape, dtype=np.complex128)
        scale = float(np.max(np.abs(flat)))
        self._check(scale)
        if n >= 2:
            x0 = float(flat[0])
            step = (float(flat[-1]) - x0) / (n - 1)
            drift = np.max(np.abs(flat - (x0 + step * np.arange(n))))
            if drift <= 8.0 * np.finfo(np.float64).eps * scale:
                return self._lattice(x0, step, n).reshape(xs.shape)
        return self._dense(flat).reshape(xs.shape)


def periodize(kernel: TestKernel, N: int, x):
    """F_N(x) = sum_k kernel(N (x + k)); an exact finite sum, 1-periodic."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    klo = np.ceil(kernel.support_lo / N - xs)
    khi = np.floor(kernel.support_hi / N - xs)
    out = np.zeros(xs.shape, dtype=np.float64)
    span = int(np.max(khi - klo, initial=-1.0))
    for off in range(span + 1):
        k = klo + off
        live = k <= khi
        if live.any():
            out[live] += kernel(N * (xs[live] + k[live]))
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def default_f() -> TestKernel:
    """Even window on (-1, 1) used to weight pair separations."""
    return make_bump(-1.0, 1.0)


def default_h() -> TestKernel:
    """Window on (1, 2) selecting the bulk dyadic range of indices."""
    return make_bump(1.0, 2.0)


def default_rho() -> TestKernel:
    """Density on (1, 2) with unit multiplicative mass int rho(x)/x dx."""
    return normalize_rho(make_bump(1.0, 2.0))
