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

from . import _pool
from ._precision import e_frac


class KernelError(Exception):
    """A kernel violated a construction contract."""


class DegenerateKernelError(KernelError):
    """Normalisation was requested for a kernel without positive mass."""


# nodes per unit of support in the trapezoid rule of every integral and
# transform (which may take more for its band or a narrow support)
_NODES_PER_UNIT = 4096


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
            # c * 0.0 is the exact 0.0 outside only for finite c > 0: a
            # negative c gives -0.0, and inf or nan give nan
            whole_array=bool(self.whole_array and 0.0 < c < math.inf),
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


def integrate(kernel: TestKernel, weight: Callable | None = None) -> float:
    """Integral of kernel(x) * weight(x) over the support: the transform of
    their product at frequency 0."""
    if weight is not None:
        kernel = TestKernel(kernel.support_lo, kernel.support_hi,
                            lambda x, _k=kernel: _k(x) * weight(x))
    return fourier(kernel, 0.0).real


def normalize_rho(kernel: TestKernel) -> TestKernel:
    """Rescale a density on (0, inf) so that int k(x)/x dx = 1."""
    if kernel.support_lo <= 0.0:
        raise DegenerateKernelError("1/x weight needs support inside (0, inf)")
    mass = integrate(kernel, weight=lambda x: 1.0 / x)
    if not math.isfinite(mass) or mass <= 0.0:
        raise DegenerateKernelError(f"multiplicative mass {mass!r} not positive")
    return kernel.scaled(1.0 / mass)


def fourier(kernel: TestKernel, x):
    """Fourier transform int kernel(y) e(-x y) dy at frequency/ies x."""
    xs = np.asarray(x, dtype=np.float64)
    out = FourierTable(kernel, np.max(np.abs(xs), initial=0.0)).values(xs)
    return complex(out) if np.ndim(x) == 0 else out


# complex entries per block of the direct sum's phases (512 kB); each
# output is its own row's sum, so none depends on it
_BLOCK = 2 ** 15


class FourierTable:
    """Transform values of one kernel by the trapezoid rule: nodes k / P
    strictly inside the support, weights f(k/P) / P, spectrally accurate as
    the kernel vanishes with every derivative at its ends.  P is
    _NODES_PER_UNIT, doubled while below 16 times ``max_abs_freq`` or while
    the support holds under 512 nodes (a bump on 40 nodes errs by 3e-6);
    byte guards refuse nodes or exponentials past the memory budget before
    any is built, and asking beyond the band raises.  On a lattice j / N,
    with L = N P, Bluestein's jk = (j^2 + k^2 - (j - k)^2) / 2 makes the sum
    one FFT convolution of chirps e(-m^2 / (2L)), m^2 mod 2L exact in int64;
    any other input is summed directly.
    """

    def __init__(self, kernel: TestKernel, max_abs_freq: float):
        self.max_abs_freq = float(max_abs_freq)
        if not math.isfinite(self.max_abs_freq):
            raise ValueError(f"frequency band {max_abs_freq} is not finite")
        P = _NODES_PER_UNIT
        while P < 16 * self.max_abs_freq or P * kernel.width < 512:
            P *= 2
        k0 = math.floor(kernel.support_lo * P) + 1
        K = math.ceil(kernel.support_hi * P) - k0
        # bounds the peak under tracemalloc, 24 to 25 bytes a node: its
        # index, the node, the profile's temporaries and the weight
        _pool.guard(32 * K, f"bytes for a {K}-node Fourier table")
        self._P, self._k0 = P, k0
        self._nodes = np.arange(k0, k0 + K) / P
        self._wvals = kernel(self._nodes) / P

    def _direct(self, xs: np.ndarray) -> np.ndarray:
        K = self._nodes.size
        rows = max(1, _BLOCK // K)
        # bounds the peak under tracemalloc: 32 bytes a node for the table and
        # the phases, 24 a cell for a block made in place (16.5 to 20.1)
        _pool.guard(32 * K + 24 * min(rows, xs.size) * K,
                    f"bytes for a {K}-node direct sum")
        out = np.empty(xs.size, dtype=np.complex128)
        phase = -2j * np.pi * self._nodes
        for i in range(0, xs.size, rows):
            blk = np.multiply.outer(xs[i:i + rows], phase)
            np.exp(blk, out=blk)
            blk *= self._wvals
            out[i:i + rows] = blk.sum(axis=1)
            del blk  # before the next block is built
        return out

    def _bluestein(self, j0: int, N: int, n: int) -> np.ndarray:
        """Values at j / N for j0 <= j < j0 + n by one FFT convolution."""
        K, k0, L2 = self._nodes.size, self._k0, 2 * N * self._P
        # a bound on every chirp index j, k and j - k
        top = max(abs(j0), abs(j0 + n - 1)) + max(abs(k0), abs(k0 + K - 1))
        if max(top * top, L2) >= 2 ** 63:
            raise ValueError(f"lattice j/{N} too wide for int64 chirps")
        M = 1 << (n + K - 2).bit_length()  # zero-padded length >= n + K - 1
        # bounds the peak under tracemalloc: two M-point spectra, and 72
        # bytes a chirp point (its m, its turns, e_frac's temporaries)
        _pool.guard(32 * M + 72 * (n + K - 1),
                    f"bytes for a {M}-point Fourier convolution")

        def chirp(m: np.ndarray) -> np.ndarray:  # e((m^2 mod 2L) / (2L))
            return e_frac(m * m % L2 / L2)

        # over the nodes k, the differences j - k, and the outputs j
        conv = np.fft.fft(chirp(np.arange(k0, k0 + K)).conj() * self._wvals, M)
        conv *= np.fft.fft(chirp(np.arange(j0 - k0 - K + 1, j0 + n - k0)), M)
        np.fft.ifft(conv, out=conv)
        return chirp(np.arange(j0, j0 + n)).conj() * conv[K - 1:K - 1 + n]

    def values(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        flat = xs.ravel()
        fmax = float(np.max(np.abs(flat), initial=0.0))
        if not fmax <= self.max_abs_freq * (1 + 1e-12):  # NaN fails too
            raise ValueError(
                f"frequency {fmax} outside the table band "
                f"[-{self.max_abs_freq}, {self.max_abs_freq}]")
        n = flat.size
        if n >= 2 and flat[-1] > flat[0]:
            # the form np.arange(j0, j0 + n) / N, bitwise, for an integer N;
            # the bound keeps round() and the int64 arange from overflowing
            ratio = (n - 1) / (flat[-1] - flat[0])
            if ratio >= 1.0 and max(-flat[0], flat[-1]) * ratio < 2.0 ** 62:
                N = round(ratio)
                j0 = round(flat[0] * N)
                if np.array_equal(np.arange(j0, j0 + n) / N, flat):
                    return self._bluestein(j0, N, n).reshape(xs.shape)
        return self._direct(flat).reshape(xs.shape)


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
