"""Exponential sums along alpha * n**theta and the smoothed pair counts
they reconstruct.

Conventions used throughout: e(x) = exp(2 pi i x), Theta = 1/(1 - theta),
and the index weight h selects n through h(n/N), so sums over n are finite.
The weighted sum

    E_j = sum_y h(y/N) e(alpha j y**theta)

admits a stationary-phase rewrite ("short form") whose length per j is a
factor ~N**(2 - 2*theta) shorter; both forms live here, together with the
exact spectral decomposition of the smoothed pair correlation into S-sums.
Phase arguments grow like alpha * j * N**theta, far past float64 resolution
of the fractional part, so every reduction mod 1 runs in long double via
the _precision helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import rfft

from ._pool import _CHUNK, _thread_workers, pmap
from ._precision import LD, _pow_ld, as_ld, csum, e_frac, frac, iceil, ifloor
from .kernels import FourierTable, TestKernel, periodize
from .stats import _powers, fractional_parts


@dataclass(frozen=True)
class SequenceSpec:
    """One realisation of the sequence: exponent, dilate, and scale."""

    theta: float
    alpha: float
    N: int

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie strictly between 0 and 1")
        if not 1.0 <= self.alpha <= 2.0:
            raise ValueError("alpha must lie in [1, 2]")
        if self.N < 2:
            raise ValueError("N must be at least 2")

    @property
    def Theta(self) -> float:
        return 1.0 / (1.0 - self.theta)

    @property
    def alphas(self) -> np.ndarray:
        """The dilate as a block of one (see DilateBlock)."""
        return np.array([self.alpha])


@dataclass(frozen=True, eq=False)
class DilateBlock:
    """Many dilates sharing theta and N, for the short-form routines.

    Those routines take a block wherever they take a SequenceSpec (a block
    of one) and return one row per (dilate, j) pair, dilate-major.
    """

    theta: float
    alphas: np.ndarray
    N: int

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=np.float64)
        if alphas.ndim != 1:
            raise ValueError("alphas must be a 1-d array")
        SequenceSpec(self.theta, 1.0, self.N)  # checks theta and N
        if not ((alphas >= 1.0) & (alphas <= 2.0)).all():
            raise ValueError("alpha must lie in [1, 2]")
        object.__setattr__(self, "alphas", alphas)

    @property
    def Theta(self) -> float:
        return 1.0 / (1.0 - self.theta)


@dataclass(frozen=True)
class BProcessConstants:
    """Stationary-phase constants: amplitude factor c1, phase factor c2."""

    c1: complex
    c2: float


def bprocess_constants(theta: float) -> BProcessConstants:
    Theta = 1.0 / (1.0 - theta)
    mod = theta ** (Theta / 2.0) / math.sqrt(1.0 - theta)
    c1 = mod * complex(math.cos(math.pi / 4.0), -math.sin(math.pi / 4.0))
    c2 = theta ** (Theta - 1.0) - theta ** Theta
    return BProcessConstants(c1=c1, c2=c2)


def _index_range(spec: SequenceSpec, h: TestKernel) -> np.ndarray:
    """Integers y >= 1 with N*support_lo < y < N*support_hi."""
    lo = int(math.floor(spec.N * h.support_lo)) + 1
    hi = int(math.ceil(spec.N * h.support_hi)) - 1
    return np.arange(max(lo, 1), hi + 1, dtype=np.int64)


def exp_sum_direct(spec: SequenceSpec, h: TestKernel, j: int) -> complex:
    """E_j by direct summation over the support of h(./N)."""
    ys = _index_range(spec, h)
    if ys.size == 0:
        return 0j
    w = _powers(spec.theta, ys[0], ys[-1], False)
    ph = frac(as_ld(spec.alpha) * j * w)
    return csum(h(ys / spec.N) * e_frac(ph))


def _direct_abs2(spec: SequenceSpec, h: TestKernel, js: np.ndarray) -> np.ndarray:
    """|E_j|^2 for many j at once, by the dense J x N product: the oracle
    the tests hold _nufft_abs2 to.  s_sum does not call it.

    Rows of about _CHUNK phases run as jobs on the shared pool, each
    writing its own slice of the result.  A row of E is summed by numpy's
    pairwise sum, one row at a time, so its bits depend on neither the
    chunk nor the thread.  No BLAS: a threaded zgemv inside the pool's
    jobs wakes OpenBLAS's own workers, which take the pool's cores.
    """
    ys = _index_range(spec, h)
    out = np.zeros(len(js), dtype=np.float64)
    if ys.size == 0:
        return out
    w = _powers(spec.theta, ys[0], ys[-1], False)
    hw = h(ys / spec.N)
    chunk = max(1, _CHUNK // ys.size)
    a_ld = as_ld(spec.alpha)

    def job(i):
        # frac and e_frac are looked up at call time, as a wrapper may
        # replace them
        aj = a_ld * as_ld(js[i:i + chunk])
        E = e_frac(frac(aj[:, None] * w[None, :]))
        E *= hw
        E = E.sum(axis=1)
        out[i:i + chunk] = E.real ** 2 + E.imag ** 2

    pmap(job, range(0, len(js), chunk), _thread_workers())
    return out


# Gaussian gridding: each node spreads over 2 * _SPREAD cells of a grid at
# least _OVERSAMPLE times finer than the modes need; _BETA is Greengard and
# Lee's Gaussian width for that pair, in grid cells.
_SPREAD = 16
_OVERSAMPLE = 2
_BETA = math.pi * (_OVERSAMPLE - 0.5) / (_OVERSAMPLE * _SPREAD)


def _nufft_abs2(spec: SequenceSpec, h: TestKernel, j_max: int) -> np.ndarray:
    """|E_j|^2 for j = 1..j_max by a type-1 nonuniform FFT.

    E_j = sum_y w_y e(j u_y) with w_y = h(y/N) and u_y = alpha y**theta
    mod 1 is Gaussian gridding (Dutt & Rokhlin 1993; Greengard & Lee
    2004).  u_y is reduced once in long double and split into float64
    hi + lo.  On a power-of-two grid of M cells hi * M is exact, so a
    node's cell offsets carry no phase error (an hi rounded up to 1.0
    wraps onto the cells of 0).  The lo part enters to first order,
    e(j u) = e(j hi) (1 + 2 pi i j lo), through a second grid spread with
    strengths w * lo; the dropped (j lo)**2 term is below 1e-19 relative
    for j <= 2**20.  Each |E_j|^2 lies within 1e-13 H1**2 of
    _direct_abs2's (H1 = sum of the weights).

    M is the least power of two >= _OVERSAMPLE * (2 j_max + 2), and at
    least 64: below 8 (j_max + 1) past that floor.  Each grid holds M
    float64 and its transform M/2 + 1 complex128, so each takes about
    8M < 64 (j_max + 1) bytes.
    """
    ys = _index_range(spec, h)
    if ys.size == 0:
        return np.zeros(j_max)
    w = h(ys / spec.N)
    x = as_ld(spec.alpha) * _powers(spec.theta, ys[0], ys[-1], False)
    # 0 < x < 2**63, so truncation is floor and the remainder is exact
    r = x - x.astype(np.int64)
    hi = r.astype(np.float64)
    lo = (r - hi).astype(np.float64)
    M = max(64, 1 << (_OVERSAMPLE * (2 * j_max + 2) - 1).bit_length())
    p = hi * M
    cell = np.floor(p)
    d = np.arange(1 - _SPREAD, _SPREAD + 1)
    kern = np.exp(-_BETA * (d - (p - cell)[:, None]) ** 2)
    cells = ((cell.astype(np.int64)[:, None] + d) & (M - 1)).ravel()
    js = np.arange(1, j_max + 1)
    # the Gaussian's Fourier transform at j / M, divided out
    deconv = math.sqrt(_BETA / math.pi) * np.exp(
        (math.pi ** 2 / _BETA) * (js / M) ** 2)
    # rfft gives conj(E_j) on a real grid, which leaves |E_j| as it is
    Fw, Flo = (rfft(np.bincount(cells, weights=(s[:, None] * kern).ravel(),
                                minlength=M))[1:j_max + 1] * deconv
               for s in (w, w * lo))
    E = Fw - (2j * math.pi) * js * Flo
    return E.real ** 2 + E.imag ** 2


def _single(j: int) -> np.ndarray:
    if j < 1:
        raise ValueError("j must be a positive integer")
    return np.array([j], dtype=np.int64)


def _windows(spec, js: np.ndarray):
    """Inclusive m-windows (lo, hi) and their lengths, one per (dilate, j)
    pair of spec (a SequenceSpec or a DilateBlock), dilate-major.

    The stationary points of the window fall in [N, 2N]; its endpoints
    carry zero weight (h vanishes there), so fuzzy rounding settles ties.
    """
    th, N = spec.theta, spec.N
    taj = np.multiply.outer(th * spec.alphas, js.astype(np.float64)).ravel()
    lo = np.maximum(iceil(taj * (2.0 * N) ** (th - 1.0)), 1)
    hi = ifloor(taj * float(N) ** (th - 1.0))
    lens = np.maximum(hi - lo + 1, 0)
    return lo, hi, lens


def _flatten_windows(lo, lens):
    """Concatenate the integer windows [lo_j, lo_j + len_j) end to end."""
    total = int(lens.sum())
    rep = np.repeat(np.arange(len(lo)), lens)
    starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
    m = (np.arange(total) - np.repeat(starts, lens)) + np.repeat(lo, lens)
    return rep, m


def _short_terms(spec, h: TestKernel, js: np.ndarray, windows=None,
                 start: int = 0, stop: int | None = None):
    """The stationary-phase terms of the (dilate, j) pairs start..stop-1 of
    spec over js (all of them by default), in one table.

    spec is a SequenceSpec or a DilateBlock; pair p is the (dilate, j) pair
    (alphas[p // J], js[p % J]) with J = len(js), and windows, when given,
    are _windows(spec, js).  Term k belongs to pair start + rep[k] and to
    one m of that pair's window; over its terms,
    E~_j = c1 (alpha*j)**(Theta/2) * sum_k amp_k e(ph_k), with
    amp = m**(-(Theta+1)/2) h(x_m/N) and ph the reduced phase.
    Shared tables: c2 * A with A = (alpha*j)**Theta per pair, and
    B_m = m**(1-Theta) (long double) and m**(-(Theta+1)/2) (float64) per m
    in the union of the range's windows; the phase of a term is (c2 * A) * B_m and
    its m-weight is a gather, so neither takes a per-term power.  Every
    term is computed elementwise, so a pair's terms have the same bits in
    any range of pairs as alone.
    Returns (rep, amp, ph, windows), the windows of every pair.
    """
    TH = spec.Theta
    th, N = spec.theta, spec.N
    if windows is None:
        windows = _windows(spec, js)
    lo, _, lens = windows
    lo, lens = lo[start:stop], lens[start:stop]
    if not lens.any():
        return np.zeros(0, np.int64), np.zeros(0), np.zeros(0), windows
    rep, m = _flatten_windows(lo, lens)
    m_base = int(m.min())
    dm = m - m_base
    ms = np.arange(m_base, int(m.max()) + 1)
    btab = _pow_ld(ms, 1.0 - TH)
    ptab = ms.astype(np.float64) ** (-(TH + 1.0) / 2.0)
    d, k = np.divmod(np.arange(start, start + lens.size), len(js))
    alphas, jp = spec.alphas[d], js[k]
    taj = (th * alphas) * jp.astype(np.float64)
    xm = (taj[rep] / m.astype(np.float64)) ** TH
    amp = ptab[dm] * h(xm / N)
    del xm  # before the long-double temporaries of the phase
    th_ld = LD(th)
    c2_ld = np.power(th_ld, LD(TH - 1.0)) - np.power(th_ld, LD(TH))
    ca_ld = c2_ld * np.power(as_ld(alphas) * as_ld(jp), LD(TH))
    ph = frac(ca_ld[rep] * btab[dm])
    return rep, amp, ph, windows


def _short_components(spec, h: TestKernel, js: np.ndarray):
    """Per-pair short-form data: |E~_j|^2 and its diagonal (n = m) part,
    one entry per (dilate, j) pair of spec, dilate-major.

    The pairs run in chunks of about _CHUNK terms, cut at window
    boundaries, so a chunk's term tables stay in cache.  A pair's terms
    lie in one chunk and bincount adds them in the same order as over one
    table, so the chunking moves no bit.
    """
    windows = _windows(spec, js)
    lens = windows[2]
    P = lens.size
    ends = np.cumsum(lens)
    cuts = np.searchsorted(ends, np.arange(_CHUNK, int(lens.sum()), _CHUNK))
    bounds = np.unique(np.concatenate(([0], cuts + 1, [P]))).tolist()
    sr, si, dg = np.zeros(P), np.zeros(P), np.zeros(P)
    for a, b in zip(bounds[:-1], bounds[1:]):
        # e_frac is looked up at call time, as a wrapper may replace it
        rep, amp, ph, _ = _short_terms(spec, h, js, windows, a, b)
        e = e_frac(ph)
        sr[a:b] = np.bincount(rep, weights=amp * e.real, minlength=b - a)
        si[a:b] = np.bincount(rep, weights=amp * e.imag, minlength=b - a)
        dg[a:b] = np.bincount(rep, weights=amp * amp, minlength=b - a)
    aj = np.multiply.outer(spec.alphas, js.astype(np.float64)).ravel()
    pref = abs(bprocess_constants(spec.theta).c1) ** 2 * aj ** spec.Theta
    return pref * (sr ** 2 + si ** 2), pref * dg, windows


def exp_sum_bprocess(spec: SequenceSpec, h: TestKernel, j: int) -> complex:
    """Short (stationary-phase) form of E_j; 0 when the m-window is empty."""
    _, amp, ph, _ = _short_terms(spec, h, _single(j))
    c1 = bprocess_constants(spec.theta).c1
    return c1 * (spec.alpha * j) ** (spec.Theta / 2.0) * csum(amp * e_frac(ph))


@dataclass(frozen=True)
class ExpSumPair:
    """Direct and short evaluations of one E_j, with the error yardstick."""

    j: int
    direct: complex
    short: complex
    error_ref: float
    m_lo: int
    m_hi: int

    @property
    def ratio(self) -> float:
        return abs(self.direct - self.short) / self.error_ref


def exp_sum_pair(spec: SequenceSpec, h: TestKernel, j: int) -> ExpSumPair:
    lo, hi, _ = _windows(spec, _single(j))
    ref = spec.N ** (1.0 - spec.theta / 2.0) / math.sqrt(j)
    return ExpSumPair(
        j=j,
        direct=exp_sum_direct(spec, h, j),
        short=exp_sum_bprocess(spec, h, j),
        error_ref=ref,
        m_lo=int(lo[0]),
        m_hi=int(hi[0]),
    )


def s_sum(spec: SequenceSpec, f: TestKernel, h: TestKernel,
          j_max: int) -> float:
    """S = (2/N^2) sum_{1 <= j <= j_max} fhat(j/N) |E_j|^2.

    For real f the +-j terms pair up into twice the real part, so only the
    real part of fhat enters.  j_max = 0 is the empty sum.  Every |E_j|^2
    comes from one nonuniform FFT (_nufft_abs2), in place of j_max * N
    long-double phases: two power-of-two grids of fewer than 8 (j_max + 1)
    cells (64 at least) and their transforms, about 64 (j_max + 1) bytes
    each.
    """
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    if j_max == 0:
        return 0.0
    js = np.arange(1, j_max + 1, dtype=np.int64)
    table = FourierTable(f, max_abs_freq=j_max / spec.N)
    fv = table.values(js / spec.N).real
    e2 = _nufft_abs2(spec, h, j_max)
    return float(2.0 / spec.N ** 2 * np.dot(fv, e2))


def _band(spec: SequenceSpec, eps: float) -> np.ndarray:
    """Integers j in [N^(1-eps), N^(1+eps)]."""
    lo = iceil(spec.N ** (1.0 - eps))
    hi = ifloor(spec.N ** (1.0 + eps))
    return np.arange(max(lo, 1), hi + 1, dtype=np.int64)


@dataclass(frozen=True)
class TildeDecomposition:
    """Short-form S over a j-band, split into diagonal and off-diagonal."""

    total: float
    diagonal: float
    off_diagonal: float
    j_lo: int
    j_hi: int


def _tilde_from_values(spec, h: TestKernel, js: np.ndarray,
                       f_values: np.ndarray) -> list[TildeDecomposition]:
    """S~ assembly once the transform values over the band are in hand,
    one decomposition per dilate of spec (a SequenceSpec or a DilateBlock).

    The sums over j are exactly rounded (math.fsum): a threaded BLAS dot
    here would spin idle workers on every call.
    """
    abs2, diag, _ = _short_components(spec, h, js)
    scale = 2.0 / spec.N ** 2
    parts = []
    for a2, dg in zip(abs2.reshape(-1, len(js)), diag.reshape(-1, len(js))):
        total = scale * math.fsum((f_values * a2).tolist())
        diagonal = scale * math.fsum((f_values * dg).tolist())
        parts.append(TildeDecomposition(total, diagonal, total - diagonal,
                                        int(js[0]), int(js[-1])))
    return parts


def s_tilde_parts(spec: SequenceSpec, f: TestKernel, h: TestKernel,
                  eps: float = 0.05) -> TildeDecomposition:
    """Assemble S~ over the band j in [N^(1-eps), N^(1+eps)] spectrally."""
    js = _band(spec, eps)
    if js.size == 0:
        return TildeDecomposition(0.0, 0.0, 0.0, 0, -1)
    table = FourierTable(f, max_abs_freq=js[-1] / spec.N)
    fv = table.values(js / spec.N).real
    return _tilde_from_values(spec, h, js, fv)[0]


def pair_corr_smooth(spec: SequenceSpec, f: TestKernel, h: TestKernel,
                     method: str = "auto") -> float:
    """R = (1/N) sum_{x != y} h(x/N) h(y/N) F_N(alpha(x^theta - y^theta)).

    F_N is the 1-periodisation of f(N .), so only pairs within max-support/N
    on the circle contribute.  Over the sorted points each point x meets
    the points after it, wrapped ones as y + 1, offset by offset: on sorted
    points one that misses at an offset misses at every later one, so each
    offset visits only the points still hitting and the cost scales with
    the number of contributing pairs, not with N^2.
    method "brute" forces the quadratic reference evaluation.
    """
    if method not in ("auto", "brute"):
        raise ValueError("method must be 'auto' or 'brute'")
    ys = _index_range(spec, h)
    if ys.size < 2:
        return 0.0
    N = spec.N
    v = fractional_parts(spec.theta, spec.alpha, ys[0], ys[-1]).points
    hw = h(ys / N)
    r = max(abs(f.support_lo), abs(f.support_hi)) / N
    if method == "brute" or r >= 0.49:
        d = v[:, None] - v[None, :]
        F = periodize(f, N, d.ravel()).reshape(d.shape)
        # x != y: zeroed before the sum, as subtracting the diagonal after
        # it cancels every digit of a small R
        np.fill_diagonal(F, 0.0)
        return float(hw @ F @ hw / N)
    order = np.argsort(v, kind="stable")
    vs = v[order]
    hs = hw[order]
    M = vs.size
    i = np.arange(M)
    q = vs + r
    total = 0.0
    for k in range(1, M):
        j = i + k
        wrap = j >= M
        j[wrap] -= M
        y = vs[j] + wrap
        hit = y <= q[i]
        i, j, y = i[hit], j[hit], y[hit]
        if i.size == 0:
            break
        d = y - vs[i]
        # each unordered pair appears once; both orientations enter through
        # f(N d) + f(-N d), exact because N(1 - d) clears the support of f
        total += float((hs[i] * hs[j] * (f(N * d) + f(-N * d))).sum())
    return total / N
