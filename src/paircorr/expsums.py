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

from ._precision import LD, as_ld, csum, e_frac, frac, iceil, ifloor
from .kernels import FourierTable, TestKernel, periodize


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


def _pow_ld(values, expo: float):
    """values**expo in long double; exact-path sqrt for expo = 1/2."""
    b = as_ld(values)
    if expo == 0.5:
        return np.sqrt(b)
    return np.power(b, LD(expo))


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
    w = _pow_ld(ys, spec.theta)
    ph = frac(as_ld(spec.alpha) * j * w)
    return csum(h(ys / spec.N) * e_frac(ph))


def _direct_abs2(spec: SequenceSpec, h: TestKernel, js: np.ndarray) -> np.ndarray:
    """|E_j|^2 for many j at once; chunked so the phase matrix stays small."""
    ys = _index_range(spec, h)
    out = np.zeros(len(js), dtype=np.float64)
    if ys.size == 0:
        return out
    w = _pow_ld(ys, spec.theta)
    hw = h(ys / spec.N)
    chunk = max(1, int(2 ** 21) // ys.size)
    a_ld = as_ld(spec.alpha)
    for i in range(0, len(js), chunk):
        aj = a_ld * as_ld(js[i:i + chunk])
        E = e_frac(frac(aj[:, None] * w[None, :])) @ hw
        out[i:i + chunk] = E.real ** 2 + E.imag ** 2
    return out


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


def _short_terms(spec, h: TestKernel, js: np.ndarray):
    """The stationary-phase terms of every E~_j, j in js, in one table.

    spec is a SequenceSpec or a DilateBlock.  Term k belongs to pair
    rep[k], the (dilate, j) pair (alphas[rep // J], js[rep % J]) with
    J = len(js), and to one m of that pair's window; over its terms,
    E~_j = c1 (alpha*j)**(Theta/2) * sum_k amp_k e(ph_k), with
    amp = m**(-(Theta+1)/2) h(x_m/N) and ph the reduced phase.
    Shared tables: c2 * A with A = (alpha*j)**Theta per pair, and
    B_m = m**(1-Theta) (long double) and m**(-(Theta+1)/2) (float64) per m
    in the union of the windows; the phase of a term is (c2 * A) * B_m and
    its m-weight is a gather, so neither takes a per-term power.  Every
    term is computed elementwise, so a pair's terms have the same bits in
    a block as alone.
    Returns (rep, amp, ph, (lo, hi, lens)), windows per pair.
    """
    TH = spec.Theta
    th, N = spec.theta, spec.N
    windows = _windows(spec, js)
    lo, _, lens = windows
    if not lens.any():
        return np.zeros(0, np.int64), np.zeros(0), np.zeros(0), windows
    rep, m = _flatten_windows(lo, lens)
    m_base = int(m.min())
    ms = np.arange(m_base, int(m.max()) + 1)
    btab = _pow_ld(ms, 1.0 - TH)
    ptab = ms.astype(np.float64) ** (-(TH + 1.0) / 2.0)
    taj = np.multiply.outer(th * spec.alphas, js.astype(np.float64)).ravel()
    xm = (taj[rep] / m.astype(np.float64)) ** TH
    amp = ptab[m - m_base] * h(xm / N)
    del xm  # before the long-double temporaries of the phase
    th_ld = LD(th)
    c2_ld = np.power(th_ld, LD(TH - 1.0)) - np.power(th_ld, LD(TH))
    aj_ld = np.multiply.outer(as_ld(spec.alphas), as_ld(js)).ravel()
    ca_ld = c2_ld * np.power(aj_ld, LD(TH))
    ph = frac(ca_ld[rep] * btab[m - m_base])
    return rep, amp, ph, windows


def _short_components(spec, h: TestKernel, js: np.ndarray):
    """Per-pair short-form data: |E~_j|^2 and its diagonal (n = m) part,
    one entry per (dilate, j) pair of spec, dilate-major."""
    rep, amp, ph, windows = _short_terms(spec, h, js)
    aj = np.multiply.outer(spec.alphas, js.astype(np.float64)).ravel()
    pref = abs(bprocess_constants(spec.theta).c1) ** 2 * aj ** spec.Theta
    P = aj.size
    vals = amp * e_frac(ph)
    sr = np.bincount(rep, weights=vals.real, minlength=P)
    si = np.bincount(rep, weights=vals.imag, minlength=P)
    dg = np.bincount(rep, weights=amp * amp, minlength=P)
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
    real part of fhat enters.  j_max = 0 is the empty sum.
    """
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    if j_max == 0:
        return 0.0
    js = np.arange(1, j_max + 1, dtype=np.int64)
    table = FourierTable(f, max_abs_freq=j_max / spec.N)
    fv = table.values(js / spec.N).real
    e2 = _direct_abs2(spec, h, js)
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
    on the circle contribute; those are found by a sort-and-sweep pass and
    the cost scales with the number of contributing pairs, not with N^2.
    method "brute" forces the quadratic reference evaluation.
    """
    if method not in ("auto", "brute"):
        raise ValueError("method must be 'auto' or 'brute'")
    ys = _index_range(spec, h)
    if ys.size < 2:
        return 0.0
    N = spec.N
    w = _pow_ld(ys, spec.theta)
    v = frac(as_ld(spec.alpha) * w)
    hw = h(ys / N)
    r = max(abs(f.support_lo), abs(f.support_hi)) / N
    if method == "brute" or r >= 0.49 or ys.size < 16:
        d = v[:, None] - v[None, :]
        F = periodize(f, N, d.ravel()).reshape(d.shape)
        total = hw @ F @ hw - periodize(f, N, 0.0) * np.dot(hw, hw)
        return float(total / N)
    order = np.argsort(v, kind="stable")
    vs = v[order]
    hs = hw[order]
    ext_v = np.concatenate([vs, vs + 1.0])
    ext_h = np.concatenate([hs, hs])
    hi_idx = np.searchsorted(ext_v, vs + r, side="right")
    counts = np.maximum(hi_idx - np.arange(ys.size) - 1, 0)
    total_pairs = int(counts.sum())
    if total_pairs == 0:
        return 0.0
    left = np.repeat(np.arange(ys.size), counts)
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    right = (np.arange(total_pairs) - np.repeat(starts, counts)
             + np.repeat(np.arange(ys.size) + 1, counts))
    d = ext_v[right] - vs[left]
    # each unordered pair appears once; both orientations enter through
    # f(N d) + f(-N d), exact because N(1 - d) clears the support of f
    vals = hs[left] * ext_h[right] * (f(N * d) + f(-N * d))
    return float(vals.sum() / N)
