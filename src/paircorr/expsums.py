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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _pool
from ._pool import _CHUNK
from ._precision import (LD, _pow_ld, as_ld, csum, e_frac, exact_row_sums,
                         frac, iceil, ifloor)
from .kernels import TestKernel, fourier, periodize
from .stats import _powers, fractional_parts


@dataclass(frozen=True)
class SequenceSpec:
    """One realisation of the sequence: exponent, dilate, and scale.

    alpha may be a 1-d array of dilates sharing theta and N, kept as a
    tuple (specs compare and hash by value), which only the short-form
    routines take: they return one row per (dilate, j) pair, dilate-major.
    """

    theta: float
    alpha: float | tuple[float, ...]
    N: int

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie strictly between 0 and 1")
        alphas = np.asarray(self.alpha, dtype=np.float64)
        if alphas.ndim > 1 or not ((alphas >= 1.0) & (alphas <= 2.0)).all():
            raise ValueError("alpha must be a float or a 1-d array in [1, 2]")
        if self.N < 2:
            raise ValueError("N must be at least 2")
        if alphas.ndim:
            object.__setattr__(self, "alpha", tuple(alphas.tolist()))

    @property
    def Theta(self) -> float:
        return 1.0 / (1.0 - self.theta)

    @cached_property
    def alphas(self) -> np.ndarray:
        """The dilates as a 1-d array: a float alpha as a block of one."""
        return np.atleast_1d(np.asarray(self.alpha, dtype=np.float64))


def _one_dilate(spec: SequenceSpec) -> None:
    """Refuse a block of dilates, which only the short-form routines take."""
    if np.ndim(spec.alpha):
        raise ValueError("alpha must be a single dilate here, not a block")


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


def _index_bounds(spec: SequenceSpec, h: TestKernel) -> tuple[int, int]:
    """The least and largest integer y >= 1 with N*support_lo < y <
    N*support_hi; the largest is below the least when there is none."""
    lo = int(math.floor(spec.N * h.support_lo)) + 1
    hi = int(math.ceil(spec.N * h.support_hi)) - 1
    return max(lo, 1), hi


def _index_range(spec: SequenceSpec, h: TestKernel) -> np.ndarray:
    """Integers y >= 1 with N*support_lo < y < N*support_hi."""
    lo, hi = _index_bounds(spec, h)
    return np.arange(lo, hi + 1, dtype=np.int64)


def _h_window(spec: SequenceSpec, h: TestKernel):
    """h(y/N) and the shared long-double y**theta over _index_range(spec, h);
    both empty when the support of h(./N) holds no integer."""
    ys = _index_range(spec, h)
    if ys.size == 0:
        return np.zeros(0), np.zeros(0, dtype=LD)
    return h(ys / spec.N), _powers(spec.theta, ys[0], ys[-1], False)


def exp_sum_direct(spec: SequenceSpec, h: TestKernel, j: int) -> complex:
    """E_j by direct summation over the support of h(./N); j >= 0."""
    _one_dilate(spec)
    if j < 0:
        raise ValueError("j must be a nonnegative integer")
    hw, w = _h_window(spec, h)
    return csum(hw * e_frac(frac(as_ld(spec.alpha) * j * w)))


def _direct_abs2(spec: SequenceSpec, h: TestKernel, js: np.ndarray) -> np.ndarray:
    """|E_j|^2 for many j at once, by the dense J x N product: the oracle
    the tests hold _nufft_abs2 to, in rows of about _CHUNK phases at a
    time.  Each row is summed by numpy's pairwise sum, so its bits do not
    depend on the rows beside it.
    """
    hw, w = _h_window(spec, h)
    out = np.zeros(len(js), dtype=np.float64)
    if w.size == 0:
        return out
    chunk = max(1, _CHUNK // w.size)
    a_ld = as_ld(spec.alpha)
    for i in range(0, len(js), chunk):
        aj = a_ld * as_ld(js[i:i + chunk])
        E = e_frac(frac(aj[:, None] * w[None, :]))
        E *= hw
        E = E.sum(axis=1)
        out[i:i + chunk] = E.real ** 2 + E.imag ** 2
    return out


# Gaussian gridding: each node spreads over 2 * _SPREAD cells of a grid at
# least _OVERSAMPLE times finer than the modes need; _BETA is Greengard and
# Lee's Gaussian width for that pair, in grid cells.
_SPREAD = 16
_OVERSAMPLE = 2
_BETA = math.pi * (_OVERSAMPLE - 0.5) / (_OVERSAMPLE * _SPREAD)
_NUFFT_CHUNK = _CHUNK // (2 * _SPREAD)  # nodes whose cells fill _CHUNK

# peak bytes of _nufft_abs2 under tracemalloc: a grid cell's float64 and
# its share of the transform (16), a j's deconvolution and transform rows
# (40), a node's weight, power and phase parts (48), and a node of the
# chunk being spread (790 in a whole chunk)
_NUFFT_BYTES_PER_CELL = 16
_NUFFT_BYTES_PER_J = 40
_NUFFT_BYTES_PER_NODE = 64
_NUFFT_BYTES_PER_SPREAD = 800


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
    8M < 64 (j_max + 1) bytes, one grid after the other.  The byte guard
    counts the grids, the rows in j, the nodes and one chunk first.
    """
    y_lo, y_hi = _index_bounds(spec, h)
    nodes = y_hi - y_lo + 1
    if nodes <= 0:
        return np.zeros(j_max)
    M = max(64, 1 << (_OVERSAMPLE * (2 * j_max + 2) - 1).bit_length())
    _pool.guard(M * _NUFFT_BYTES_PER_CELL + j_max * _NUFFT_BYTES_PER_J
                + nodes * _NUFFT_BYTES_PER_NODE
                + min(nodes, _NUFFT_CHUNK) * _NUFFT_BYTES_PER_SPREAD,
                f"bytes for a {M}-cell NUFFT of {nodes} nodes")
    # imported past the guard, on the first transform: only this function
    # and the Beurling build need scipy.fft, which takes 130 ms to load
    from scipy.fft import rfft

    w, powers = _h_window(spec, h)
    x = as_ld(spec.alpha) * powers
    # 0 < x < 2**63, so truncation is floor and the remainder is exact
    x -= x.astype(np.int64)
    hi = x.astype(np.float64)
    lo = (x - hi).astype(np.float64)
    del x
    js = np.arange(1, j_max + 1)
    # the Gaussian's Fourier transform at j / M, divided out
    deconv = math.sqrt(_BETA / math.pi) * np.exp(
        (math.pi ** 2 / _BETA) * (js / M) ** 2)
    d = np.arange(1 - _SPREAD, _SPREAD + 1)

    def spread(s):
        # in node order, as one bincount over every node would add them
        grid = np.zeros(M)
        for i in range(0, nodes, _NUFFT_CHUNK):
            p = hi[i:i + _NUFFT_CHUNK] * M
            cell = np.floor(p)
            kern = np.exp(-_BETA * (d - (p - cell)[:, None]) ** 2)
            kern *= s[i:i + _NUFFT_CHUNK, None]
            cells = (cell.astype(np.int64)[:, None] + d) & (M - 1)
            # flat indices take np.add.at's fast path
            np.add.at(grid, cells.ravel(), kern.ravel())
            del kern, cells  # before the next chunk's are built
        return grid

    # rfft gives conj(E_j) on a real grid, which leaves |E_j| as it is
    Fw, Flo = (rfft(spread(s))[1:j_max + 1] * deconv for s in (w, w * lo))
    E = Fw - (2j * math.pi) * js * Flo
    return E.real ** 2 + E.imag ** 2


def _single(j: int) -> np.ndarray:
    if j < 1:
        raise ValueError("j must be a positive integer")
    return np.array([j], dtype=np.int64)


def _windows(spec, js: np.ndarray):
    """Inclusive m-windows (lo, hi) and their lengths, one per (dilate, j)
    pair of spec, dilate-major.

    The stationary points of the window fall in [N, 2N]; its endpoints
    carry zero weight (h vanishes there), so fuzzy rounding settles ties.
    """
    th, N = spec.theta, spec.N
    taj = np.multiply.outer(th * spec.alphas, js.astype(np.float64)).ravel()
    lo = np.maximum(iceil(taj * (2.0 * N) ** (th - 1.0)), 1)
    hi = ifloor(taj * float(N) ** (th - 1.0))
    lens = np.maximum(hi - lo + 1, 0)
    return lo, hi, lens


def _cells(flat: np.ndarray, shape, dtype=None) -> np.ndarray:
    """The first rows x cols entries of a flat workspace array as a
    rectangle; with dtype, of its bytes read as that type."""
    n = shape[0] * shape[1]
    if dtype is not None:
        flat = flat.view(np.uint8)[:n * np.dtype(dtype).itemsize].view(dtype)
    return flat[:n].reshape(shape)


class _Workspace(NamedTuple):
    """Flat cell arrays that every chunk of one _short_components call
    reuses: a chunk's rectangle is a view of the first rows x cols entries
    of each (_cells).  An array spent before a later one needs the bytes
    lends them: the reduced phase takes x_m's, and the real and imaginary
    parts of e(.) take the index's and the long-double phase's.  40 bytes
    a cell (x86), in one allocation."""

    idx: np.ndarray  # int64: the m of each cell, then Re e(.)
    xm: np.ndarray  # float64: x_m, then the reduced phase
    amp: np.ndarray  # float64: the amplitude
    ph: np.ndarray  # long double: the phase, then Im e(.)

    @classmethod
    def of(cls, cells: int) -> "_Workspace":
        # one block, not four arrays: glibc then keeps it for the next
        # call's workspace more often, where it gave the four back to the
        # system and faulted them in again (second_moment_roff at N = 2**14,
        # 100 samples, two threads: about 1k minor faults in 12 of 21 runs
        # and 30k-64k in the rest, against 28k-38k for four arrays)
        ld = np.dtype(LD).itemsize
        raw = np.empty(cells * (ld + 24), np.uint8)
        idx, xm, amp = raw[cells * ld:].view(np.float64).reshape(3, cells)
        return cls(idx.view(np.int64), xm, amp, raw[:cells * ld].view(LD))


def _short_terms(spec, h: TestKernel, js: np.ndarray, windows=None,
                 start: int = 0, stop: int | None = None):
    """The stationary-phase terms of the (dilate, j) pairs start..stop-1 of
    spec over js (all of them by default), as a window x pair rectangle.

    spec may hold many dilates; pair p is the (dilate, j) pair
    (alphas[p // J], js[p % J]) with J = len(js), and windows, when given,
    are _windows(spec, js), optionally followed by a _Workspace of at least
    the rectangle's cells, which the result then views; without one the
    result is fresh.  Cell (l, q) is the term m = lo + l of pair
    start + q, for l below the pair's window length; the rectangle has as
    many rows as the longest window, and a cell past its pair's window has
    amplitude 0.  Over its column a pair reads
    E~_j = c1 (alpha*j)**(Theta/2) * sum_l amp_l e(ph_l), with
    amp = m**(-(Theta+1)/2) h(x_m/N) and ph the reduced phase.
    Shared tables: c2 * A with A = (alpha*j)**Theta per pair, broadcast
    down its column, and B_m = m**(1-Theta) (long double) and
    m**(-(Theta+1)/2) (float64) per m in the union of the range's windows,
    taken by one 2-d index; the phase of a term is (c2 * A) * B_m, so no
    cell takes a power but its x_m.  Every cell is computed elementwise, so
    a pair's terms have the same bits in any range of pairs as alone.
    Returns (amp, ph).
    """
    TH = spec.Theta
    th, N = spec.theta, spec.N
    if windows is None:
        windows = _windows(spec, js)
    lo, _, lens = windows[:3]
    lo, lens = lo[start:stop], lens[start:stop]
    rows = int(lens.max(initial=0))
    if rows == 0:
        return np.zeros((0, lens.size)), np.zeros((0, lens.size))
    shape = (rows, lens.size)
    work = windows[3] if len(windows) > 3 else _Workspace.of(rows * lens.size)
    live = lens > 0
    m_base = int(lo[live].min())
    # the m of the union of the windows, and one more: every cell past its
    # window reads that last entry, whose amplitude is 0 and whose x_m and
    # phase are finite
    ms = np.arange(m_base, int((lo + lens)[live].max()) + 1)
    btab = _pow_ld(ms, 1.0 - TH)
    ptab = ms.astype(np.float64) ** (-(TH + 1.0) / 2.0)
    ptab[-1] = 0.0
    ls = np.arange(rows)[:, None]
    idx = np.add(ls, lo - m_base, out=_cells(work.idx, shape))
    np.putmask(idx, ls >= lens, ms.size - 1)
    d, k = np.divmod(np.arange(start, start + lens.size), len(js))
    alphas, jp = spec.alphas[d], js[k]
    taj = (th * alphas) * jp.astype(np.float64)
    # m = m_base + idx, exact in float64: an add, which releases the
    # interpreter lock where a take from a table of m would hold it
    xm = np.add(idx, m_base, out=_cells(work.xm, shape))
    np.divide(taj, xm, out=xm)
    xm **= TH
    xm /= N
    # the indices are in range: "clip" takes them as they are, where the
    # default would buffer its output
    amp = np.take(ptab, idx, out=_cells(work.amp, shape), mode="clip")
    amp *= h(xm)
    th_ld = LD(th)
    c2_ld = np.power(th_ld, LD(TH - 1.0)) - np.power(th_ld, LD(TH))
    ca_ld = c2_ld * np.power(as_ld(alphas) * as_ld(jp), LD(TH))
    ph = np.take(btab, idx, out=_cells(work.ph, shape), mode="clip")
    ph *= ca_ld
    # frac is looked up at call time, as a wrapper may replace it
    return amp, frac(ph, out=_cells(work.xm, shape))


def _column_sums(cells: np.ndarray) -> np.ndarray:
    """Each column's sum, added down the rows one at a time, the order in
    which bincount adds a window's terms.  Over two or more columns
    np.add.reduce adds row after row; over a lone column it would sum a
    contiguous run of 8 or more pairwise, so accumulate takes that one."""
    if cells.shape[1] == 1:
        return np.add.accumulate(cells, axis=0)[-1]
    return np.add.reduce(cells, axis=0)


def _chunks(lens: np.ndarray) -> list[tuple[int, int]]:
    """Cuts of the pairs into runs a..b-1 of consecutive pairs whose
    rectangle (longest window times pairs, an empty window counted as one
    row) holds at most _CHUNK cells; a window longer than that is a run of
    its own."""
    cols = np.maximum(lens, 1)
    ends = np.cumsum(cols)
    cuts, a = [], 0
    while a < lens.size:
        # a rectangle holds at least the sum of its columns, so it ends
        # before the pair that takes that sum past _CHUNK (top)
        top = int(np.searchsorted(ends, ends[a] - cols[a] + _CHUNK, "right"))
        cells = (np.maximum.accumulate(cols[a:top])
                 * np.arange(1, top - a + 1))
        b = a + max(1, int(np.searchsorted(cells, _CHUNK, "right")))
        cuts.append((a, b))
        a = b
    return cuts


def _short_components(spec, h: TestKernel, js: np.ndarray):
    """Per-pair short-form data: |E~_j|^2 and its diagonal (n = m) part,
    one entry per (dilate, j) pair of spec, dilate-major.

    The pairs run in chunks (_chunks) whose _short_terms rectangles stay
    in cache.  Every chunk's cells are views of one _Workspace, sized to
    the largest rectangle before the first chunk, so no chunk allocates
    its cells afresh: e(.) goes into two of its float64 rectangles, the
    amplitude is multiplied into them in place, and their columns are
    summed.  Each pair's column is summed in window order (_column_sums),
    as one bincount over a flat table of the terms would add them, so
    neither the chunking nor the padding moves a bit.  The column sums are
    ufunc loops, which release the interpreter lock, so the calls of
    measure's pool threads overlap; each call has its own workspace.
    """
    aj = np.multiply.outer(spec.alphas, js.astype(np.float64)).ravel()
    with np.errstate(over="ignore"):
        ajt = aj ** spec.Theta
    if not np.isfinite(ajt).all():
        raise ValueError(f"(alpha j)**Theta overflows at theta = {spec.theta}")
    windows = _windows(spec, js)
    lens = windows[2]
    P = lens.size
    chunks = _chunks(lens)
    work = _Workspace.of(max((int(lens[a:b].max()) * (b - a)
                              for a, b in chunks), default=0))
    sr, si, dg = np.zeros(P), np.zeros(P), np.zeros(P)
    for a, b in chunks:
        amp, ph = _short_terms(spec, h, js, windows + (work,), a, b)
        if amp.size:
            # e_frac is looked up at call time, as a wrapper may replace it
            re, im = e_frac(ph, out=(_cells(work.idx, amp.shape, np.float64),
                                     _cells(work.ph, amp.shape, np.float64)))
            re *= amp
            sr[a:b] = _column_sums(re)
            im *= amp
            si[a:b] = _column_sums(im)
            np.multiply(amp, amp, out=re)
            dg[a:b] = _column_sums(re)
    pref = abs(bprocess_constants(spec.theta).c1) ** 2 * ajt
    sr *= sr
    si *= si
    sr += si
    sr *= pref
    dg *= pref
    return sr, dg, windows


def exp_sum_bprocess(spec: SequenceSpec, h: TestKernel, j: int) -> complex:
    """Short (stationary-phase) form of E_j; 0 when the m-window is empty."""
    _one_dilate(spec)
    amp, ph = _short_terms(spec, h, _single(j))
    try:
        # math.pow raises on overflow for a numpy alpha too
        scale = math.pow(spec.alpha * j, spec.Theta / 2.0)
    except OverflowError:
        raise ValueError("(alpha j)**(Theta/2) overflows at "
                         f"theta = {spec.theta}") from None
    c1 = bprocess_constants(spec.theta).c1
    return c1 * scale * csum(amp[:, 0] * e_frac(ph[:, 0]))


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
    _one_dilate(spec)
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    if j_max == 0:
        return 0.0
    fv = fourier(f, np.arange(1, j_max + 1) / spec.N).real
    e2 = _nufft_abs2(spec, h, j_max)
    return float(2.0 / spec.N ** 2 * np.dot(fv, e2))


def _band(N: int, eps: float) -> np.ndarray:
    """Integers j in [N^(1-eps), N^(1+eps)]."""
    lo = iceil(N ** (1.0 - eps))
    hi = ifloor(N ** (1.0 + eps))
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
    one decomposition per dilate of spec.

    The sums over j are exactly rounded, all of a block's totals and
    diagonals in one exact_row_sums call, whose numpy loops release the
    interpreter lock; a threaded BLAS dot here would spin idle workers on
    every call.
    """
    abs2, diag, _ = _short_components(spec, h, js)
    scale = 2.0 / spec.N ** 2
    rows = np.concatenate([abs2, diag]).reshape(-1, len(js))
    rows *= f_values
    sums = (scale * exact_row_sums(rows)).tolist()
    half = len(sums) // 2
    return [TildeDecomposition(total, diagonal, total - diagonal,
                               int(js[0]), int(js[-1]))
            for total, diagonal in zip(sums[:half], sums[half:])]


def s_tilde_parts(spec: SequenceSpec, f: TestKernel, h: TestKernel,
                  eps: float = 0.05) -> TildeDecomposition:
    """Assemble S~ over the band j in [N^(1-eps), N^(1+eps)] spectrally."""
    _one_dilate(spec)
    js = _band(spec.N, eps)
    if js.size == 0:
        return TildeDecomposition(0.0, 0.0, 0.0, 0, -1)
    return _tilde_from_values(spec, h, js, fourier(f, js / spec.N).real)[0]


# peak bytes a pair of points holds in pair_corr_smooth's quadratic form
# (tracemalloc: 41.1 if supp f(N .) is 2/N wide, 67.0 if it covers 1)
_BYTES_PER_PAIR = 68


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
    _one_dilate(spec)
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
        _pool.guard(v.size ** 2 * _BYTES_PER_PAIR, "bytes for the pair table")
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
