"""Extremal band-limited majorants for counting with multiplicative windows.

The building block is Beurling's function B, the entire majorant of sgn(x)
of exponential type 2 pi with sum-of-squares structure.  From it we build
the interval majorant

    psi_hat(x) = (B(1 - x) + B(1 + x)) / 2  >=  indicator of [-1, 1],

whose Fourier transform Psi_plus vanishes outside [-1, 1].  The workhorse
weight is Phi = Psi_plus^2: nonnegative, supported in [-1, 1], and with
transform Phi_hat = psi_hat * psi_hat (self-convolution) that majorises the
tent max(0, 2 - |x|).  Squeezing a count between Phi evaluations only needs
these inequalities, so the builder verifies each one on a dense grid and
refuses to hand back an object that fails any of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class BeurlingConstructionError(Exception):
    """A verified property of the majorant failed at build time."""


# the psi_hat table is zero-padded to _PAD times its length before the DCT
_PAD = 4

# the one family built: B's series cut at _CUTOFF terms, psi_hat on
# |x| <= _X_MAX at spacing 1 / _INV_H, phi on |t| <= _T_MAX.  The series
# holds for |x| <= _CUTOFF / 2, which must cover B's reach, _X_MAX + 1.5
_CUTOFF = 10**4
_X_MAX = 200.0
_INV_H = 1024
_T_MAX = 4.0


def _b_on_grid(i_lo: int, i_hi: int, inv_h: int, cutoff: int) -> np.ndarray:
    """Beurling's B at y = i / inv_h for every integer i in [i_lo, i_hi].

    B(y) = 2 y sinc(y)^2 + sum_{n=0}^{M} sinc(y - n)^2
    - sum_{n=1}^{M} sinc(y + n)^2 with M = cutoff, each series' remainder
    replaced by its midpoint-rule integral; the truncation error stays
    below ~1e-12 for |y| <= cutoff / 2.  The terms are organised by
    residue class of i mod inv_h, a strided slice of the window, so each
    class shares one prefix-sum table of 1 / (k + tau)^2.  Integer y
    short-circuits to sgn (B is exact there).
    """
    M = int(cutoff)
    i_arr = np.arange(i_lo, i_hi + 1, dtype=np.int64)
    out = np.empty(i_arr.size, dtype=np.float64)
    kmin = i_lo // inv_h - M - 1
    kmax = i_hi // inv_h + M
    base = np.arange(kmin, kmax + 1, dtype=np.float64)
    for r in range(inv_h):
        # i_arr is consecutive, so class r is every inv_h-th entry
        sel = slice((r - i_lo) % inv_h, None, inv_h)
        ii = i_arr[sel]
        if ii.size == 0:
            continue
        if r == 0:
            out[sel] = np.where(ii >= 0, 1.0, -1.0)
            continue
        tau = r / inv_h
        csum = np.concatenate(([0.0], np.cumsum(1.0 / (base + tau) ** 2)))
        p = (ii - r) // inv_h
        y = ii / inv_h
        t_minus = csum[p - kmin + 1] - csum[p - M - kmin]
        t_plus = csum[p + M - kmin + 1] - csum[p + 1 - kmin]
        s2 = (math.sin(math.pi * tau) / math.pi) ** 2
        out[sel] = s2 * (2.0 / y + t_minus - t_plus
                         + 1.0 / (M + 0.5 - y) - 1.0 / (M + 0.5 + y))
    return out


@dataclass
class BeurlingSelberg:
    """Grid-certified majorant family; see the module docstring.

    ``psi_hat`` is the interval majorant in x, ``phi`` the nonnegative
    [-1, 1]-supported weight in t, ``phi_hat`` its transform.  Outside the
    tabulated windows the callables return 0, which is on the safe side for
    every inequality the object certifies.  ``margins`` records by how much
    each build-time check cleared its threshold.
    """

    series_cutoff: int
    x_max: float
    t_max: float
    margins: dict = field(repr=False)
    _x_half: np.ndarray = field(repr=False)
    _psi_half: np.ndarray = field(repr=False)
    _t_grid: np.ndarray = field(repr=False)
    _psi_plus: np.ndarray = field(repr=False)
    _phi_vals: np.ndarray = field(repr=False)
    _conv_x: np.ndarray = field(repr=False)
    _conv_vals: np.ndarray = field(repr=False)

    def psi_hat(self, x):
        ax = np.abs(np.asarray(x, dtype=np.float64))
        out = np.interp(ax, self._x_half, self._psi_half, right=0.0)
        return float(out) if np.ndim(x) == 0 else out

    def psi_plus(self, t):
        at = np.abs(np.asarray(t, dtype=np.float64))
        out = np.interp(at, self._t_grid, self._psi_plus, right=0.0)
        return float(out) if np.ndim(t) == 0 else out

    def phi(self, t):
        at = np.abs(np.asarray(t, dtype=np.float64))
        out = np.interp(at, self._t_grid, self._phi_vals, right=0.0)
        return float(out) if np.ndim(t) == 0 else out

    def phi_hat(self, x):
        xv = np.asarray(x, dtype=np.float64)
        out = np.interp(xv, self._conv_x, self._conv_vals, left=0.0, right=0.0)
        return float(out) if np.ndim(x) == 0 else out


def build_beurling_selberg() -> BeurlingSelberg:
    """Tabulate the majorant family and verify its defining inequalities.

    Raises BeurlingConstructionError naming the violated property if any
    check fails; the margins of the passing checks are kept on the result.
    scipy.fft is imported on the first call, so that a run which builds no
    majorant does not pay its 130 ms load.
    """
    from scipy.fft import dct, irfft, next_fast_len, rfft

    xi = int(_X_MAX * _INV_H)
    master = _b_on_grid(_INV_H - xi, _INV_H + xi, _INV_H, _CUTOFF)
    psi_half = 0.5 * (master[:xi + 1][::-1] + master[xi:])
    del master
    x_half = np.arange(xi + 1) / _INV_H

    margins: dict[str, float] = {}

    def demand(name: str, margin: float, floor: float):
        margins[name] = float(margin)
        if margin < floor:
            raise BeurlingConstructionError(
                f"{name}: margin {margin:.3e} below floor {floor:.1e}")

    demand("psi_hat_at_0_eq_1", -abs(psi_half[0] - 1.0), -1e-12)
    demand("psi_hat_at_1_eq_1", -abs(psi_half[_INV_H] - 1.0), -1e-12)
    demand("psi_hat_nonneg", float(psi_half.min()), -1e-9)
    demand("psi_hat_core_ge_1", float(psi_half[:_INV_H + 1].min() - 1.0), -1e-9)

    # transform: trapezoid equals a type-1 DCT here; zero-padding past _X_MAX
    # refines the t grid at the price of the (already tiny) tail of psi_hat.
    # Every step works in place and each spent array is dropped: the DCT's
    # own workspace is most of this function's peak
    padded = np.zeros(_PAD * xi + 1, dtype=np.float64)
    padded[:xi + 1] = psi_half
    spectrum = dct(padded, type=1, overwrite_x=True)
    del padded
    spectrum *= 1.0 / _INV_H
    dt = 1.0 / (2.0 * _PAD * _X_MAX)
    k_keep = int(round(_T_MAX / dt)) + 1
    t_grid = np.arange(k_keep) * dt
    psi_plus = spectrum[:k_keep].copy()
    out_band = spectrum[int(math.floor(1.0 / dt)) + 1:]
    demand("psi_plus_small_outside", -float(np.max(np.abs(out_band))), -1e-3)
    demand("psi_plus_at_0_ge_2", float(spectrum[0] - 2.0), -1e-6)
    del spectrum, out_band

    phi_vals = psi_plus ** 2
    demand("phi_nonneg", float(phi_vals.min()), 0.0)

    psi_full = np.concatenate([psi_half[::-1], psi_half[1:]])
    L = 2 * psi_full.size - 1
    nfft = next_fast_len(L)
    F = rfft(psi_full, nfft)
    del psi_full
    F *= F
    conv = irfft(F, nfft, overwrite_x=True)[:L]
    del F
    conv *= 1.0 / _INV_H
    conv_x = (np.arange(L) - (L - 1) // 2) / _INV_H
    demand("phi_hat_nonneg", float(conv.min()), -1e-9)
    # conv - max(0, 2 - |x|), built in one array
    tent = np.abs(conv_x)
    np.subtract(2.0, tent, out=tent)
    np.maximum(0.0, tent, out=tent)
    np.subtract(conv, tent, out=tent)
    demand("phi_hat_ge_tent", float(tent.min()), -1e-4)
    demand("phi_hat_at_0_ge_2", float(conv[(L - 1) // 2] - 2.0), -1e-6)

    return BeurlingSelberg(
        series_cutoff=_CUTOFF, x_max=_X_MAX, t_max=_T_MAX, margins=margins,
        _x_half=x_half, _psi_half=psi_half,
        _t_grid=t_grid, _psi_plus=psi_plus, _phi_vals=phi_vals,
        _conv_x=conv_x, _conv_vals=conv,
    )
