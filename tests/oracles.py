"""Slow literal evaluations that the fast paths in src/ are checked against.

An oracle keeps its own copy of the formulas it checks: r_off_pairs builds
its phases and amplitudes itself, never through expsums._short_terms, so a
fault in that shared term table cannot cancel out of a comparison with it.
Only the m-windows and the j-band come from expsums.
"""

import numpy as np

from paircorr._precision import LD, as_ld, e_frac, frac
from paircorr.expsums import _band, _pow_ld, _windows, bprocess_constants
from paircorr.kernels import FourierTable


def r_off_pairs(spec, f, h, eps=0.05) -> float:
    """Off-diagonal part of S~ over the band j in [N^(1-eps), N^(1+eps)].

    The literal double sum over stationary points m != n, phasing each pair
    through z = m**(1-Theta) - n**(1-Theta); s_tilde_parts(...).off_diagonal
    takes |E~_j|^2 minus its diagonal instead.  The two agree to rounding
    and exercise disjoint code paths.
    """
    js = _band(spec, eps)
    if js.size == 0:
        return 0.0
    TH = spec.Theta
    th, al, N = spec.theta, spec.alpha, spec.N
    table = FourierTable(f, max_abs_freq=js[-1] / N)
    fv = table.values(js / N).real
    lo, hi, lens = _windows(spec, js)
    consts = bprocess_constants(th)
    c1sq = abs(consts.c1) ** 2
    th_ld = LD(th)
    c2_ld = np.power(th_ld, LD(TH - 1.0)) - np.power(th_ld, LD(TH))
    mlo = int(lo[lens > 0].min()) if (lens > 0).any() else 1
    mhi = int(hi[lens > 0].max()) if (lens > 0).any() else 1
    btab = _pow_ld(np.arange(mlo, mhi + 1), 1.0 - TH)
    acc = 0.0 + 0.0j
    for idx, j in enumerate(js):
        k = int(lens[idx])
        if k < 2:
            continue
        m = np.arange(lo[idx], hi[idx] + 1, dtype=np.int64)
        b = btab[m - mlo]
        a_ld = np.power(as_ld(al) * int(j), LD(TH))
        # pair phase via z_mn = m^(1-Theta) - n^(1-Theta); the diagonal of
        # the quadratic form contributes e(0) Sum a^2, removed afterwards
        ph = frac(c2_ld * a_ld * (b[:, None] - b[None, :]))
        mf = m.astype(np.float64)
        xm = (th * al * float(j) / mf) ** TH
        a = mf ** (-(TH + 1.0) / 2.0) * h(xm / N)
        quad = a @ (e_frac(ph) @ a) - np.dot(a, a)
        acc += fv[idx] * c1sq * (al * float(j)) ** TH * quad
    acc *= 2.0 / N ** 2
    if abs(acc.imag) > 1e-10 * (abs(acc.real) + 1.0):
        raise ArithmeticError(
            f"pair sum picked up a spurious imaginary part: {acc.imag:.3e}")
    return float(acc.real)
