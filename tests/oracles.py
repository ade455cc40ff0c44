"""Slow literal evaluations that the fast paths in src/ are checked against.

An oracle keeps its own copy of the formulas it checks: r_off_pairs and
moments_per_sample build their phases and amplitudes themselves, never
through expsums._short_terms, so a fault in that shared term table cannot
cancel out of a comparison with them.  Only the m-windows and the j-band
come from expsums.  The module also holds the evaluations that only tests
call (osc_integral_vec, diagonal_w_term), and pair_corr_count_concat, the
sweep over a doubled array that stats.pair_corr_count is checked against.
"""

import math
from dataclasses import dataclass

import numpy as np

from paircorr._precision import LD, as_ld, csum, e_frac, frac
from paircorr.expsums import (SequenceSpec, _band, _pow_ld, _windows,
                              bprocess_constants)
from paircorr.kernels import FourierTable, default_h, integrate
from paircorr.measure import _check_theta, _osc_panels, _stationary_scale


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


def _short_sum(spec, h, j, lo, hi):
    """(|E~_j|^2, its diagonal part) from the terms of one window, summed
    exactly; the phase is (c2 (alpha j)^Theta) m^(1-Theta) in long double."""
    TH = spec.Theta
    th, al, N = spec.theta, spec.alpha, spec.N
    if hi < lo:
        return 0.0, 0.0
    m = np.arange(lo, hi + 1, dtype=np.int64)
    th_ld = LD(th)
    c2_ld = np.power(th_ld, LD(TH - 1.0)) - np.power(th_ld, LD(TH))
    ph = frac(c2_ld * np.power(as_ld(al) * int(j), LD(TH))
              * _pow_ld(m, 1.0 - TH))
    mf = m.astype(np.float64)
    a = mf ** (-(TH + 1.0) / 2.0) * h((th * al * float(j) / mf) ** TH / N)
    pref = abs(bprocess_constants(th).c1) ** 2 * (al * float(j)) ** TH
    return (pref * abs(csum(a * e_frac(ph))) ** 2,
            pref * math.fsum((a * a).tolist()))


def moments_per_sample(theta, N, mu, samples, h, js, f_values=None):
    """Per-sample rows of the Monte Carlo moments, one dilate at a time.

    Sample i takes mu.sample_alphas(1, substream=i)[0].  Without f_values
    a row is (|E~_j|^2, diagonal) for the single j in js, as
    second_moment_tilde_e averages them; with the transform values over the
    band js it is the squared off-diagonal part of S~, as
    second_moment_roff averages it.
    """
    rows = []
    for i in range(samples):
        alpha = float(mu.sample_alphas(1, substream=i)[0])
        spec = SequenceSpec(theta, alpha, N)
        lo, hi, _ = _windows(spec, js)
        parts = np.array([_short_sum(spec, h, j, lo[k], hi[k])
                          for k, j in enumerate(js.tolist())])
        if f_values is None:
            rows.append(parts[0])
        else:
            off = math.fsum((f_values * (parts[:, 0] - parts[:, 1])).tolist())
            rows.append((2.0 / N ** 2 * off) ** 2)
    return np.array(rows)


def osc_integral_vec(theta, N, j1, j2, m1, n1, m2, n2, mu, h=None,
                     node_factor=8) -> complex:
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
    scales = [_stationary_scale(theta, N, j1, m1),
              _stationary_scale(theta, N, j1, n1),
              _stationary_scale(theta, N, j2, m2),
              _stationary_scale(theta, N, j2, n2)]
    nodes, wts = _osc_panels(mu.rho.support_lo, mu.rho.support_hi, freq,
                             node_factor)
    amp = nodes * mu.rho(nodes)
    for s in scales:
        amp = amp * h(nodes * s)
    return complex(np.dot(amp * wts, np.exp(2j * np.pi * freq * nodes)))


@dataclass(frozen=True)
class DiagonalTerm:
    """Diagonal n-sum at scale W against its first-order evaluation.

    regime_warning flags W < 4, where so few lattice points hit the window
    that the first-order comparison is not meaningful.
    """

    value: float
    main_term: float
    W: float
    n_count: int
    regime_warning: bool = False


def diagonal_w_term(spec, j, h) -> DiagonalTerm:
    """sum_n n^{-(Theta+1)} h(W/n^Theta)^2 versus (1-theta) int(h^2) / W,
    where W = (theta*alpha*j)^Theta / N."""
    TH = spec.Theta
    W = (spec.theta * spec.alpha * j) ** TH / spec.N
    n_lo = max(1, int(math.floor((W / h.support_hi) ** (1.0 / TH))))
    n_hi = int(math.ceil((W / h.support_lo) ** (1.0 / TH))) + 1
    ns = np.arange(n_lo, n_hi + 1, dtype=np.float64)
    vals = ns ** (-(TH + 1.0)) * h(W / ns ** TH) ** 2
    main = (1.0 - spec.theta) * integrate(h, weight=lambda x: h(x)) / W
    return DiagonalTerm(value=float(vals.sum()), main_term=float(main),
                        W=float(W), n_count=int((vals > 0).sum()),
                        regime_warning=bool(W < 4.0))


def pair_corr_count_concat(points, s) -> int:
    """Ordered pairs within s / size on the circle, x != y, by the sweep over
    the sorted points concatenated with their copy shifted by 1."""
    M = points.size
    r = s / M
    if r >= 0.5:
        return M * (M - 1)
    vs = np.sort(points)
    ext = np.concatenate([vs, vs + 1.0])
    hi = np.searchsorted(ext, vs + r, side="right")
    return 2 * int((hi - np.arange(M) - 1).sum())
