"""Slow literal evaluations that the fast paths in src/ are checked against.

An oracle keeps its own copy of the formulas it checks: r_off_pairs and
moments_per_sample build their phases and amplitudes themselves, never
through expsums._short_terms, and take e(.) from numpy's exp rather than
the library's e_frac, so a fault in that shared term table or in e_frac
cannot cancel out of a comparison with them.  Only the m-windows and the
j-band come from expsums.  The module is the home of every evaluation that
only tests call:

- beurling_B, Beurling's series summed term by term, which
  beurling._b_on_grid is checked against;
- stationary_point, the location of one stationary point;
- count_log_close_pairs and twisted_second_moment, the log-close pair count
  of the products of a DioInstance and the twisted second moment of
  Dirichlet polynomials that bounds it from above;
- alpha_range, cdf_alpha and quad, the support, distribution function and
  quadrature expectation of a MuMeasure;
- osc_integral_vec and diagonal_w_term;
- pair_corr_count_concat, the sweep over a doubled array that
  stats.pair_corr_count is checked against.
"""

import math
from dataclasses import dataclass

import numpy as np

from paircorr._precision import LD, _pow_ld, as_ld, csum, frac
from paircorr.beurling import BeurlingSelberg
from paircorr.diophantine import DioInstance, ZMultiset, _products, build_zset
from paircorr.expsums import SequenceSpec, _band, _windows, bprocess_constants
from paircorr.kernels import FourierTable, default_h, integrate
from paircorr.measure import (MuMeasure, _check_theta, _osc_panels,
                              _stationary_scale)


def e(ph):
    """exp(2 pi i ph) through numpy's exp, independent of the library's
    table-based e_frac."""
    return np.exp(2j * np.pi * ph)


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
        quad = a @ (e(ph) @ a) - np.dot(a, a)
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
    return (pref * abs(csum(a * e(ph))) ** 2,
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


def beurling_B(x, cutoff: int = 10**4):
    """Beurling's majorant of sgn, as a truncated sum-of-squares series.

    The two one-sided series are cut at ``cutoff`` terms and the remainders
    replaced by their midpoint-rule integrals; at the default cutoff the
    truncation error stays below ~1e-12 for |x| <= cutoff / 2 (the accepted
    argument band).  Small cutoffs are allowed but correspondingly coarse.
    """
    M = int(cutoff)
    if M < 1:
        raise ValueError("cutoff must be at least 1")
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if xs.size and float(np.max(np.abs(xs))) > M / 2:
        raise ValueError(f"|x| must stay below cutoff/2 = {M / 2}")
    out = 2.0 * xs * np.sinc(xs) ** 2
    blk = max(1, int(2 ** 22) // max(xs.size, 1))
    for a in range(0, M + 1, blk):
        nn = np.arange(a, min(a + blk, M + 1), dtype=np.float64)
        out += (np.sinc(xs[:, None] - nn[None, :]) ** 2).sum(axis=1)
        pos = nn[nn >= 1.0]
        if pos.size:
            out -= (np.sinc(xs[:, None] + pos[None, :]) ** 2).sum(axis=1)
    s2 = (np.sin(np.pi * xs) / np.pi) ** 2
    out += s2 * (1.0 / (M + 0.5 - xs) - 1.0 / (M + 0.5 + xs))
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def stationary_point(spec: SequenceSpec, j: int, m: int) -> float:
    """Location x_m = (theta*alpha*j/m)**Theta of the m-th stationary point."""
    if m == 0:
        raise ValueError("m must be nonzero")
    return (spec.theta * spec.alpha * j / m) ** spec.Theta


def count_log_close_pairs(inst: DioInstance, T: float,
                          zset: ZMultiset | None = None) -> int:
    """Ordered pairs of products with |T log(v1/v2)| < 1 (self included)."""
    v = _products(inst, zset)
    if v.size == 0:
        return 0
    lv = np.sort(np.log(v))
    hi = np.searchsorted(lv, lv + 1.0 / T, side="left")
    lo = np.searchsorted(lv, lv - 1.0 / T, side="right")
    return int((hi - lo).sum())


def twisted_second_moment(inst: DioInstance, bs: BeurlingSelberg,
                          T: float | None = None,
                          node_factor: int = 16) -> float:
    """(1/T) int |D_u(Theta t)|^2 |P(t)|^2 Phi(t/T) dt by midpoint rule.

    D_u(Theta t) sums e(Theta t log j) over the j of the instance and P(t)
    sums e(t log z) over its z multiset.  Expanding the squares shows the
    value equals sum over ordered pairs of products of
    Phi_hat(T log(v1/v2)); since Phi_hat dominates the unit tent, the value
    is bounded below by the number of pairs with |T log(v1/v2)| < 1.
    T defaults to e^q N^(1-eps) when the instance carries grid provenance.
    """
    if T is None:
        if inst.q is None or inst.N is None or inst.eps is None:
            raise ValueError("explicit T required for hand-built instances")
        T = math.exp(inst.q) * inst.N ** (1.0 - inst.eps)
    if T <= 0:
        raise ValueError("T must be positive")
    zset = build_zset(inst)
    if zset.size == 0:
        return 0.0
    js = inst.js
    TH = inst.Theta
    # fastest beat frequency of |D|^2 |P|^2 in cycles per unit t
    f_max = (TH * (math.log(inst.j_hi) - math.log(inst.j_lo))
             + math.log(zset.z[-1] / zset.z[0]) + 1.0 / T)
    dt = min(1.0 / (node_factor * f_max), T / node_factor)
    K = int(math.ceil(2.0 * T / dt))
    ts = -T + (np.arange(K) + 0.5) * (2.0 * T / K)
    lj = np.log(js.astype(np.float64))
    lz = np.log(zset.z)
    acc = 0.0
    chunk = max(1, int(2 ** 22) // max(js.size + zset.size, 1))
    for i in range(0, K, chunk):
        tt = ts[i:i + chunk]
        D = np.exp(2j * np.pi * TH * np.outer(tt, lj)).sum(axis=1)
        P = np.exp(2j * np.pi * np.outer(tt, lz)).sum(axis=1)
        w = bs.phi(tt / T)
        acc += float(((D.real ** 2 + D.imag ** 2)
                      * (P.real ** 2 + P.imag ** 2) * w).sum())
    return acc * (2.0 * T / K) / T


def alpha_range(mu: MuMeasure) -> tuple[float, float]:
    """The support of mu in alpha: the rho support mapped by 1/Theta."""
    inv = 1.0 / mu.Theta
    return (mu.rho.support_lo ** inv, mu.rho.support_hi ** inv)


def cdf_alpha(mu: MuMeasure, alpha):
    """mu([0, alpha]): the trapezoid cumulative integral of rho(b)/b on
    2**14 points of the rho support, interpolated at beta = alpha**Theta."""
    lo, hi = mu.rho.support_lo, mu.rho.support_hi
    grid = np.linspace(lo, hi, 1 << 14)
    pdf = mu.rho(grid) / grid
    width = grid[1] - grid[0]
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))))
    beta = np.asarray(alpha, dtype=np.float64) ** mu.Theta
    out = np.interp(beta, grid, cum * width, left=0.0, right=1.0)
    return float(out) if np.ndim(alpha) == 0 else out


def quad(mu: MuMeasure, g, nodes_per_unit: int = 8192) -> float:
    """Quadrature expectation int g(alpha) dmu(alpha), in beta variables."""
    inv = 1.0 / mu.Theta
    return integrate(mu.rho, nodes_per_unit=nodes_per_unit,
                     weight=lambda b: np.asarray(g(b ** inv)) / b)
