"""Slow literal evaluations that the fast paths in src/ are checked against.

An oracle keeps its own copy of the formulas it checks: r_off_pairs and
moments_per_sample build their phases and amplitudes themselves, never
through expsums._short_terms, and take e(.) from numpy's exp rather than
the library's e_frac, so a fault in that shared term table or in e_frac
cannot cancel out of a comparison with them; r_off_pairs also reduces its
signed pair phases itself, as x - floor(x) in long double, where the
library's frac takes only phases in [0, 2**63).  Only the m-windows and the
j-band come from expsums.  short_components_flat is the exception: it
repeats the library's arithmetic term for term, e_frac included, and
checks only the layout and summation order of expsums._short_components;
tilde_from_values_fsum likewise shares _short_components and checks only
the exact sums over j.  The exact sums here are math.fsum's
(fsum_complex), never the library's csum.
The module is the home of every evaluation that only tests call:

- beurling_B, Beurling's series summed term by term, which
  beurling._b_on_grid is checked against;
- stationary_point, the location of one stationary point;
- count_log_close_pairs and twisted_second_moment, the log-close pair count
  of the products of a DioInstance and the twisted second moment of
  Dirichlet polynomials that bounds it from above;
- alpha_range, cdf_alpha and quad, the support, distribution function and
  quadrature expectation of a MuMeasure;
- osc_integral_vec and diagonal_w_term;
- gl_grid, a composite Gauss-Legendre rule from numpy.polynomial.legendre,
  which quad and osc_integral_vec integrate with: the library integrates
  by the trapezoid rule of kernels.FourierTable alone, so these oracles
  share no quadrature with the code they check;
- pair_corr_count_concat, the sweep over a doubled array that
  stats.pair_corr_count is checked against;
- powers_mp, n**theta in 200-bit mpmath, which stats._powers' anchored
  tables are checked against.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss

from paircorr._precision import LD, _pow_ld, as_ld, e_frac, frac
from paircorr.beurling import BeurlingSelberg
from paircorr.diophantine import DioInstance, ZMultiset, _products, build_zset
from paircorr.expsums import (SequenceSpec, TildeDecomposition, _band,
                              _short_components, _windows, bprocess_constants)
from paircorr.kernels import FourierTable, default_h, integrate
from paircorr.measure import MuMeasure, _stationary_scale

_GL_X, _GL_W = leggauss(16)
# Gauss-Legendre panels per oscillation period in osc_integral_vec
_NODE_FACTOR = 8


def gl_grid(lo: float, hi: float, panels: int):
    """Composite Gauss-Legendre rule: `panels` equal panels of 16 nodes."""
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (hi - lo) / panels
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mids[:, None] + half * _GL_X[None, :]).ravel()
    return nodes, np.tile(half * _GL_W, panels)


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
    js = _band(spec.N, eps)
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
        # pair phase via z_mn = m^(1-Theta) - n^(1-Theta), of either sign,
        # reduced here by the long-double floor; the diagonal of the
        # quadratic form contributes e(0) Sum a^2, removed afterwards
        x = c2_ld * a_ld * (b[:, None] - b[None, :])
        ph = (x - np.floor(x)).astype(np.float64)
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


def fsum_complex(values) -> complex:
    """Exactly rounded complex sum by math.fsum, apart from the library's
    bucketed sum (_precision.exact_row_sums), which csum takes."""
    v = np.asarray(values)
    return complex(math.fsum(v.real.tolist()), math.fsum(v.imag.tolist()))


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
    return (pref * abs(fsum_complex(a * e(ph))) ** 2,
            pref * math.fsum((a * a).tolist()))


def moments_per_sample(N, mu, samples, h, js, f_values=None):
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
        spec = SequenceSpec(mu.theta, alpha, N)
        lo, hi, _ = _windows(spec, js)
        parts = np.array([_short_sum(spec, h, j, lo[k], hi[k])
                          for k, j in enumerate(js.tolist())])
        if f_values is None:
            rows.append(parts[0])
        else:
            off = math.fsum((f_values * (parts[:, 0] - parts[:, 1])).tolist())
            rows.append((2.0 / N ** 2 * off) ** 2)
    return np.array(rows)


def short_components_flat(spec, h, js):
    """(|E~_j|^2, diagonal part) per (dilate, j) pair of spec, dilate-major,
    from one flat table of every term and np.bincount.

    The terms are those of expsums._short_terms, computed by the same
    operations in the same precision (e_frac, not numpy's exp), laid end to
    end: term k belongs to pair rep[k], and bincount adds a pair's terms
    in window order.  It checks the layout and the summation order of
    _short_components' rectangle and column sums, to the bit, and nothing
    of the formulas themselves, which r_off_pairs and _short_sum check.
    """
    TH = spec.Theta
    th, N = spec.theta, spec.N
    lo, _, lens = _windows(spec, js)
    P = lens.size
    sr, si, dg = np.zeros(P), np.zeros(P), np.zeros(P)
    if lens.any():
        rep = np.repeat(np.arange(P), lens)
        starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
        m = ((np.arange(rep.size) - np.repeat(starts, lens))
             + np.repeat(lo, lens))
        ms = np.arange(int(m.min()), int(m.max()) + 1)
        dm = m - ms[0]
        btab = _pow_ld(ms, 1.0 - TH)
        ptab = ms.astype(np.float64) ** (-(TH + 1.0) / 2.0)
        d, k = np.divmod(np.arange(P), len(js))
        alphas, jp = spec.alphas[d], js[k]
        taj = (th * alphas) * jp.astype(np.float64)
        amp = ptab[dm] * h((taj[rep] / m.astype(np.float64)) ** TH / N)
        th_ld = LD(th)
        c2_ld = np.power(th_ld, LD(TH - 1.0)) - np.power(th_ld, LD(TH))
        ca_ld = c2_ld * np.power(as_ld(alphas) * as_ld(jp), LD(TH))
        e = e_frac(frac(ca_ld[rep] * btab[dm]))
        sr = np.bincount(rep, weights=amp * e.real, minlength=P)
        si = np.bincount(rep, weights=amp * e.imag, minlength=P)
        dg = np.bincount(rep, weights=amp * amp, minlength=P)
    aj = np.multiply.outer(spec.alphas, js.astype(np.float64)).ravel()
    pref = abs(bprocess_constants(th).c1) ** 2 * aj ** TH
    return pref * (sr ** 2 + si ** 2), pref * dg


def tilde_from_values_fsum(spec, h, js, f_values):
    """expsums._tilde_from_values with each sum over j taken by math.fsum,
    dilate by dilate: the assembly that the bucketed exact sums replaced.
    It shares _short_components with the fast path and checks only the
    sums over j and their layout, to the bit."""
    abs2, diag, _ = _short_components(spec, h, js)
    scale = 2.0 / spec.N ** 2
    parts = []
    for a2, dg in zip(abs2.reshape(-1, len(js)), diag.reshape(-1, len(js))):
        total = scale * math.fsum((f_values * a2).tolist())
        diagonal = scale * math.fsum((f_values * dg).tolist())
        parts.append(TildeDecomposition(total, diagonal, total - diagonal,
                                        int(js[0]), int(js[-1])))
    return parts


def osc_integral_vec(N, j1, j2, m1, n1, m2, n2, mu, h=None) -> complex:
    """Averaged quadruple term: two pair phases beating against each other.

    The frequency is c2 (j1^Theta z1 - j2^Theta z2); the two big products
    are differenced in long double before being handed to quadrature, since
    near-diagonal quadruples cancel to many digits.  The amplitude carries
    the beta weight of mean-square averages: beta rho(beta) times the four
    window factors.
    """
    if h is None:
        h = default_h()
    theta, Theta = mu.theta, mu.Theta
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
    lo, hi = mu.rho.support_lo, mu.rho.support_hi
    panels = max(16, math.ceil(_NODE_FACTOR * abs(freq) * (hi - lo)))
    nodes, wts = gl_grid(lo, hi, panels)
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


def powers_mp(theta: float, ns) -> list:
    """n**theta for each integer n of ns, as 200-bit mpmath numbers, with
    theta the float64 value itself."""
    with mpmath.workprec(200):
        t = mpmath.mpf(theta)
        return [mpmath.mpf(int(n)) ** t for n in ns]


def circular_gaps(points) -> np.ndarray:
    """Gaps between sorted points on the circle, the last one wrapping
    round, rescaled by the point count: by np.diff on the sorted points
    with the first one shifted by 1 appended."""
    vs = np.sort(points)
    return np.diff(vs, append=vs[0] + 1.0) * vs.size


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


def quad(mu: MuMeasure, g) -> float:
    """Quadrature expectation int g(alpha) dmu(alpha), in beta variables,
    by composite Gauss-Legendre at 8192 nodes per unit of rho's support."""
    rho = mu.rho
    panels = max(1, math.ceil(rho.width * 8192 / 16))
    nodes, wts = gl_grid(rho.support_lo, rho.support_hi, panels)
    vals = rho(nodes) * (np.asarray(g(nodes ** (1.0 / mu.Theta))) / nodes)
    return float(np.dot(vals, wts))
