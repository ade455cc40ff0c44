"""End-to-end checklist over the whole library.

Each test prints one summary line (always visible, even under capture) so a
plain pytest run doubles as a status report.  Two checks are expected to
fail at desk scale and are marked strict-xfail: the theta=0.3 pair
correlation is still far from its limit at N=1e5, and the square-free
sqrt(n) pair correlation at s=0.5 has not converged at N=1e6.  Both
failures are deterministic; the printed lines carry the measured numbers.
"""

import math
import time

import numpy as np
import pytest

from paircorr.diophantine import (DioInstance, build_zset, count_duq,
                                  duq_bound_check, robert_sargos_count)
from paircorr.expsums import (SequenceSpec, exp_sum_pair, pair_corr_smooth,
                              s_sum, s_tilde_parts)
from paircorr.kernels import fourier, integrate
from paircorr.measure import (MuMeasure, osc_integral_single,
                              second_moment_roff, second_moment_tilde_e)
from paircorr.stats import (fractional_parts, gap_distribution,
                            pair_corr_count, uniform_points)

from oracles import r_off_pairs


def _report(capsys, num: int, label: str, ok: bool, detail: str, t0: float):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{num:2d}] {label:<34s} {status}  {detail} "
              f"({time.time() - t0:.1f}s)")


def test_01_iid_uniform_reference(capsys):
    t0 = time.time()
    worst = 0.0
    for seed in range(5):
        est = pair_corr_count(uniform_points(10**5, seed=seed), 1.0)
        worst = max(worst, abs(est.normalized - 2.0))
    ok = worst <= 0.05
    _report(capsys, 1, "iid uniform pair correlation", ok,
            f"worst |R2(1) - 2| = {worst:.4f} (tol 0.05)", t0)
    assert ok
    assert time.time() - t0 < 5.0


@pytest.mark.xfail(
    strict=True,
    reason="theta=0.3 is still pre-asymptotic at N=1e5: the pair "
           "correlation over (N, 2N] runs ~12% below 2s")
def test_02_sampled_alpha_pair_correlation(capsys):
    t0 = time.time()
    N = 10**5
    devs = {}
    for theta in (0.3, 0.5, 0.7):
        mu = MuMeasure(theta, seed=0)
        worst = 0.0
        for al in mu.sample_alphas(5, substream=1):
            ps = fractional_parts(theta, float(al), N + 1, 2 * N)
            for s in (0.5, 1.0, 2.0):
                est = pair_corr_count(ps, s)
                worst = max(worst, abs(est.normalized - est.poisson_ref)
                            / est.poisson_ref)
        devs[theta] = worst
    ok = all(v <= 0.10 for v in devs.values())
    detail = " ".join(f"theta={t}: {v:.3f}" for t, v in devs.items())
    _report(capsys, 2, "sampled-alpha pair correlation", ok,
            detail + " (tol 0.10)", t0)
    assert ok
    assert time.time() - t0 < 120.0


def test_03_smoothed_pair_correlation(capsys, f, h):
    t0 = time.time()
    mu = MuMeasure(0.5, seed=0)
    ref = integrate(f) * integrate(h) ** 2
    worst = 0.0
    for al in mu.sample_alphas(5, substream=2):
        spec = SequenceSpec(0.5, float(al), 2**14)
        worst = max(worst, abs(pair_corr_smooth(spec, f, h) - ref) / ref)
    ok = worst <= 0.05
    _report(capsys, 3, "smoothed pair correlation", ok,
            f"worst rel dev = {worst:.4f} (tol 0.05)", t0)
    assert ok
    assert time.time() - t0 < 120.0


def test_04_short_sum_error_constant(capsys, h):
    t0 = time.time()
    rng = np.random.default_rng(2025)
    worst = 0.0
    for theta in (0.3, 0.5, 0.7):
        for N in (10**3, 10**4):
            for _ in range(20):
                al = float(rng.uniform(1.0, 2.0))
                j = int(rng.integers(int(math.ceil(N**0.6)), int(N**1.1)))
                pair = exp_sum_pair(SequenceSpec(theta, al, N), h, j)
                c = (abs(pair.direct - pair.short) * math.sqrt(j)
                     / N ** (1.0 - theta / 2.0))
                worst = max(worst, c)
    ok = worst <= 10.0
    _report(capsys, 4, "short-sum error constant", ok,
            f"worst const = {worst:.5f} (bound 10)", t0)
    assert ok
    assert time.time() - t0 < 60.0


def test_05_exact_identities(capsys, f, h):
    t0 = time.time()
    spec = SequenceSpec(0.5, 1.37, 512)
    N = spec.N
    hw = h(np.arange(N, 2 * N + 1) / N)
    H1, H2 = float(hw.sum()), float((hw**2).sum())
    route = (s_sum(spec, f, h, 64 * N)
             + fourier(f, 0.0).real * H1**2 / N**2 - f(0.0) * H2 / N)
    direct = pair_corr_smooth(spec, f, h, method="brute")
    rel = abs(route - direct) / abs(direct)
    spec4 = SequenceSpec(0.5, 1.37, 4096)
    parts = s_tilde_parts(spec4, f, h, 0.05)
    gap = abs(parts.total - parts.diagonal
              - r_off_pairs(spec4, f, h, 0.05))
    ok = rel <= 1e-6 and gap <= 1e-8
    _report(capsys, 5, "exact sum identities", ok,
            f"R rel = {rel:.1e} (tol 1e-6), diag-cancel = {gap:.1e} "
            f"(tol 1e-8)", t0)
    assert ok
    assert time.time() - t0 < 60.0


def test_06_majorant_family(capsys, bs):
    t0 = time.time()
    ts = np.linspace(-bs.t_max, bs.t_max, 1 << 18)
    xs = np.linspace(-2.0 * bs.x_max, 2.0 * bs.x_max, 1 << 20)
    core = np.linspace(-1.0, 1.0, 1 << 16)
    phi = bs.phi(ts)
    phi_min = float(phi.min())
    tail_max = float(np.max(np.abs(phi[np.abs(ts) > 1.0])))
    phi_hat_min = float(np.min(bs.phi_hat(xs)))
    span = np.linspace(-3.0, 3.0, 1 << 16)
    tent_gap = float(np.min(bs.phi_hat(span)
                            - np.maximum(2.0 - np.abs(span), 0.0)))
    core_min = float(np.min(bs.phi_hat(core)))
    ok = (phi_min >= 0.0 and phi_hat_min >= -1e-9 and tent_gap >= -1e-3
          and core_min >= 1.0 - 1e-3 and tail_max <= 1e-3)
    _report(capsys, 6, "majorant family inequalities", ok,
            f"min phi = {phi_min:.1e}, min phi_hat = {phi_hat_min:.1e}, "
            f"tent gap = {tent_gap:.1e}, core min = {core_min:.4f}, "
            f"tail = {tail_max:.1e}", t0)
    assert ok
    assert time.time() - t0 < 30.0


def test_07_oscillatory_integral_decay(capsys):
    t0 = time.time()
    mu = MuMeasure(0.5, seed=0)
    N = 200
    worst_off, min_diag, n_pairs = 0.0, np.inf, 0
    for j in (180, 200, 220):
        lo = math.ceil(0.5 * j * (2 * N) ** -0.5)
        hi = math.floor(0.5 * math.sqrt(2.0) * j * N**-0.5)
        for m in range(lo, hi + 1):
            diag = osc_integral_single(N, j, m, m, mu)
            min_diag = min(min_diag, diag.real)
            assert abs(diag.imag) <= 1e-12
            for n in range(lo, hi + 1):
                if n != m:
                    worst_off = max(worst_off, abs(
                        osc_integral_single(N, j, m, n, mu)))
                    n_pairs += 1
    ok = worst_off <= N**-3 and min_diag >= 0.0 and n_pairs > 0
    _report(capsys, 7, "oscillatory integral decay", ok,
            f"max offdiag = {worst_off:.1e} (bound {N**-3:.2e}, "
            f"{n_pairs} pairs), min diag = {min_diag:.1e}", t0)
    assert ok
    assert time.time() - t0 < 30.0


def test_08_second_moments(capsys, f, h):
    t0 = time.time()
    mu = MuMeasure(0.5, seed=0)
    N = 10**4
    ratios = [second_moment_tilde_e(N, j, mu, samples=2000).value / N
              for j in (N, 2 * N, 4 * N)]
    Ns = (2**10, 2**12, 2**14)
    vals = [second_moment_roff(n, f, h, 0.05, mu, samples=128).value
            for n in Ns]
    slope = float(np.polyfit(np.log(Ns), np.log(vals), 1)[0])
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    ok = max(ratios) <= 20.0 and decreasing and slope <= -0.2
    _report(capsys, 8, "second moment bounds", ok,
            f"max value/N = {max(ratios):.4f} (bound 20), variance slope = "
            f"{slope:.3f} (bound -0.2, decreasing: {decreasing})", t0)
    assert ok
    assert time.time() - t0 < 300.0


def test_09_counting_bounds(capsys):
    t0 = time.time()
    micro = DioInstance(theta=0.5, j_lo=4, j_hi=6, m_lo=2, m_hi=4,
                        gap_lo=1, gap_hi=2, threshold=1.0)
    micro_count = count_duq(micro)
    zs = build_zset(micro)
    prods = np.array([float(j) ** micro.Theta * z
                      for j in micro.js for z in zs])
    d = np.abs(prods[:, None] - prods[None, :])
    naive = int((d <= micro.threshold).sum())
    rng = np.random.default_rng(77)
    sweep_ok = True
    for _ in range(8):
        m_lo = int(rng.integers(2, 10))
        inst = DioInstance(
            theta=0.5, j_lo=int(rng.integers(2, 20)),
            j_hi=int(rng.integers(21, 28)),
            m_lo=m_lo, m_hi=m_lo + int(rng.integers(3, 12)),
            gap_lo=int(rng.integers(1, 3)), gap_hi=int(rng.integers(3, 6)),
            threshold=float(rng.uniform(0.0, 3.0)))
        zi = build_zset(inst)
        pi = np.array([float(j) ** inst.Theta * z
                       for j in inst.js for z in zi])
        ref = 0 if pi.size == 0 else int(
            (np.abs(pi[:, None] - pi[None, :]) <= inst.threshold).sum())
        sweep_ok = sweep_ok and count_duq(inst) == ref
    rs_ok = True
    for M in (4, 8, 16, 32):
        for gamma in (0.0, M**-2.0, 1.0 / M, 1.0):
            c = robert_sargos_count(M, -1.0, gamma)
            rs_ok = rs_ok and c <= 32.0 * M**0.2 * (M**2 + gamma * M**4)
            if gamma > 0.0:
                # any positive threshold keeps the diagonal quadruples
                rs_ok = rs_ok and c >= M * M
    rows = duq_bound_check(0.5, 256, 0.1)
    duq_max = max(r["duq_ratio"] for r in rows)
    zdiag_max = max(r["zdiag_ratio"] for r in rows)
    grid_ok = duq_max <= 50.0 and zdiag_max <= 50.0
    ok = micro_count == 8 == naive and sweep_ok and rs_ok and grid_ok
    _report(capsys, 9, "counting bounds", ok,
            f"micro = {micro_count} (want 8), sweep==naive: {sweep_ok}, "
            f"envelope: {rs_ok}, grid ratios = {duq_max:.2f}/{zdiag_max:.2f} "
            f"(bound 50)", t0)
    assert ok
    assert time.time() - t0 < 300.0


@pytest.mark.xfail(
    strict=True,
    reason="square-free sqrt(n) pair correlation at s=0.5 is still ~8% "
           "high at N=1e6, and the square-driven excess at s=0.25 is ~3x, "
           "short of 5x")
def test_10_sqrt_n_phenomena(capsys):
    t0 = time.time()
    ps = fractional_parts(0.5, 1.0, 1, 10**6)
    gh = gap_distribution(ps, bins=80)
    flat = float(gh.density[gh.midpoints <= 0.5].mean())
    flat_err = abs(flat - 6.0 / math.pi**2)
    ps_sf = fractional_parts(0.5, 1.0, 1, 10**6, exclude_squares=True)
    devs = []
    for s in (0.5, 1.0, 2.0):
        est = pair_corr_count(ps_sf, s)
        devs.append(abs(est.normalized - est.poisson_ref) / est.poisson_ref)
    blow = pair_corr_count(ps, 0.25).normalized / 0.5
    ok = flat_err <= 0.02 and max(devs) <= 0.05 and blow >= 5.0
    _report(capsys, 10, "sqrt(n) gap and square effects", ok,
            f"flat err = {flat_err:.4f} (tol 0.02), square-free devs = "
            + "/".join(f"{d:.3f}" for d in devs)
            + f" (tol 0.05), s=0.25 excess = {blow:.2f}x (want 5x)", t0)
    assert ok
    assert time.time() - t0 < 180.0
