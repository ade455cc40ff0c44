"""Exponential sums, the short-sum replacement, and the assembly identities."""

import cmath
import math

import numpy as np
import pytest

from paircorr import expsums
from paircorr._precision import csum, e_frac
from paircorr.expsums import (DilateBlock, SequenceSpec, _short_components,
                              _short_terms, _windows, bprocess_constants,
                              exp_sum_bprocess, exp_sum_direct, exp_sum_pair,
                              pair_corr_smooth, s_sum, s_tilde_parts)
from paircorr.kernels import TestKernel, fourier, integrate, make_bump

from oracles import diagonal_w_term, r_off_pairs, stationary_point


def test_spec_validation():
    with pytest.raises(ValueError):
        SequenceSpec(1.0, 1.5, 100)
    with pytest.raises(ValueError):
        SequenceSpec(0.5, 2.5, 100)
    with pytest.raises(ValueError):
        SequenceSpec(0.5, 1.5, 1)
    spec = SequenceSpec(0.25, 1.5, 100)
    assert abs((1.0 - 1.0 / spec.Theta) - spec.theta) < 1e-15


def test_bprocess_constants_closed_form():
    c = bprocess_constants(0.5)
    assert abs(c.c1) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert cmath.phase(c.c1) == pytest.approx(-math.pi / 4.0, abs=1e-12)
    assert c.c2 == pytest.approx(0.25, abs=1e-15)
    for theta in np.arange(0.1, 0.95, 0.1):
        assert bprocess_constants(float(theta)).c2 > 0.0


def test_direct_sum_hand_example(h):
    # theta=1/2, alpha=1, N=2: only y=3 survives the window
    spec = SequenceSpec(0.5, 1.0, 2)
    want = math.exp(-1.0) * cmath.exp(2j * math.pi * math.sqrt(3.0))
    assert abs(exp_sum_direct(spec, h, 1) - want) < 1e-12


def test_direct_sum_zero_mode_and_trivial_bound(h):
    spec = SequenceSpec(0.5, 1.37, 500)
    e0 = exp_sum_direct(spec, h, 0)
    assert e0.imag == 0.0 and e0.real > 0.0
    rng = np.random.default_rng(4)
    for j in rng.integers(1, 5000, size=10):
        assert abs(exp_sum_direct(spec, h, int(j))) <= e0.real + 1e-9


def test_direct_sum_conjugate_symmetry(h):
    # E_{N,-j} = conj(E_{N,j}), via an independent sign-flipped loop
    spec = SequenceSpec(0.5, 1.61, 300)
    j = 37
    lib = exp_sum_direct(spec, h, j)
    ys = np.arange(301, 600)
    hw = h(ys / spec.N)
    neg = np.dot(hw, np.exp(-2j * np.pi * spec.alpha * j * np.sqrt(ys)))
    assert abs(lib.conjugate() - neg) < 1e-8


def test_direct_sum_brute_oracle(h):
    # plain double-precision loop; phases stay small at this N
    rng = np.random.default_rng(5)
    for _ in range(5):
        al = float(rng.uniform(1.0, 2.0))
        j = int(rng.integers(1, 40))
        spec = SequenceSpec(0.5, al, 64)
        acc = 0.0 + 0.0j
        for y in range(65, 128):
            acc += float(h(y / 64.0)) * cmath.exp(2j * math.pi * al * j * math.sqrt(y))
        assert abs(exp_sum_direct(spec, h, j) - acc) < 1e-9


def test_stationary_point_values_and_defining_equation():
    spec = SequenceSpec(0.5, 1.0, 100)
    assert stationary_point(spec, 10, 1) == pytest.approx(25.0, rel=1e-14)
    assert stationary_point(spec, 10, 5) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        stationary_point(spec, 10, 0)
    rng = np.random.default_rng(6)
    for _ in range(10):
        s2 = SequenceSpec(float(rng.uniform(0.2, 0.8)),
                          float(rng.uniform(1.0, 2.0)), 100)
        j = int(rng.integers(1, 1000))
        m = int(rng.integers(1, 50))
        x = stationary_point(s2, j, m)
        phase_deriv = s2.theta * s2.alpha * j * x ** (s2.theta - 1.0)
        assert phase_deriv == pytest.approx(float(m), rel=1e-10)


def test_short_sum_window_matches_h_support_oracle(h):
    spec = SequenceSpec(0.5, 1.44, 10**4)
    j = 2 * 10**4
    (lo,), (hi,), _ = _windows(spec, np.array([j]))
    for m in range(max(1, lo - 3), hi + 4):
        x = stationary_point(spec, j, m) / spec.N
        if lo <= m <= hi:
            assert 1.0 - 1e-12 <= x <= 2.0 + 1e-12
        elif 1.0 < x < 2.0:
            pytest.fail(f"m={m} inside h support but outside window")


def test_short_sum_vanishes_below_threshold(h):
    spec = SequenceSpec(0.5, 1.0, 10**4)
    assert exp_sum_bprocess(spec, h, 10) == 0.0
    pair = exp_sum_pair(spec, h, 10)
    assert pair.short == 0.0 and pair.m_hi < pair.m_lo


def test_short_form_scalar_and_batched_routes_agree(h):
    # one E~_j against its row of the batched table, empty windows included
    rng = np.random.default_rng(9)
    empty = 0
    for theta in (0.3, 0.5, 0.7):
        for N in (16, 1000):
            for _ in range(8):
                spec = SequenceSpec(theta, float(rng.uniform(1.0, 2.0)), N)
                j = int(rng.integers(1, int(N ** 1.1)))
                abs2 = _short_components(spec, h, np.array([j]))[0][0]
                short = exp_sum_bprocess(spec, h, j)
                assert abs(short) ** 2 == pytest.approx(abs2, rel=1e-12,
                                                        abs=1e-300)
                lo, hi, lens = _windows(spec, np.array([j]))
                pair = exp_sum_pair(spec, h, j)
                assert (pair.m_lo, pair.m_hi) == (lo[0], hi[0])
                empty += int(lens[0] == 0)
            with pytest.raises(ValueError):
                exp_sum_bprocess(spec, h, 0)
            with pytest.raises(ValueError):
                exp_sum_pair(spec, h, 0)
    assert empty > 0


def test_bprocess_error_law_random_grid(h):
    # ratio |E - E~| sqrt(j) / N^(1-theta/2) over random (alpha, j)
    rng = np.random.default_rng(3)
    worst = 0.0
    for theta in (0.3, 0.5, 0.7):
        for N in (10**3, 10**4):
            for _ in range(20):
                al = float(rng.uniform(1.0, 2.0))
                j = int(rng.integers(int(N**0.6), int(N**1.1)))
                pair = exp_sum_pair(SequenceSpec(theta, al, N), h, j)
                worst = max(worst, pair.ratio)
    assert worst <= 10.0
    # the measured constant is far smaller; catch regressions loudly
    assert worst <= 0.05


def test_s_sum_edges_and_sign(f, h):
    spec = SequenceSpec(0.5, 1.5, 128)
    assert s_sum(spec, f, h, 0) == 0.0
    with pytest.raises(ValueError):
        s_sum(spec, f, h, -1)
    js = np.arange(1, 33)
    fv = fourier(f, js / spec.N).real
    assert np.all(fv > 0.0)
    assert s_sum(spec, f, h, 32) >= 0.0


def test_s_sum_manual_reconstruction(f, h):
    spec = SequenceSpec(0.5, 1.23, 64)
    js = np.arange(1, 257)
    fv = fourier(f, js / spec.N).real
    e2 = np.array([abs(exp_sum_direct(spec, h, int(j))) ** 2 for j in js])
    hand = 2.0 / spec.N**2 * float(np.dot(fv, e2))
    assert s_sum(spec, f, h, 256) == pytest.approx(hand, rel=1e-8)


def test_pair_corr_smooth_sweep_equals_brute(f, h):
    rng = np.random.default_rng(7)
    for _ in range(3):
        spec = SequenceSpec(0.5, float(rng.uniform(1.0, 2.0)), 512)
        a = pair_corr_smooth(spec, f, h)
        b = pair_corr_smooth(spec, f, h, method="brute")
        assert a == pytest.approx(b, abs=1e-12)


def test_pair_corr_smooth_rejects_an_unknown_method(monkeypatch, f, h):
    # before the long-double powers and their reduction are built
    def never(*args):
        raise AssertionError("the powers must not be built")

    monkeypatch.setattr(expsums, "_pow_ld", never)
    with pytest.raises(ValueError, match="method"):
        pair_corr_smooth(SequenceSpec(0.5, 1.5, 512), f, h, method="pairs")


def test_pair_corr_smooth_zero_kernels(h):
    spec = SequenceSpec(0.5, 1.5, 256)
    zero_f = TestKernel(-1.0, 1.0, lambda x: np.zeros_like(x))
    zero_h = TestKernel(1.0, 2.0, lambda x: np.zeros_like(x))
    assert pair_corr_smooth(spec, zero_f, make_bump(1.0, 2.0)) == 0.0
    assert pair_corr_smooth(spec, make_bump(-1.0, 1.0), zero_h) == 0.0


def test_r_off_zero_when_windows_have_no_pairs(f, h):
    # at N=16 these alphas leave every stationary window with < 2 indices
    for al in (1.0, 1.5):
        assert r_off_pairs(SequenceSpec(0.5, al, 16), f, h) == 0.0
    # alpha near 2 squeezes a 2-index window in, but one weight sits at the
    # very edge of the h support: tiny, and no longer exactly zero
    val = r_off_pairs(SequenceSpec(0.5, 1.99, 16), f, h)
    assert val != 0.0 and abs(val) < 1e-10


def test_r_off_two_routes_agree(f, h):
    rng = np.random.default_rng(8)
    for _ in range(3):
        spec = SequenceSpec(0.5, float(rng.uniform(1.0, 2.0)), 256)
        a = r_off_pairs(spec, f, h)
        b = s_tilde_parts(spec, f, h).off_diagonal
        assert a == pytest.approx(b, abs=1e-12)


def test_r_off_matches_smooth_minus_main_term(f, h):
    # |R - int f (int h)^2 - R_off| small at moderate N
    spec = SequenceSpec(0.5, 1.37, 4096)
    R = pair_corr_smooth(spec, f, h)
    ref = integrate(f) * integrate(h) ** 2
    ro = s_tilde_parts(spec, f, h).off_diagonal
    assert abs(R - ref - ro) <= 0.05


def test_tilde_decomposition_is_consistent(f, h):
    spec = SequenceSpec(0.5, 1.81, 1024)
    parts = s_tilde_parts(spec, f, h)
    assert parts.total == pytest.approx(parts.diagonal + parts.off_diagonal,
                                        abs=1e-15)
    assert parts.j_lo >= 1 and parts.j_hi >= parts.j_lo


def test_diagonal_w_term_asymptotics(h):
    # W = (j/2)^2 / N at theta = 1/2
    spec = SequenceSpec(0.5, 1.0, 10**3)
    d = diagonal_w_term(spec, 2000, h)
    assert d.W == pytest.approx(1000.0, rel=1e-12)
    assert not d.regime_warning
    assert abs(d.value - d.main_term) / d.main_term <= 1e-2
    d2 = diagonal_w_term(spec, 2829, h)  # W ~ 2W_1
    assert d.main_term / d2.main_term == pytest.approx(2.0, rel=1e-2)
    small = diagonal_w_term(spec, 40, h)
    assert small.regime_warning


def test_diagonal_w_term_zero_kernel():
    zero_h = TestKernel(1.0, 2.0, lambda x: np.zeros_like(x))
    d = diagonal_w_term(SequenceSpec(0.5, 1.0, 10**3), 2000, zero_h)
    assert d.value == 0.0 and d.main_term == 0.0


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("N", [16, 1000, 2 ** 12])
def test_block_of_dilates_keeps_each_samples_bits(h, theta, N):
    # a block's rows against one SequenceSpec per dilate, compared by bytes
    rng = np.random.default_rng(int(1000 * theta) + N)
    alphas = np.concatenate(([1.0, 2.0], rng.uniform(1.0, 2.0, size=4)))
    js = np.unique(np.concatenate((
        [1, 2], rng.integers(1, int(N ** 1.1) + 2, size=40))))
    J = len(js)
    block = DilateBlock(theta, alphas, N)
    abs2, diag, (lo, hi, lens) = _short_components(block, h, js)
    rep, amp, ph, _ = _short_terms(block, h, js)
    assert abs2.shape == diag.shape == lens.shape == (len(alphas) * J,)
    assert (lens == 0).any() and (lens > 0).any()
    c1 = bprocess_constants(theta).c1
    for d, alpha in enumerate(alphas):
        spec = SequenceSpec(theta, float(alpha), N)
        rows = slice(d * J, (d + 1) * J)
        one_abs2, one_diag, (one_lo, one_hi, _) = _short_components(
            spec, h, js)
        assert abs2[rows].tobytes() == one_abs2.tobytes()
        assert diag[rows].tobytes() == one_diag.tobytes()
        for k, j in enumerate(js.tolist()):
            p = d * J + k
            assert (one_lo[k], one_hi[k]) == (lo[p], hi[p])
            mine = rep == p
            short = (c1 * (spec.alpha * j) ** (spec.Theta / 2.0)
                     * csum(amp[mine] * e_frac(ph[mine])))
            assert (np.complex128(short).tobytes()
                    == np.complex128(exp_sum_bprocess(spec, h, j)).tobytes())


def test_block_of_dilates_validation():
    with pytest.raises(ValueError):
        DilateBlock(0.5, np.array([1.0, 2.5]), 100)
    with pytest.raises(ValueError):
        DilateBlock(1.5, np.array([1.0]), 100)
    with pytest.raises(ValueError):
        DilateBlock(0.5, np.ones((2, 2)), 100)
    assert SequenceSpec(0.5, 1.25, 100).alphas.tolist() == [1.25]
