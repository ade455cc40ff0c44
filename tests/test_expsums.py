"""Exponential sums, the short-sum replacement, and the assembly identities."""

import cmath
import math
import sys
import threading

import mpmath
import numpy as np
import pytest

from paircorr import expsums, stats
from paircorr._pool import _CHUNK
from paircorr._precision import _pow_ld, as_ld, csum, e_frac, frac
from paircorr.expsums import (DilateBlock, SequenceSpec, _band,
                              _direct_abs2, _index_range, _nufft_abs2,
                              _short_components, _short_terms, _windows,
                              bprocess_constants, exp_sum_bprocess,
                              exp_sum_direct, exp_sum_pair, pair_corr_smooth,
                              s_sum, s_tilde_parts)
from paircorr.kernels import TestKernel, fourier, integrate, make_bump
from paircorr.measure import MuMeasure
from paircorr.stats import fractional_parts

from oracles import diagonal_w_term, e, r_off_pairs, stationary_point


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


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_pooled_direct_sums_keep_each_rows_bits(monkeypatch, h, workers):
    # j counts off the chunk grid and below one chunk, rows longer than a
    # chunk (one row a job), and an empty index range; every row against
    # the same row computed alone, by bytes, and against the exactly
    # rounded sum.  A short switch interval mixes the jobs up.
    monkeypatch.setattr(expsums, "_thread_workers", lambda: workers)
    cases = [(SequenceSpec(0.5, 1.37, 512), 3 * (_CHUNK // 511) + 17),
             (SequenceSpec(0.3, 1.999, 1000), 5),
             (SequenceSpec(0.7, 1.0, _CHUNK + 5), 3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for spec, count in cases:
            js = np.arange(1, 40 * count, 40, dtype=np.int64)
            got = _direct_abs2(spec, h, js)
            alone = np.concatenate([_direct_abs2(spec, h, js[k:k + 1])
                                    for k in range(count)])
            assert got.shape == (count,)
            assert got.tobytes() == alone.tobytes()
            ys = _index_range(spec, h)
            H1 = float(np.sum(h(ys / spec.N)))
            for j, e2 in zip(js.tolist(), got.tolist()):
                ref = abs(exp_sum_direct(spec, h, j)) ** 2
                assert abs(e2 - ref) <= 1e-13 * H1 ** 2
    finally:
        sys.setswitchinterval(interval)
    narrow = make_bump(1.0, 1.001)
    assert _index_range(SequenceSpec(0.5, 1.5, 2), narrow).size == 0
    empty = _direct_abs2(SequenceSpec(0.5, 1.5, 2), narrow, np.arange(1, 9))
    assert empty.tobytes() == np.zeros(8).tobytes()


@pytest.mark.parametrize("workers", [2, 4])
def test_pooled_direct_sums_run_on_several_threads(monkeypatch, h, workers):
    monkeypatch.setattr(expsums, "_thread_workers", lambda: workers)
    # the first two chunks wait for each other, so two threads must run them
    barrier = threading.Barrier(2, timeout=30)
    lock = threading.Lock()
    seen = []
    frac = expsums.frac

    def spy(x):
        with lock:
            seen.append(threading.get_ident())
            first = len(seen) <= 2
        if first:
            barrier.wait()
        return frac(x)

    monkeypatch.setattr(expsums, "frac", spy)
    spec = SequenceSpec(0.5, 1.5, 512)
    rows = _CHUNK // 511
    threads = threading.active_count()
    _direct_abs2(spec, h, np.arange(1, 4 * rows + 1))
    assert threading.active_count() == threads
    assert len(seen) == 4 and len(set(seen)) >= 2


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
def test_nufft_abs2_matches_the_direct_sums(h, theta):
    # every |E_j|^2 against the dense product, from one node (N = 2) up,
    # j_max = 64 N (check 5's range) and 1000, which is no power of two
    for N in (2, 3, 17, 348, 512, 1024):
        spec = SequenceSpec(theta, 1.37, N)
        H1 = float(np.sum(h(_index_range(spec, h) / N)))
        for j_max in (1, 2, 7, 1000, 64 * N):
            got = _nufft_abs2(spec, h, j_max)
            want = _direct_abs2(spec, h, np.arange(1, j_max + 1))
            assert got.shape == (j_max,)
            assert np.abs(got - want).max() <= 1e-13 * H1 ** 2


def test_nufft_abs2_against_mpmath_past_1e8_phases(h):
    # phases alpha * j * y**theta reach 1.1e8; there the direct sums carry
    # their own long-double error, so the yardstick is 50-digit mpmath
    spec = SequenceSpec(0.7, 1.37, 2700)
    ys = _index_range(spec, h)
    w = h(ys / spec.N)
    H1 = float(w.sum())
    got = _nufft_abs2(spec, h, 170_001)
    with mpmath.workdps(50):
        a, th = mpmath.mpf(spec.alpha), mpmath.mpf(spec.theta)
        u = [a * mpmath.power(int(y), th) for y in ys.tolist()]
        for j in (169_990, 170_000, 170_001):
            E = mpmath.fsum(wy * mpmath.expjpi(2 * j * uy)
                            for wy, uy in zip(w.tolist(), u))
            assert abs(got[j - 1] - float(abs(E) ** 2)) <= 1e-13 * H1 ** 2


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


def test_s_sum_runs_no_direct_sums(monkeypatch, f, h):
    def never(*args):
        raise AssertionError("s_sum must not take the dense product")

    monkeypatch.setattr(expsums, "_direct_abs2", never)
    assert s_sum(SequenceSpec(0.5, 1.37, 512), f, h, 64 * 512) > 0.0
    # an h narrower than the index spacing selects no y, and every site
    # that reads the power table returns its empty value
    narrow = make_bump(1.0, 1.001)
    spec = SequenceSpec(0.5, 1.5, 2)
    assert s_sum(spec, f, narrow, 8) == 0.0
    assert _nufft_abs2(spec, narrow, 8).tolist() == [0.0] * 8
    assert _direct_abs2(spec, narrow, np.arange(1, 9)).tolist() == [0.0] * 8
    assert exp_sum_direct(spec, narrow, 3) == 0j
    assert pair_corr_smooth(spec, f, narrow) == 0.0


def test_s_sum_identity_at_n_4096(f, h):
    # check 5's R identity at J = 64 N = 262,144, which the dense product
    # would take 1.1e9 phases for
    N = 2 ** 12
    spec = SequenceSpec(0.5, 1.37, N)
    hw = h(np.arange(N, 2 * N + 1) / N)
    H1, H2 = float(hw.sum()), float((hw ** 2).sum())
    route = (s_sum(spec, f, h, 64 * N)
             + fourier(f, 0.0).real * H1 ** 2 / N ** 2 - f(0.0) * H2 / N)
    sweep = pair_corr_smooth(spec, f, h)
    assert route == pytest.approx(sweep, rel=1e-9)


def test_s_sum_manual_reconstruction(f, h):
    spec = SequenceSpec(0.5, 1.23, 64)
    js = np.arange(1, 257)
    fv = fourier(f, js / spec.N).real
    e2 = np.array([abs(exp_sum_direct(spec, h, int(j))) ** 2 for j in js])
    hand = 2.0 / spec.N**2 * float(np.dot(fv, e2))
    assert s_sum(spec, f, h, 256) == pytest.approx(hand, rel=1e-8)


def test_pair_corr_smooth_sweep_equals_brute(f, h):
    rng = np.random.default_rng(7)
    specs = [SequenceSpec(0.5, float(rng.uniform(1.0, 2.0)), 512)
             for _ in range(3)]
    # small N: at N = 2 the radius 1/2 takes the brute path
    specs += [SequenceSpec(theta, float(rng.uniform(1.0, 2.0)), N)
              for N in range(2, 17) for theta in (0.3, 0.5)]
    # alpha = 1, theta = 1/2: the 13 squares in (1024, 2048) all sit at 0,
    # a cluster 12 offsets deep
    specs.append(SequenceSpec(0.5, 1.0, 1024))
    # draw 69 of default_rng(0).uniform(1, 2): R = 6.0e-19, which a brute
    # form that subtracts its diagonal after the sum loses to cancellation
    specs.append(SequenceSpec(0.5, 1.1054952795702295, 7))
    for spec in specs:
        a = pair_corr_smooth(spec, f, h)
        b = pair_corr_smooth(spec, f, h, method="brute")
        assert a == pytest.approx(b, rel=1e-13, abs=0.0)
    # a wide kernel: about 40 neighbours a point
    wide = make_bump(-20.0, 20.0)
    spec = SequenceSpec(0.7, 1.37, 512)
    assert pair_corr_smooth(spec, wide, h) == pytest.approx(
        pair_corr_smooth(spec, wide, h, method="brute"), rel=1e-12)


def test_pair_corr_smooth_rejects_an_unknown_method(monkeypatch, f, h):
    # before the long-double powers and their reduction are built
    def never(*args):
        raise AssertionError("the powers must not be built")

    monkeypatch.setattr(stats, "_pow_ld", never)
    with pytest.raises(ValueError, match="method"):
        pair_corr_smooth(SequenceSpec(0.5, 1.5, 512), f, h, method="pairs")


def test_sites_read_the_inline_reduction_to_the_bit(h):
    # check 3's dilates at N = 2**14, check 5's at N = 512 and 4096, and
    # check 10's window [1, 10**6] at alpha = 1, against the inline
    # frac(as_ld(alpha) * _pow_ld(ys, theta)) each site used to compute
    cases = [(0.5, float(al), SequenceSpec(0.5, float(al), 2 ** 14))
             for al in MuMeasure(0.5, seed=0).sample_alphas(5, substream=2)]
    cases += [(0.5, 1.37, SequenceSpec(0.5, 1.37, N)) for N in (512, 4096)]
    cases.append((0.5, 1.0, None))
    for theta, alpha, spec in cases:
        ys = (np.arange(1, 10 ** 6 + 1) if spec is None
              else _index_range(spec, h))
        inline = frac(as_ld(alpha) * _pow_ld(ys, theta))
        ps = fractional_parts(theta, alpha, ys[0], ys[-1])
        assert ps.points.tobytes() == inline.tobytes()
        # _nufft_abs2's remainder, by truncation in place of floor
        x = as_ld(alpha) * stats._powers(theta, ys[0], ys[-1], False)
        r = x - x.astype(np.int64)
        assert np.array_equal(r, x - np.floor(x))
        assert r.astype(np.float64).tobytes() == inline.tobytes()
        if spec is not None:
            for j in (1, 7 * spec.N):
                ph = frac(as_ld(alpha) * j * _pow_ld(ys, theta))
                assert exp_sum_direct(spec, h, j) == csum(
                    h(ys / spec.N) * e_frac(ph))


def test_one_power_table_per_theta_and_n(monkeypatch, f, h):
    powers = []

    def spy(where):
        def pow_ld(values, expo):
            powers.append((where, expo, int(np.size(values))))
            return _pow_ld(values, expo)
        return pow_ld

    monkeypatch.setattr(stats, "_pow_ld", spy("stats"))
    monkeypatch.setattr(expsums, "_pow_ld", spy("expsums"))
    expected = []
    for theta, N in ((0.3, 512), (0.7, 1000)):
        for j in range(1, 11):
            exp_sum_pair(SequenceSpec(theta, 1.37, N), h, j * N)
        for al in np.linspace(1.0, 2.0, 5):
            pair_corr_smooth(SequenceSpec(theta, float(al), N), f, h)
        ys = _index_range(SequenceSpec(theta, 1.0, N), h)
        expected.append(("stats", theta, ys.size))
    # the short form's m**(1 - Theta) are the only other powers taken
    assert [p for p in powers if p[1] in (0.3, 0.7)] == expected


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
            _, one_amp, one_ph, _ = _short_terms(spec, h, np.array([j]))
            assert amp[mine].tobytes() == one_amp.tobytes()
            assert ph[mine].tobytes() == one_ph.tobytes()
            # e(.) from numpy's exp, not the library's e_frac
            pref = c1 * (spec.alpha * j) ** (spec.Theta / 2.0)
            short = pref * csum(amp[mine] * e(ph[mine]))
            assert (abs(short - exp_sum_bprocess(spec, h, j))
                    <= 2e-15 * abs(pref) * np.abs(amp[mine]).sum())


def _short_cases():
    """(block, js) cases for the chunked short form: one dilate at N = 2**12
    over the eps = 0.05 band (4.9e4 terms, two chunks of 2**15), and
    several dilates with j = 1, whose window is empty, and windows of up to
    a few dozen terms."""
    rng = np.random.default_rng(2026)
    one = DilateBlock(0.5, np.array([1.37]), 2 ** 12)
    several = DilateBlock(0.3, np.array([1.0, 1.5, 2.0]), 1000)
    mixed = DilateBlock(0.7, rng.uniform(1.0, 2.0, 2), 2 ** 12)
    return [(one, _band(SequenceSpec(0.5, 1.0, 2 ** 12), 0.05)),
            (several, np.arange(1, 1200)),
            (mixed, np.unique(rng.integers(1, 2 ** 13, 300)))]


@pytest.mark.parametrize("chunk", [1, 7, 2 ** 15])
def test_short_components_bytes_do_not_depend_on_the_chunk(monkeypatch, h,
                                                           chunk):
    ranges = []
    terms = expsums._short_terms

    def spy(spec, h, js, windows=None, start=0, stop=None):
        ranges.append((start, stop))
        return terms(spec, h, js, windows, start, stop)

    chunks, empty, long = [], False, False
    for block, js in _short_cases():
        monkeypatch.setattr(expsums, "_CHUNK", 2 ** 62)
        whole = _short_components(block, h, js)
        monkeypatch.setattr(expsums, "_CHUNK", chunk)
        monkeypatch.setattr(expsums, "_short_terms", spy)
        ranges.clear()
        got = _short_components(block, h, js)
        monkeypatch.setattr(expsums, "_short_terms", terms)
        for a, b in zip(got[:2] + got[2], whole[:2] + whole[2]):
            assert a.tobytes() == b.tobytes()
        lens = got[2][2]
        empty |= bool((lens == 0).any())
        long |= bool(lens.max() > chunk)
        chunks.append(len(ranges))
        # the ranges tile the pairs; a chunk's pairs but its last hold
        # fewer than `chunk` terms
        ends = [b for _, b in ranges]
        assert [a for a, _ in ranges] == [0] + ends[:-1]
        assert ends[-1] == lens.size
        for a, b in ranges:
            assert lens[a:b - 1].sum() < chunk
        # each pair equals its own single-pair run
        J = len(js)
        picks = np.unique(np.concatenate((
            np.linspace(0, lens.size - 1, 25).astype(int),
            [np.argmax(lens), np.argmin(lens)],
            [b - 1 for _, b in ranges[:5]])))
        for p in picks.tolist():
            spec = SequenceSpec(block.theta, float(block.alphas[p // J]),
                                block.N)
            one = _short_components(spec, h, js[p % J:p % J + 1])
            assert got[0][p:p + 1].tobytes() == one[0].tobytes()
            assert got[1][p:p + 1].tobytes() == one[1].tobytes()
    assert empty and chunks[0] > 1
    assert long or chunk == 2 ** 15  # windows longer than a chunk


def test_block_of_dilates_validation():
    with pytest.raises(ValueError):
        DilateBlock(0.5, np.array([1.0, 2.5]), 100)
    with pytest.raises(ValueError):
        DilateBlock(1.5, np.array([1.0]), 100)
    with pytest.raises(ValueError):
        DilateBlock(0.5, np.ones((2, 2)), 100)
    assert SequenceSpec(0.5, 1.25, 100).alphas.tolist() == [1.25]
