"""Exponential sums, the short-sum replacement, and the assembly identities."""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from paircorr import _pool, expsums, stats
from paircorr._pool import _CHUNK, ResourceGuardError
from paircorr._precision import _pow_ld, as_ld, csum, e_frac, frac
from paircorr.expsums import (SequenceSpec, _band, _direct_abs2,
                              _index_range, _nufft_abs2,
                              _short_components, _short_terms,
                              _tilde_from_values, _windows,
                              bprocess_constants, exp_sum_bprocess,
                              exp_sum_direct, exp_sum_pair, pair_corr_smooth,
                              s_sum, s_tilde_parts)
from paircorr.kernels import TestKernel, fourier, integrate, make_bump
from paircorr.measure import MuMeasure
from paircorr.stats import fractional_parts

from oracles import (diagonal_w_term, e, r_off_pairs, short_components_flat,
                     stationary_point, tilde_from_values_fsum)


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
    # chunk (one row a chunk), and an empty index range; every row against
    # the same row computed alone, by bytes, and against the exactly
    # rounded sum.  The oracle is serial: whatever size the library's pool
    # takes, its bits must not move.
    monkeypatch.setattr(_pool, "_thread_workers", lambda: workers)
    cases = [(SequenceSpec(0.5, 1.37, 512), 3 * (_CHUNK // 511) + 17),
             (SequenceSpec(0.3, 1.999, 1000), 5),
             (SequenceSpec(0.7, 1.0, _CHUNK + 5), 3)]
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
    narrow = make_bump(1.0, 1.001)
    assert _index_range(SequenceSpec(0.5, 1.5, 2), narrow).size == 0
    empty = _direct_abs2(SequenceSpec(0.5, 1.5, 2), narrow, np.arange(1, 9))
    assert empty.tobytes() == np.zeros(8).tobytes()


def test_direct_sum_refuses_a_negative_j(h):
    # by name, before a negative phase reaches frac's domain refusal; j = 0
    # is E_0 = H1, the sum of the weights
    spec = SequenceSpec(0.5, 1.37, 64)
    for j in (-1, -40, np.int64(-3)):
        with pytest.raises(ValueError,
                           match="j must be a nonnegative integer"):
            exp_sum_direct(spec, h, j)
    H1 = float(np.sum(h(_index_range(spec, h) / spec.N)))
    assert abs(exp_sum_direct(spec, h, 0) - H1) <= 1e-15 * H1


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


def _nufft_need(spec, h, j_max):
    """_nufft_abs2's byte count: its grid cells, its j, its nodes and the
    nodes of one spreading chunk."""
    M = max(64, 1 << (expsums._OVERSAMPLE * (2 * j_max + 2) - 1).bit_length())
    nodes = _index_range(spec, h).size
    return (M * expsums._NUFFT_BYTES_PER_CELL
            + j_max * expsums._NUFFT_BYTES_PER_J
            + nodes * expsums._NUFFT_BYTES_PER_NODE
            + min(nodes, expsums._NUFFT_CHUNK)
            * expsums._NUFFT_BYTES_PER_SPREAD)


@pytest.mark.parametrize("N, j_max", [(17, 7), (512, 64 * 512),
                                      (4096, 1000), (32768, 100)])
def test_nufft_abs2_byte_count_covers_its_measured_peak(h, N, j_max):
    spec = SequenceSpec(0.5, 1.37, N)
    # one untraced call on another window loads scipy.fft, whose first
    # import would otherwise be counted as the transform's peak
    _nufft_abs2(SequenceSpec(0.5, 1.37, 16), h, 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _nufft_abs2(spec, h, j_max)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 64 kB for the few Python objects a call holds outside its arrays
    assert peak <= _nufft_need(spec, h, j_max) + 2 ** 16


def test_nufft_abs2_past_the_memory_budget_is_refused_unbuilt(h,
                                                             monkeypatch):
    spec = SequenceSpec(0.5, 1.37, 512)
    want = _nufft_abs2(spec, h, 64 * 512)
    need = _nufft_need(spec, h, 64 * 512)
    calls = []
    window = expsums._h_window

    def spy(spec, h):
        calls.append(spec.N)
        return window(spec, h)

    monkeypatch.setattr(expsums, "_h_window", spy)
    monkeypatch.setattr(_pool, "_memory_budget", lambda: need - 1)
    with pytest.raises(ResourceGuardError, match=f"need {need}, "):
        _nufft_abs2(spec, h, 64 * 512)
    assert calls == []
    # at exactly its need the transform is built, with the same bits
    monkeypatch.setattr(_pool, "_memory_budget", lambda: need)
    assert _nufft_abs2(spec, h, 64 * 512).tobytes() == want.tobytes()
    assert calls == [512]


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_nufft_abs2_bytes_do_not_depend_on_the_chunk(h, monkeypatch, chunk):
    # np.add.at adds each chunk's nodes in node order, so any chunk gives
    # the sums of one bincount over every node
    for N in (17, 2048):
        spec = SequenceSpec(0.5, 1.37, N)
        want = _nufft_abs2(spec, h, 300)
        with monkeypatch.context() as m:
            m.setattr(expsums, "_NUFFT_CHUNK", chunk)
            assert _nufft_abs2(spec, h, 300).tobytes() == want.tobytes()


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
    # small N, down to N = 2, where h(./N) holds the one y = 3 and R is 0
    # before either path is taken
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


def _literal_pair_corr(spec, f, h):
    """R as its double sum over x != y, each F_N(d) summed over k."""
    ys = np.arange(1, 3 * spec.N)
    ys = ys[h(ys / spec.N) > 0.0]
    v = frac(as_ld(spec.alpha) * _pow_ld(ys, spec.theta))
    hw = h(ys / spec.N)
    total = []
    for a in range(ys.size):
        for b in range(ys.size):
            if a != b:
                d = v[a] - v[b]
                total += [hw[a] * hw[b] * f(spec.N * (d + k))
                          for k in range(-3, 4)]
    return math.fsum(total) / spec.N


@pytest.mark.parametrize("N", [16, 17, 18, 20])
def test_pair_corr_smooth_near_the_half_circle(monkeypatch, h, N):
    # supp f(N .) reaches r = 8/N: r = 1/2 at N = 16 takes the quadratic
    # form, r from 0.47 to 0.4 the sweep over offsets
    wide = make_bump(-8.0, 8.0)
    spec = SequenceSpec(0.5, 1.37, N)
    calls = []
    original = expsums.periodize

    def spy(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(expsums, "periodize", spy)
    auto = pair_corr_smooth(spec, wide, h)
    assert calls == ([N] if N == 16 else [])
    brute = pair_corr_smooth(spec, wide, h, method="brute")
    assert auto == pytest.approx(brute, rel=1e-13, abs=0.0)
    assert auto == pytest.approx(_literal_pair_corr(spec, wide, h),
                                 rel=1e-12, abs=0.0)


def test_quadratic_pair_corr_past_the_memory_budget_is_refused(
        monkeypatch, f, h):
    spec = SequenceSpec(0.5, 1.37, 64)
    M = _index_range(spec, h).size
    need = M * M * expsums._BYTES_PER_PAIR
    want = pair_corr_smooth(spec, f, h, method="brute")
    monkeypatch.setattr(_pool, "_memory_budget", lambda: need - 1)
    with pytest.raises(ResourceGuardError, match=f"need {need}, "):
        pair_corr_smooth(spec, f, h, method="brute")
    with pytest.raises(ResourceGuardError, match=f"need {need}, "):
        pair_corr_smooth(spec, make_bump(-32.0, 32.0), h)
    # the sweep keeps no pair table, and the budget itself is enough
    assert pair_corr_smooth(spec, f, h) == pytest.approx(want, rel=1e-13)
    monkeypatch.setattr(_pool, "_memory_budget", lambda: need)
    assert pair_corr_smooth(spec, f, h, method="brute") == want


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

    kernel = stats._anchored_pow

    def anchored(ns, theta, anchors, out):
        powers.append(("stats", theta, int(ns.size)))
        kernel(ns, theta, anchors, out)

    monkeypatch.setattr(stats, "_pow_ld", spy("stats"))
    monkeypatch.setattr(stats, "_anchored_pow", anchored)
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


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("N", [2 ** 10, 2 ** 12])
def test_tilde_from_values_matches_the_fsum_assembly(f, h, theta, N):
    # one exact_row_sums call per block against math.fsum per dilate, to
    # the bit, on blocks of 1, 3 and 8 dilates
    js = _band(N, 0.05)
    fv = fourier(f, js / N).real
    rng = np.random.default_rng(N + int(100 * theta))
    for size in (1, 3, 8):
        block = SequenceSpec(theta, rng.uniform(1.0, 2.0, size), N)
        got = _tilde_from_values(block, h, js, fv)
        want = tilde_from_values_fsum(block, h, js, fv)
        assert len(got) == size and got == want
        for g, w in zip(got, want):
            assert (np.array([g.total, g.diagonal, g.off_diagonal]).tobytes()
                    == np.array([w.total, w.diagonal, w.off_diagonal])
                    .tobytes())
            assert type(g.total) is float and type(g.off_diagonal) is float


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
    block = SequenceSpec(theta, alphas, N)
    abs2, diag, (lo, hi, lens) = _short_components(block, h, js)
    amp, ph = _short_terms(block, h, js)
    assert abs2.shape == diag.shape == lens.shape == (len(alphas) * J,)
    assert amp.shape == ph.shape == (lens.max(), len(alphas) * J)
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
            # pair p's column: its window, then cells of amplitude 0
            mine = slice(0, lens[p])
            assert not amp[lens[p]:, p].any()
            one_amp, one_ph = _short_terms(spec, h, np.array([j]))
            assert one_amp.shape == (lens[p], 1)
            assert amp[mine, p].tobytes() == one_amp[:, 0].tobytes()
            assert ph[mine, p].tobytes() == one_ph[:, 0].tobytes()
            # e(.) from numpy's exp, not the library's e_frac
            pref = c1 * (spec.alpha * j) ** (spec.Theta / 2.0)
            short = pref * csum(amp[mine, p] * e(ph[mine, p]))
            assert (abs(short - exp_sum_bprocess(spec, h, j))
                    <= 2e-15 * abs(pref) * np.abs(amp[mine, p]).sum())


def _short_cases():
    """(block, js) cases for the chunked short form: one dilate at N = 2**12
    over the eps = 0.05 band (4.9e4 terms, two chunks of 2**15), and
    several dilates with j = 1, whose window is empty, and windows of up to
    a few dozen terms."""
    rng = np.random.default_rng(2026)
    one = SequenceSpec(0.5, np.array([1.37]), 2 ** 12)
    several = SequenceSpec(0.3, np.array([1.0, 1.5, 2.0]), 1000)
    mixed = SequenceSpec(0.7, rng.uniform(1.0, 2.0, 2), 2 ** 12)
    return [(one, _band(2 ** 12, 0.05)),
            (several, np.arange(1, 1200)),
            (mixed, np.unique(rng.integers(1, 2 ** 13, 300)))]


def _lone_and_long_cases():
    """(block, js) cases beside _short_cases(): a lone pair whose window of
    8 or more terms makes a one-column rectangle, and windows longer than
    _CHUNK (34,452 terms at j = 2**20), alone and between short ones."""
    lone = SequenceSpec(0.5, np.array([1.37]), 2 ** 10)
    long = SequenceSpec(0.7, np.array([2.0, 1.21]), 2 ** 10)
    return [(lone, np.array([3000])),
            (long, np.array([2 ** 20])),
            (long, np.array([1, 5, 2 ** 20, 700, 2 ** 19]))]


def test_short_components_match_the_flat_bincount_oracle(h):
    # the rectangle's column sums against one flat table and bincount, to
    # the bit, at theta 0.3, 0.5 and 0.7 and N up to 2**14
    cases = _short_cases() + _lone_and_long_cases()
    for theta in (0.3, 0.5, 0.7):
        block = SequenceSpec(theta, np.array([1.0, 1.61, 2.0]), 2 ** 14)
        cases.append((block, _band(2 ** 14, 0.05)))
    lone = long = empty = False
    for block, js in cases:
        abs2, diag, (_, _, lens) = _short_components(block, h, js)
        want_abs2, want_diag = short_components_flat(block, h, js)
        assert abs2.tobytes() == want_abs2.tobytes()
        assert diag.tobytes() == want_diag.tobytes()
        lone |= bool(lens.size == 1 and lens[0] >= 8)
        long |= bool(lens.max() > _CHUNK)
        empty |= bool((lens == 0).any())
    assert lone and long and empty


@pytest.mark.parametrize("chunk", [1, 7, 2 ** 15])
def test_short_components_bytes_do_not_depend_on_the_chunk(monkeypatch, h,
                                                           chunk):
    ranges = []
    terms = expsums._short_terms

    def spy(spec, h, js, windows=None, start=0, stop=None):
        out = terms(spec, h, js, windows, start, stop)
        ranges.append((start, stop, out[0].shape))
        return out

    chunks, empty, long = [], False, False
    for block, js in _short_cases() + _lone_and_long_cases():
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
        # the ranges tile the pairs; a rectangle, its longest window (one
        # row at least) times its pairs, holds at most `chunk` cells
        # unless it is one pair
        ends = [b for _, b, _ in ranges]
        assert [a for a, _, _ in ranges] == [0] + ends[:-1]
        assert ends[-1] == lens.size
        for a, b, shape in ranges:
            assert shape == (lens[a:b].max(), b - a)
            assert max(1, shape[0]) * shape[1] <= chunk or b - a == 1
        # each pair equals its own single-pair run
        J = len(js)
        picks = np.unique(np.concatenate((
            np.linspace(0, lens.size - 1, 25).astype(int),
            [np.argmax(lens), np.argmin(lens)],
            [b - 1 for _, b, _ in ranges[:5]])))
        for p in picks.tolist():
            spec = SequenceSpec(block.theta, float(block.alphas[p // J]),
                                block.N)
            one = _short_components(spec, h, js[p % J:p % J + 1])
            assert got[0][p:p + 1].tobytes() == one[0].tobytes()
            assert got[1][p:p + 1].tobytes() == one[1].tobytes()
    assert empty and long and chunks[0] > 1


def test_short_components_chunks_share_one_workspace(monkeypatch, h):
    # every chunk's amplitudes and reduced phases are views of the same
    # buffers, held alive together here, so no chunk allocates its cells
    outs = []
    terms = expsums._short_terms

    def spy(spec, h, js, windows=None, start=0, stop=None):
        out = terms(spec, h, js, windows, start, stop)
        outs.append(out)
        return out

    monkeypatch.setattr(expsums, "_short_terms", spy)
    block = SequenceSpec(0.5, np.array([1.37]), 2 ** 14)
    _short_components(block, h, _band(2 ** 14, 0.05))
    assert len(outs) > 10
    amp0, ph0 = outs[0]
    assert not np.shares_memory(amp0, ph0)
    for amp, ph in outs:
        assert amp.ctypes.data == amp0.ctypes.data
        assert ph.ctypes.data == ph0.ctypes.data
        assert np.shares_memory(amp, amp0) and np.shares_memory(ph, ph0)


# peak bytes of _short_components under tracemalloc: a cell of the largest
# rectangle (64 while e_frac runs: the workspace's 40, which are the index,
# x_m, the amplitude and the long-double phase, whose bytes the reduced
# phase and e(.) reuse, and e_frac's three temporaries of 8) and a
# (dilate, j) pair (48: the windows and the sums)
_SHORT_BYTES_PER_CELL = 112
_SHORT_BYTES_PER_PAIR = 64


def test_short_components_peak_is_a_chunk_of_cells(h):
    block = SequenceSpec(0.5, np.array([1.37]), 2 ** 14)
    js = _band(2 ** 14, 0.05)
    tracemalloc.start()
    try:
        _, _, (_, _, lens) = _short_components(block, h, js)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 4.0e5 terms in 16 rectangles; the peak is 2.9 MB of 4.7 MB
    assert lens.sum() > 12 * _CHUNK
    assert (peak <= _SHORT_BYTES_PER_CELL * _CHUNK
            + _SHORT_BYTES_PER_PAIR * lens.size)


def test_block_of_dilates_validation():
    with pytest.raises(ValueError):
        SequenceSpec(0.5, np.array([1.0, 2.5]), 100)
    with pytest.raises(ValueError):
        SequenceSpec(1.5, np.array([1.0]), 100)
    with pytest.raises(ValueError):
        SequenceSpec(0.5, np.ones((2, 2)), 100)
    assert SequenceSpec(0.5, 1.25, 100).alphas.tolist() == [1.25]
    # a float alpha stays the float it was; an array becomes float64
    assert type(SequenceSpec(0.5, 1.25, 100).alpha) is float
    # a block keeps its dilates as a tuple of floats, so specs compare and
    # hash by value
    block = SequenceSpec(0.5, [1, 2], 100)
    assert block.alpha == (1.0, 2.0) and block.alphas.dtype == np.float64
    same = SequenceSpec(0.5, np.array([1.0, 2.0]), 100)
    assert block == same and hash(block) == hash(same)
    assert block != SequenceSpec(0.5, np.array([1.0, 1.5]), 100)
    with pytest.raises(ValueError):
        SequenceSpec(0.5, np.array([1.0, 1.5]), 1)


def test_public_entry_points_refuse_a_block_of_dilates(h):
    f = make_bump(-1.0, 1.0)
    block = SequenceSpec(0.5, np.array([1.2, 1.7]), 64)
    for call in (lambda: exp_sum_direct(block, h, 3),
                 lambda: exp_sum_bprocess(block, h, 3),
                 lambda: exp_sum_pair(block, h, 3),
                 lambda: s_sum(block, f, h, 8),
                 lambda: s_tilde_parts(block, f, h),
                 lambda: pair_corr_smooth(block, f, h)):
        with pytest.raises(ValueError, match="single dilate"):
            call()


def test_theta_near_one_refuses_a_scale_past_float64():
    # at theta = 0.999, Theta = 1000: exp_sum_bprocess takes
    # (alpha j)**(Theta/2), which float64 holds at alpha j = 4 (2**1000)
    # but not at 6; _short_components takes (alpha j)**Theta, past float64
    # at alpha j = 4 and held at 2
    h = make_bump(1.0, 2.0)
    spec = SequenceSpec(0.999, 2.0, 10)
    # the window of j = 2 is empty
    assert exp_sum_bprocess(spec, h, 2) == 0
    with pytest.raises(ValueError, match="theta = 0.999"):
        exp_sum_bprocess(spec, h, 3)
    assert _short_components(spec, h, np.array([1]))[0].tolist() == [0.0]
    for j in (2, 3):
        with pytest.raises(ValueError, match="theta = 0.999"):
            _short_components(spec, h, np.array([1, j]))
    assert math.isfinite(abs(exp_sum_bprocess(spec, h, 1)))
    assert np.isfinite(_short_components(spec, h, np.array([1]))[0]).all()
