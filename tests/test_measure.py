"""The averaging measure: sampling, oscillatory integrals, second moments."""

import math

import numpy as np
import pytest

from paircorr import measure
from paircorr._precision import as_ld
from paircorr.expsums import SequenceSpec, _band, bprocess_constants
from paircorr.kernels import FourierTable, default_h, make_bump
from paircorr.measure import (MeasureError, MuMeasure, osc_integral_single,
                              second_moment_roff, second_moment_tilde_e)

from oracles import (alpha_range, cdf_alpha, moments_per_sample,
                     osc_integral_vec, quad)


@pytest.fixture(scope="module")
def mu():
    return MuMeasure(0.5)


def test_measure_validation():
    with pytest.raises(ValueError):
        MuMeasure(1.2)
    with pytest.raises(MeasureError):
        MuMeasure(0.5, rho=make_bump(-1.0, 1.0))
    with pytest.raises(MeasureError):
        MuMeasure(0.5, rho=make_bump(1.0, 2.0))  # unnormalized mass


def test_total_mass_and_alpha_range(mu):
    assert quad(mu, lambda a: np.ones_like(a)) == pytest.approx(1.0, abs=1e-8)
    lo, hi = alpha_range(mu)
    assert lo == 1.0 and hi == pytest.approx(2.0 ** 0.5, rel=1e-12)
    assert cdf_alpha(mu, hi) == pytest.approx(1.0, abs=1e-6)
    assert cdf_alpha(mu, lo) == 0.0


def test_samples_live_in_support(mu):
    xs = mu.sample_alphas(10**5, substream=0)
    lo, hi = alpha_range(mu)
    assert xs.min() >= lo and xs.max() <= hi
    assert hi <= 2.0


def test_sampling_is_reproducible(mu):
    a = mu.sample_alphas(64, substream=3)
    b = mu.sample_alphas(64, substream=3)
    c = mu.sample_alphas(64, substream=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_mean_matches_quadrature(mu):
    xs = mu.sample_alphas(10**6, substream=1)
    want = quad(mu, lambda a: a)
    stderr = float(xs.std(ddof=1) / math.sqrt(xs.size))
    assert abs(float(xs.mean()) - want) <= 3.0 * stderr


def test_sampler_ks_distance(mu):
    xs = np.sort(mu.sample_alphas(10**6, substream=2))
    emp = np.arange(1, xs.size + 1) / xs.size
    ks = float(np.max(np.abs(cdf_alpha(mu, xs) - emp)))
    assert ks < 0.002


def test_theta_mismatch_rejected(mu):
    with pytest.raises(ValueError):
        osc_integral_single(0.4, 200, 250, 7, 9, mu)


def test_osc_single_diagonal_real_nonnegative(mu):
    for m in (6, 7, 9):
        val = osc_integral_single(0.5, 200, 250, m, m, mu)
        assert abs(val.imag) < 1e-15
        assert val.real >= 0.0


def test_osc_single_vanishes_off_window(mu):
    # stationary points far from [N, 2N]: the h factors are identically 0
    assert osc_integral_single(0.5, 200, 250, 1, 2, mu) == 0.0
    assert osc_integral_vec(0.5, 200, 250, 260, 1, 2, 1, 3, mu) == 0.0


def test_osc_single_decay_for_off_diagonal(mu):
    N = 200
    worst = 0.0
    for j in (180, 200, 220):
        base = 0.5 * j / math.sqrt(N)
        lo = max(1, int(base / math.sqrt(2.0)) - 1)
        hi = int(2.0 * base) + 1
        for m in range(lo, hi + 1):
            for n in range(m + 1, hi + 1):
                worst = max(worst, abs(osc_integral_single(0.5, N, j, m, n, mu)))
    assert worst <= N ** -3.0


def test_osc_vec_degenerate_is_real_nonnegative(mu):
    val = osc_integral_vec(0.5, 200, 250, 250, 7, 9, 7, 9, mu)
    assert abs(val.imag) < 1e-15
    assert val.real >= 0.0


def test_osc_vec_empirical_envelope(mu):
    # |I| <= 1000 / Y^3 for beat frequency Y >= 10, random admissible tuples
    theta, N = 0.5, 200
    TH = mu.Theta
    rng = np.random.default_rng(7)
    got = 0
    while got < 100:
        j1, j2 = (int(v) for v in rng.integers(N, 2 * N, size=2))
        b1, b2 = 0.5 * j1 / math.sqrt(N), 0.5 * j2 / math.sqrt(N)
        m1 = int(rng.integers(max(1, int(b1 * 0.8)), int(b1 * 1.4) + 2))
        n1 = m1 + int(rng.integers(1, 4))
        m2 = int(rng.integers(max(1, int(b2 * 0.8)), int(b2 * 1.4) + 2))
        n2 = m2 + int(rng.integers(1, 4))
        e = 1.0 - TH
        z1 = float(as_ld(m1) ** e - as_ld(n1) ** e)
        z2 = float(as_ld(m2) ** e - as_ld(n2) ** e)
        Y = abs(j1 ** TH * z1 - j2 ** TH * z2)
        if Y < 10.0:
            continue
        got += 1
        I = osc_integral_vec(theta, N, j1, j2, m1, n1, m2, n2, mu)
        assert abs(I) <= 1000.0 / Y ** 3


def test_osc_quadrature_stability(mu):
    a = osc_integral_single(0.5, 200, 250, 7, 9, mu, node_factor=8)
    b = osc_integral_single(0.5, 200, 250, 7, 9, mu, node_factor=16)
    assert abs(a - b) < 1e-8
    c = osc_integral_vec(0.5, 200, 211, 223, 6, 8, 7, 9, mu, node_factor=8)
    d = osc_integral_vec(0.5, 200, 211, 223, 6, 8, 7, 9, mu, node_factor=16)
    assert abs(c - d) < 1e-8


def test_phase_frequency_floor(mu):
    # |c2 j^Theta (m^(1-Theta) - n^(1-Theta))| * width([1,2]) >= N/100
    theta, N = 0.5, 500
    TH = mu.Theta
    c2 = bprocess_constants(theta).c2
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        j = int(rng.integers(int(N**0.95), int(N**1.05)) + 1)
        mlo = max(1, math.ceil(theta * (2 * N) ** (theta - 1.0) * j))
        mhi = math.floor(2.0 * theta * N ** (theta - 1.0) * j)
        if mhi - mlo < 1:
            continue
        m = int(rng.integers(mlo, mhi))
        n = int(rng.integers(mlo, mhi + 1))
        if m == n:
            n = m + 1
        z = abs(float(as_ld(m) ** (1.0 - TH) - as_ld(n) ** (1.0 - TH)))
        assert c2 * j**TH * z >= N * 1e-2
        checked += 1


def test_second_moment_tilde_e_basics(mu):
    # below the window threshold the short sum is identically zero
    est = second_moment_tilde_e(0.5, 10**4, 10, mu, samples=16)
    assert est.value == 0.0 and est.stderr == 0.0
    est2 = second_moment_tilde_e(0.5, 10**4, 10**4, mu, samples=32)
    assert est2.value >= 0.0
    again = second_moment_tilde_e(0.5, 10**4, 10**4, mu, samples=32)
    assert again.value == est2.value and again.stderr == est2.stderr
    assert est2.samples == 32


def test_second_moment_diagonal_dominance(mu):
    total, diag = second_moment_tilde_e(0.5, 10**4, 10**4, mu, samples=256,
                                        split=True)
    ratio = total.value / diag.value
    assert 0.5 <= ratio <= 2.0


def test_second_moment_roff_guards_and_empty_regime(mu, f, h):
    with pytest.raises(ValueError):
        second_moment_roff(0.5, 1024, f, h, 0.05, mu, samples=50)
    est = second_moment_roff(0.5, 16, f, h, 0.05, mu, samples=100)
    assert est.value <= 1e-30


def test_moment_estimate_stderr_definition(mu):
    est = second_moment_tilde_e(0.5, 2048, 2048, mu, samples=64)
    # reconstruct the per-sample values from the same substreams
    from paircorr.expsums import SequenceSpec
    from paircorr.expsums import _short_components
    from paircorr.kernels import default_h
    h = default_h()
    js = np.array([2048], dtype=np.int64)
    vals = []
    for i in range(64):
        alpha = float(mu.sample_alphas(1, substream=i)[0])
        abs2, _, _ = _short_components(SequenceSpec(0.5, alpha, 2048), h, js)
        vals.append(abs2[0])
    vals = np.array(vals)
    assert est.value == pytest.approx(float(vals.mean()), rel=1e-12)
    assert est.stderr == pytest.approx(float(vals.std(ddof=1) / 8.0), rel=1e-12)


def test_first_draws_replay_single_draws():
    mu = MuMeasure(0.5, seed=2024)
    one = np.array([mu.sample_alphas(1, substream=i)[0] for i in range(300)])
    assert mu.first_draws(300).tobytes() == one.tobytes()
    # substream 7 by hand: the Philox stream jumped 8 times from the seed,
    # 64 candidates, then 64 heights; the first candidate under the density
    gen = np.random.Generator(np.random.Philox(key=2024).jumped(8))
    beta = gen.uniform(mu.rho.support_lo, mu.rho.support_hi, size=64)
    height = gen.uniform(0.0, mu._pdf_max, size=64)
    first = beta[height <= mu.pdf_beta(beta)][0]
    assert one[7] == first ** (1.0 / mu.Theta)


def test_first_draws_fall_back_when_a_round_rejects_all(monkeypatch):
    # a 50x envelope accepts about 1.2% of candidates: roughly half of the
    # first rounds of 64 keep nothing and go through sample_alphas
    mu = MuMeasure(0.5, seed=5)
    mu._pdf_max *= 50.0
    one = np.array([mu.sample_alphas(1, substream=i)[0] for i in range(40)])
    calls = []
    original = MuMeasure.sample_alphas

    def counted(self, n, substream=None):
        calls.append(substream)
        return original(self, n, substream)

    monkeypatch.setattr(MuMeasure, "sample_alphas", counted)
    assert mu.first_draws(40).tobytes() == one.tobytes()
    assert 0 < len(calls) < 40


def test_block_bounds_cap_and_spread():
    counts = np.full(2000, 50)
    for workers in (1, 2, 4):
        bounds = measure._block_bounds(counts, workers)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == 2000 and (sizes > 0).all()
        assert len(sizes) >= workers
    big = np.array([10, measure._BLOCK_TERMS + 1, 3, 4])
    bounds = measure._block_bounds(big, 2)
    held = [int(big[a:b].sum()) for a, b in zip(bounds[:-1], bounds[1:])]
    assert all(t <= measure._BLOCK_TERMS or b - a == 1
               for t, a, b in zip(held, bounds[:-1], bounds[1:]))
    assert measure._block_bounds(np.zeros(5, np.int64), 2) == [0, 5]


def test_moments_do_not_depend_on_the_blocks(monkeypatch, f, h):
    # one block per sample on one thread against the default cut
    mu = MuMeasure(0.5, seed=17)
    ref = (second_moment_tilde_e(0.5, 10**4, 2 * 10**4, mu, samples=64,
                                 split=True),
           second_moment_roff(0.5, 1024, f, h, 0.05, mu, samples=100))
    monkeypatch.setattr(measure, "_BLOCK_TERMS", 1)
    monkeypatch.setattr(measure, "_thread_workers", lambda: 1)
    got = (second_moment_tilde_e(0.5, 10**4, 2 * 10**4, mu, samples=64,
                                 split=True),
           second_moment_roff(0.5, 1024, f, h, 0.05, mu, samples=100))
    assert got == ref


@pytest.mark.parametrize("N, j", [(10**4, 2 * 10**4), (2048, 2048)])
def test_second_moment_tilde_e_matches_per_sample_oracle(N, j):
    mu = MuMeasure(0.5, seed=31)
    h = default_h()
    total, diag = second_moment_tilde_e(0.5, N, j, mu, samples=200, h=h,
                                        split=True)
    rows = moments_per_sample(0.5, N, mu, 200, h, np.array([j]))
    for est, col in ((total, rows[:, 0]), (diag, rows[:, 1])):
        assert est.value > 0.0
        assert est.value == pytest.approx(col.mean(), rel=1e-12)
        assert est.stderr == pytest.approx(col.std(ddof=1) / math.sqrt(200),
                                           rel=1e-12)


def test_second_moment_roff_matches_per_sample_oracle(f, h):
    N = 512
    mu = MuMeasure(0.5, seed=47)
    est = second_moment_roff(0.5, N, f, h, 0.05, mu, samples=100)
    js = _band(SequenceSpec(0.5, 1.0, N), 0.05)
    fv = FourierTable(f, max_abs_freq=js[-1] / N).values(js / N).real
    rows = moments_per_sample(0.5, N, mu, 100, h, js, fv)
    assert est.value > 0.0
    assert est.value == pytest.approx(rows.mean(), rel=1e-12)
    assert est.stderr == pytest.approx(rows.std(ddof=1) / 10.0, rel=1e-12)
