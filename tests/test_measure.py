"""The averaging measure: sampling, oscillatory integrals, second moments."""

import math

import mpmath
import numpy as np
import pytest

from paircorr import _pool, expsums, kernels, measure
from paircorr._pool import ResourceGuardError
from paircorr._precision import as_ld
from paircorr.expsums import _band, bprocess_constants
from paircorr.kernels import FourierTable, default_h, make_bump
from paircorr.measure import (MeasureError, MuMeasure, _stationary_scale,
                              osc_integral_single, second_moment_roff,
                              second_moment_tilde_e)

import oracles
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


def test_osc_single_diagonal_real_nonnegative(mu):
    for m in (6, 7, 9):
        val = osc_integral_single(200, 250, m, m, mu)
        assert abs(val.imag) < 1e-15
        assert val.real >= 0.0


def test_osc_single_vanishes_off_window(mu):
    # stationary points far from [N, 2N]: the h factors are identically 0
    assert osc_integral_single(200, 250, 1, 2, mu) == 0.0
    assert osc_integral_vec(200, 250, 260, 1, 2, 1, 3, mu) == 0.0


def test_osc_single_off_window_builds_no_grid(monkeypatch, mu):
    # x~_3 and x~_5 put both h windows far below beta = 1: at the phase's
    # frequency, 2.7e8, a table would take 8.6e9 nodes a unit of support
    calls = []
    original = measure.fourier
    monkeypatch.setattr(measure, "fourier", lambda *args: (
        calls.append(args), original(*args))[1])
    assert osc_integral_single(1000, 1500, 3, 5, MuMeasure(0.7)) == 0j
    assert calls == []
    # in-window: one transform
    assert osc_integral_single(200, 250, 7, 9, mu) != 0j
    assert len(calls) == 1


def test_osc_single_past_the_memory_budget_is_refused(monkeypatch, mu):
    # in-window: 7 and 9 are stationary points of j = 250 at N = 200
    want = osc_integral_single(200, 250, 7, 9, mu)
    assert want != 0j
    tables = []

    class Spy(kernels.FourierTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(kernels, "FourierTable", Spy)
    osc_integral_single(200, 250, 7, 9, mu)
    # FourierTable's count: 32 bytes a node for the table, and 56 for the
    # direct sum of its one frequency (32 and 24 for its one-row block)
    K = tables[0]._nodes.size
    for need, what in ((32 * K, "-node Fourier table"),
                       (56 * K, "-node direct sum")):
        monkeypatch.setattr(_pool, "_memory_budget", lambda: need - 1)
        with pytest.raises(ResourceGuardError,
                           match=f"{what}: need {need}, "):
            osc_integral_single(200, 250, 7, 9, mu)
    monkeypatch.setattr(_pool, "_memory_budget", lambda: 56 * K)
    assert osc_integral_single(200, 250, 7, 9, mu) == want
    # the refused table was never built
    assert len(tables) == 3


def test_osc_single_diagonal_against_mpmath(mu):
    # int rho(b) h(b x)^2 db over (1, 2 / x), x = x~_5 = 1.62 at j = 180;
    # the Gauss-Legendre rule on rho's support was 6.4e-11 off
    x = float(_stationary_scale(0.5, 200, 180, 5))
    with mpmath.workdps(30):
        def bump(b, lo, hi):
            u = (2 * b - lo - hi) / (hi - lo)
            return mpmath.exp(-1 / (1 - u * u)) if abs(u) < 1 else 0

        mass = mpmath.quad(lambda b: bump(b, 1, 2) / b, [1, 1.5, 2])
        top = 2 / mpmath.mpf(x)
        want = mpmath.quad(lambda b: bump(b, 1, 2) * bump(b * x, 1, 2) ** 2,
                           [1, (1 + top) / 2, top]) / mass
    got = osc_integral_single(200, 180, 5, 5, mu)
    assert got.imag == 0.0
    assert abs(got.real - want) <= 1e-14 * want


def test_osc_single_decay_for_off_diagonal(mu):
    N = 200
    worst = 0.0
    for j in (180, 200, 220):
        base = 0.5 * j / math.sqrt(N)
        lo = max(1, int(base / math.sqrt(2.0)) - 1)
        hi = int(2.0 * base) + 1
        for m in range(lo, hi + 1):
            for n in range(m + 1, hi + 1):
                worst = max(worst, abs(osc_integral_single(N, j, m, n, mu)))
    assert worst <= N ** -3.0


def test_osc_vec_degenerate_is_real_nonnegative(mu):
    val = osc_integral_vec(200, 250, 250, 7, 9, 7, 9, mu)
    assert abs(val.imag) < 1e-15
    assert val.real >= 0.0


def test_osc_vec_empirical_envelope(mu):
    # |I| <= 1000 / Y^3 for beat frequency Y >= 10, random admissible tuples
    N = 200
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
        I = osc_integral_vec(N, j1, j2, m1, n1, m2, n2, mu)
        assert abs(I) <= 1000.0 / Y ** 3


def test_osc_quadrature_stability(monkeypatch, mu):
    a = osc_integral_single(200, 250, 7, 9, mu)
    c = osc_integral_vec(200, 211, 223, 6, 8, 7, 9, mu)
    monkeypatch.setattr(kernels, "_NODES_PER_UNIT",
                        2 * kernels._NODES_PER_UNIT)
    monkeypatch.setattr(oracles, "_NODE_FACTOR", 2 * oracles._NODE_FACTOR)
    b = osc_integral_single(200, 250, 7, 9, mu)
    d = osc_integral_vec(200, 211, 223, 6, 8, 7, 9, mu)
    assert abs(a - b) < 1e-8
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
    est = second_moment_tilde_e(10**4, 10, mu, samples=16)
    assert est.value == 0.0 and est.stderr == 0.0
    est2 = second_moment_tilde_e(10**4, 10**4, mu, samples=32)
    assert est2.value >= 0.0
    again = second_moment_tilde_e(10**4, 10**4, mu, samples=32)
    assert again.value == est2.value and again.stderr == est2.stderr
    assert est2.samples == 32


@pytest.mark.parametrize("j", [0, -1, -10**4])
def test_second_moment_tilde_e_refuses_non_positive_j(mu, j):
    # a j below 1 has no short form; it used to average to 0 silently
    with pytest.raises(ValueError, match="j must be a positive integer"):
        second_moment_tilde_e(10**4, j, mu, samples=16)


@pytest.mark.parametrize("samples", [0, 1])
def test_second_moment_tilde_e_needs_two_samples(mu, samples):
    # one sample has no standard error, none has no mean
    with pytest.raises(ValueError, match="at least 2 samples"):
        second_moment_tilde_e(2048, 2048, mu, samples=samples)


def test_second_moment_diagonal_dominance(mu):
    total, diag = second_moment_tilde_e(10**4, 10**4, mu, samples=256,
                                        split=True)
    ratio = total.value / diag.value
    assert 0.5 <= ratio <= 2.0


def test_second_moment_roff_guards_and_empty_regime(mu, f, h):
    with pytest.raises(ValueError):
        second_moment_roff(1024, f, h, 0.05, mu, samples=50)
    est = second_moment_roff(16, f, h, 0.05, mu, samples=100)
    assert est.value <= 1e-30


def test_moment_estimate_stderr_definition(mu):
    est = second_moment_tilde_e(2048, 2048, mu, samples=64)
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

    def counted(self, n, substream):
        calls.append(substream)
        return original(self, n, substream)

    monkeypatch.setattr(MuMeasure, "sample_alphas", counted)
    assert mu.first_draws(40).tobytes() == one.tobytes()
    assert 0 < len(calls) < 40


def _spy_blocks(monkeypatch):
    # records the blocks _per_block hands to the pool
    blocks = []
    original = measure.pmap

    def spy(fn, items, workers):
        blocks.extend(items)
        return original(fn, items, workers)

    monkeypatch.setattr(measure, "pmap", spy)
    return blocks


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("pairs", [1, 700, 3000, 16530])
def test_blocks_are_consecutive_capped_and_spread(monkeypatch, workers,
                                                  pairs):
    mu = MuMeasure(0.5, seed=3)
    js = np.arange(1, pairs + 1)
    monkeypatch.setattr(measure, "_thread_workers", lambda: workers)
    for samples in (2, 5, 6, 9, 64, 100, 500):
        blocks = _spy_blocks(monkeypatch)
        got = measure._per_block(1024, mu, samples, js,
                                 lambda b: b.alphas)
        assert got.tobytes() == mu.first_draws(samples).tobytes()
        assert (np.concatenate([b.alphas for b in blocks]).tobytes()
                == got.tobytes())
        sizes = [b.alphas.size for b in blocks]
        assert all(n == 1 or n * pairs <= measure._BLOCK_PAIRS
                   for n in sizes)
        assert min(sizes) >= 1 and len(blocks) >= min(workers, samples)


def test_one_windows_pass_per_block(monkeypatch, f, h):
    calls = []
    original = expsums._windows

    def spy(spec, js):
        calls.append(len(spec.alphas))
        return original(spec, js)

    monkeypatch.setattr(expsums, "_windows", spy)
    # and any copy of the name measure itself imports
    monkeypatch.setattr(measure, "_windows", spy, raising=False)
    monkeypatch.setattr(measure, "_thread_workers", lambda: 2)
    mu = MuMeasure(0.5, seed=11)
    for run in (lambda: second_moment_tilde_e(2048, 4096, mu,
                                              samples=64),
                lambda: second_moment_roff(1024, f, h, 0.05, mu,
                                           samples=100)):
        blocks = _spy_blocks(monkeypatch)
        calls.clear()
        run()
        assert len(blocks) > 1
        assert sorted(calls) == sorted(b.alphas.size for b in blocks)


def test_moments_do_not_depend_on_the_blocks(monkeypatch, f, h):
    # one block per sample on 1, 2 and 4 threads against the default cut;
    # at N = 2**12 one call spans several chunks of its workspace, so a
    # workspace shared between pool jobs would move bits
    mu = MuMeasure(0.5, seed=17)

    def moments():
        return (second_moment_tilde_e(10**4, 2 * 10**4, mu, samples=64,
                                      split=True),
                second_moment_roff(1024, f, h, 0.05, mu, samples=100),
                second_moment_roff(2 ** 12, f, h, 0.05, mu, samples=100))

    ref = moments()
    monkeypatch.setattr(measure, "_BLOCK_PAIRS", 1)
    for workers in (1, 2, 4):
        monkeypatch.setattr(measure, "_thread_workers", lambda: workers)
        assert moments() == ref


@pytest.mark.parametrize("N, j", [(10**4, 2 * 10**4), (2048, 2048)])
def test_second_moment_tilde_e_matches_per_sample_oracle(N, j):
    mu = MuMeasure(0.5, seed=31)
    h = default_h()
    total, diag = second_moment_tilde_e(N, j, mu, samples=200, h=h,
                                        split=True)
    rows = moments_per_sample(N, mu, 200, h, np.array([j]))
    for est, col in ((total, rows[:, 0]), (diag, rows[:, 1])):
        assert est.value > 0.0
        assert est.value == pytest.approx(col.mean(), rel=1e-12)
        assert est.stderr == pytest.approx(col.std(ddof=1) / math.sqrt(200),
                                           rel=1e-12)


def test_second_moment_roff_matches_per_sample_oracle(f, h):
    N = 512
    mu = MuMeasure(0.5, seed=47)
    est = second_moment_roff(N, f, h, 0.05, mu, samples=100)
    js = _band(N, 0.05)
    fv = FourierTable(f, max_abs_freq=js[-1] / N).values(js / N).real
    rows = moments_per_sample(N, mu, 100, h, js, fv)
    assert est.value > 0.0
    assert est.value == pytest.approx(rows.mean(), rel=1e-12)
    assert est.stderr == pytest.approx(rows.std(ddof=1) / 10.0, rel=1e-12)
