"""Kernel plumbing: bumps, quadrature, transforms, periodization."""

import math
import tracemalloc

import numpy as np
import pytest

from paircorr import _pool, kernels
from paircorr._pool import ResourceGuardError
from paircorr.expsums import _band
from paircorr.kernels import (DegenerateKernelError, FourierTable, KernelError,
                              TestKernel, default_f, default_h, default_rho,
                              fourier, integrate, make_bump, normalize_rho,
                              periodize)


def test_bump_closed_form_values():
    f = make_bump(-1.0, 1.0)
    assert f(0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    g = make_bump(1.0, 2.0)
    assert g(1.0) == 0.0
    assert g(2.0) == 0.0
    assert g(1.5) == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_bump_support_is_exact_and_nonnegative():
    g = make_bump(1.0, 2.0)
    xs = np.array([-5.0, 0.0, 1.0, 2.0, 2.5, 100.0])
    assert np.all(g(xs) == 0.0)
    rng = np.random.default_rng(0)
    inside = rng.uniform(1.0, 2.0, size=256)
    assert np.all(g(inside) >= 0.0)


def test_bump_grid_continuity():
    # max jump at spacing 2^-16 * width stays below 1e-3
    g = make_bump(1.0, 2.0)
    xs = np.arange(0.5, 2.5, 2.0**-16)
    vals = g(xs)
    assert np.max(np.abs(np.diff(vals))) < 1e-3


def _masked_bump_profile(lo, hi):
    # the inside-only form: masks t twice, evaluated on gathered points
    def profile(x):
        u = (2.0 * x - lo - hi) / (hi - lo)
        t = 1.0 - u * u
        with np.errstate(divide="ignore", over="ignore"):
            safe = np.where(t > 0.0, t, 1.0)
            return np.where(t > 0.0, np.exp(-1.0 / safe), 0.0)
    return profile


def test_bump_whole_array_bytes_match_gather_path():
    rng = np.random.default_rng(3)
    for lo, hi in ((-1.0, 1.0), (1.0, 2.0), (0.1, 0.35)):
        g = make_bump(lo, hi)
        assert g.whole_array
        pad = 0.1 * (hi - lo)
        xs = rng.uniform(lo - pad, hi + pad, 2 ** 20)
        xs[::100] = lo  # 1% of the points at each endpoint
        xs[1::100] = hi
        xs[2:6] = [np.nextafter(lo, hi), np.nextafter(hi, lo),
                   -1e300, np.inf]
        refs = (TestKernel(lo, hi, _masked_bump_profile(lo, hi)),
                TestKernel(lo, hi, g.profile))
        for ref in refs:
            assert not ref.whole_array
            assert g(xs).tobytes() == ref(xs).tobytes()
            for x in (lo, 0.5 * (lo + hi), hi + 1.0):
                assert np.float64(g(np.float64(x))).tobytes() == \
                    np.float64(ref(np.float64(x))).tobytes()


def test_empty_support_rejected():
    with pytest.raises(KernelError):
        make_bump(2.0, 2.0)
    with pytest.raises(KernelError):
        TestKernel(1.0, 0.5, lambda x: x)


def test_scaled_multiplies_values():
    g = make_bump(1.0, 2.0)
    xs = np.linspace(1.05, 1.95, 11)
    assert np.allclose(g.scaled(2.5)(xs), 2.5 * g(xs), rtol=0, atol=1e-15)


def test_scaled_bump_keeps_whole_array_with_gather_bytes():
    lo, hi = 1.0, 2.0
    g = make_bump(lo, hi)
    xs = np.array([0.5, lo, np.nextafter(lo, hi), 1.25, 1.5, 1.999,
                   np.nextafter(hi, lo), hi, 3.0, -np.inf, np.inf])
    for c in (2.5, 1e-300, 1.0 / 0.6931):
        k = g.scaled(c)
        assert k.whole_array
        ref = TestKernel(lo, hi, k.profile)
        assert k(xs).tobytes() == ref(xs).tobytes()
        for x in (lo, 1.5, hi, 0.0):
            assert np.float64(k(np.float64(x))).tobytes() == \
                np.float64(ref(np.float64(x))).tobytes()
    # a negative, infinite or nan scale would not give the exact 0.0 outside
    for c in (-2.5, -0.0, math.inf, math.nan):
        assert not g.scaled(c).whole_array
    assert not TestKernel(lo, hi, g.profile).scaled(2.5).whole_array
    assert default_rho().whole_array


def test_integrate_against_trapezoid_oracle():
    g = make_bump(-1.0, 1.0)
    xs = np.linspace(-1.0, 1.0, (1 << 20) + 1)
    oracle = float(np.trapezoid(g(xs), xs))
    assert integrate(g) == pytest.approx(oracle, abs=1e-10)


def test_normalize_rho_contract():
    rho = default_rho()
    mass = integrate(rho, weight=lambda x: 1.0 / x)
    assert mass == pytest.approx(1.0, abs=1e-8)
    # idempotence and scale invariance
    again = normalize_rho(rho)
    twice = normalize_rho(rho.scaled(2.0))
    xs = np.linspace(1.0, 2.0, 257)
    assert np.max(np.abs(again(xs) - rho(xs))) < 1e-10
    assert np.max(np.abs(twice(xs) - rho(xs))) < 1e-10
    with pytest.raises(DegenerateKernelError):
        normalize_rho(make_bump(-1.0, 1.0))


def test_fourier_zero_frequency_is_integral():
    f = default_f()
    assert fourier(f, 0.0) == pytest.approx(integrate(f), rel=1e-10)


def test_fourier_even_kernel_real_and_even():
    f = default_f()
    xs = np.linspace(-8.0, 8.0, 33)
    vals = fourier(f, xs)
    assert np.max(np.abs(vals.imag)) < 1e-10
    assert np.max(np.abs(vals - vals[::-1])) < 1e-10


def test_fourier_against_high_resolution_trapezoid():
    f = make_bump(-1.0, 1.0)
    ys = np.linspace(-1.0, 1.0, (1 << 20) + 1)
    fy = f(ys)
    for x in (5.0, 0.5, 17.25):
        oracle = np.trapezoid(fy * np.exp(-2j * np.pi * x * ys), ys)
        assert abs(fourier(f, x) - oracle) < 1e-8


def test_fourier_random_frequencies_vs_doubled_resolution(monkeypatch):
    f = default_f()
    rng = np.random.default_rng(1)
    xs = rng.uniform(-30.0, 30.0, size=100)
    a = fourier(f, xs)
    monkeypatch.setattr(kernels, "_NODES_PER_UNIT", 8192)
    b = fourier(f, xs)
    assert np.max(np.abs(a - b)) < 1e-8 * (np.max(np.abs(a)) + 1.0)


def test_fourier_table_matches_direct_and_guards_band():
    f = default_f()
    table = FourierTable(f, max_abs_freq=16.0)
    xs = np.linspace(-16.0, 16.0, 101)
    assert np.max(np.abs(table.values(xs) - fourier(f, xs))) < 1e-12
    assert table.values(3.0) == pytest.approx(complex(fourier(f, 3.0)),
                                              abs=1e-12)
    with pytest.raises(ValueError):
        table.values(16.5)
    with pytest.raises(ValueError):
        table.values(np.array([0.0, 17.0]))


def test_fourier_refuses_non_finite_frequencies():
    # a NaN fails every comparison, so the band check is written to catch it,
    # and a non-finite band is refused before a grid is sized for it
    f = default_f()
    with pytest.raises(ValueError, match="outside the table band"):
        FourierTable(f, 4.0).values([0.0, math.nan])
    for x in (math.inf, [0.0, math.nan], [-math.inf, 1.0]):
        with pytest.raises(ValueError, match="not finite"):
            fourier(f, x)
    with pytest.raises(ValueError, match="not finite"):
        FourierTable(f, math.nan)


def _dense_oracle(table, xs):
    """The table's Gauss-Legendre rule as one explicit phase product."""
    xs = np.asarray(xs, dtype=np.float64)
    out = np.empty(xs.size, dtype=np.complex128)
    for i in range(0, xs.size, 256):
        phases = np.exp(-2j * np.pi * np.outer(xs[i:i + 256], table._nodes))
        out[i:i + 256] = phases @ table._wvals
    return out


@pytest.mark.parametrize("xs, nodes_per_unit, lattice", [
    (np.arange(1, 64 * 64 + 1) / 64, 4096, True),   # j / N, j <= 64 N
    (_band(2 ** 12, 0.05) / 2 ** 12, 4096, True),
    (np.arange(300, -1, -1) / 16.0, 1024, True),    # descending
    (np.arange(1, 1001) / 32.0, 1024, True),        # 1000 rows, T = 32
    (np.array([2.5]), 1024, False),
    (np.array([-3.0, 7.25]), 1024, True),
    (0.3 + np.arange(777) * 0.0123, 1024, True),    # offset from 0
    (np.random.default_rng(4).uniform(-10.0, 10.0, 500), 1024, False),
])
def test_fourier_table_matches_dense_oracle(monkeypatch, xs, nodes_per_unit,
                                            lattice):
    assert xs.size <= 4096
    monkeypatch.setattr(kernels, "_NODES_PER_UNIT", nodes_per_unit)
    table = FourierTable(default_f(), float(np.max(np.abs(xs))))
    if lattice:
        # every lattice must take the factored product, not the dense path
        table._dense = None
    assert np.max(np.abs(table.values(xs) - _dense_oracle(table, xs))) < 1e-14


# check 5's frequencies j / 512, j <= 64 * 512
CHECK5 = np.arange(1, 64 * 512 + 1) / 512
STREAMED = [
    (np.arange(300, -1, -1) / 16.0, 1024),          # descending lattice
    (np.arange(1, 1001) / 32.0, 1024),              # ascending, T = 32
    (0.3 + np.arange(5000) * 0.0123, 1024),         # offset, 71 coarse rows
    (_band(2 ** 14, 0.05) / 2 ** 14, 4096),         # 129 coarse rows
    (np.random.default_rng(5).uniform(-9.0, 9.0, 997), 1024),   # dense
]


@pytest.mark.parametrize("xs, nodes_per_unit", STREAMED)
@pytest.mark.parametrize("block, rows", [(1, 4), (1, None), (None, 8)])
def test_fourier_table_bytes_do_not_depend_on_the_blocks(
        monkeypatch, xs, nodes_per_unit, block, rows):
    monkeypatch.setattr(kernels, "_NODES_PER_UNIT", nodes_per_unit)
    table = FourierTable(default_f(), float(np.max(np.abs(xs))))
    want = table.values(xs)
    # one row of exponentials per block, and products of 4 or 8 rows: a
    # multiple of the rows a zgemm kernel takes at once
    if block is not None:
        monkeypatch.setattr(kernels, "_BLOCK", block)
    if rows is not None:
        monkeypatch.setattr(kernels, "_ROWS", rows)
    assert table.values(xs).tobytes() == want.tobytes()


def _one_shot_lattice(table, xs):
    """The factored lattice product in one zgemm: fine @ (coarse * w).T."""
    n, K = xs.size, table._nodes.size
    step = (xs[-1] - xs[0]) / (n - 1)
    T = min(math.isqrt(n - 1) + 1, kernels._FINE // K)
    starts = xs[0] + step * (T * np.arange(-(-n // T)))
    fine = np.exp(-2j * np.pi * np.outer(step * np.arange(T), table._nodes))
    coarse = np.exp(-2j * np.pi * np.outer(starts, table._nodes))
    return (fine @ (coarse * table._wvals).T).T.ravel()[:n]


@pytest.mark.parametrize("xs, nodes_per_unit",
                         [(CHECK5, 4096)] + STREAMED[:4])
def test_fourier_table_lattice_is_the_one_shot_product(monkeypatch, xs,
                                                       nodes_per_unit):
    monkeypatch.setattr(kernels, "_NODES_PER_UNIT", nodes_per_unit)
    table = FourierTable(default_f(), float(np.max(np.abs(xs))))
    assert table.values(xs).tobytes() == \
        _one_shot_lattice(table, xs).tobytes()


def test_fourier_table_check5_peak_is_the_fine_table_and_a_few_blocks():
    table = FourierTable(default_f(), 64.0)
    K = table._nodes.size
    T = math.isqrt(CHECK5.size - 1) + 1
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table.values(CHECK5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 23.9 MB of fine table (182 x 8192); the coarse buffer, one block of
    # exponentials and the output take about 5.3 MB more
    assert T * K * 16 < peak < T * K * 16 + 8 * 2 ** 20


def test_fourier_table_without_dense_path_takes_lattices_only(monkeypatch):
    monkeypatch.setattr(kernels, "_NODES_PER_UNIT", 1024)
    table = FourierTable(default_f(), 16.0)
    lattice = np.arange(-64, 65) / 8.0
    want = table.values(lattice)
    table._dense = None
    assert table.values(lattice).tobytes() == want.tobytes()
    with pytest.raises(TypeError):
        table.values(np.array([0.5, 1.0, 3.0]))


def test_fourier_table_guard_refuses_the_fine_table_unbuilt(monkeypatch):
    table = FourierTable(default_f(), 64.0)
    want = table.values(CHECK5)
    K = table._nodes.size
    T = math.isqrt(CHECK5.size - 1) + 1
    need = (T + kernels._ROWS + 1) * K * 16
    fills = []
    fill = table._fill

    def spy(xs, out):
        fills.append(xs.size)
        return fill(xs, out)

    monkeypatch.setattr(table, "_fill", spy)
    monkeypatch.setattr(_pool, "_memory_budget", lambda: need - 1)
    with pytest.raises(ResourceGuardError, match=f"need {need}, "):
        table.values(CHECK5)
    assert fills == []
    monkeypatch.setattr(_pool, "_memory_budget", lambda: need)
    assert table.values(CHECK5).tobytes() == want.tobytes()
    assert fills[0] == T


def test_fourier_table_lattice_past_band_raises(monkeypatch):
    monkeypatch.setattr(kernels, "_NODES_PER_UNIT", 1024)
    table = FourierTable(default_f(), max_abs_freq=4.0)
    with pytest.raises(ValueError):
        table.values(np.arange(0, 66) / 16.0)
    with pytest.raises(ValueError):
        table.values(-np.arange(0, 66) / 16.0)


def test_periodize_hand_values():
    f = make_bump(-1.0, 1.0)
    assert periodize(f, 4, 0.5) == 0.0
    assert periodize(f, 4, 0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_periodize_periodicity_and_wide_window_oracle():
    f = default_f()
    N = 7
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = float(rng.uniform(-3.0, 3.0))
        assert periodize(f, N, x) == pytest.approx(periodize(f, N, x + 1.0),
                                                   abs=1e-12)
        ks = np.arange(-40, 41)
        direct = float(f(N * (x + ks)).sum())
        assert periodize(f, N, x) == pytest.approx(direct, abs=1e-12)
