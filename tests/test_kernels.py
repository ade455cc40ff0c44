"""Kernel plumbing: bumps, quadrature, transforms, periodization."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from paircorr import _pool, kernels
from paircorr._pool import ResourceGuardError
from paircorr._precision import e_frac
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


def _bump_integral(lo, hi):
    """int of make_bump(lo, hi) to 30 digits: (hi - lo) / 2 times the
    integral of exp(-1 / (1 - u^2)) over (-1, 1), the float ends exact."""
    with mpmath.workdps(30):
        unit = mpmath.quad(lambda u: mpmath.exp(-1 / (1 - u * u)), [-1, 0, 1])
        return (mpmath.mpf(hi) - mpmath.mpf(lo)) / 2 * unit


@pytest.mark.parametrize("lo, hi", [(0.0, 1e-3), (1.0, 1.001), (0.0, 1e-4),
                                    (-1.0, 1.0), (1.0, 2.0)])
def test_integrate_bumps_against_mpmath(lo, hi):
    # the narrow supports took one 16-node Gauss-Legendre panel, 1e-5 off;
    # (-1, 1) and (1, 2) are the default f and h
    want = _bump_integral(lo, hi)
    assert abs(integrate(make_bump(lo, hi)) - want) <= 1e-15 * want


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


def _fourier_mp(lo: float, hi: float, x: mpmath.mpf) -> complex:
    """int of the (lo, hi) bump times e(-x y), by 30-digit quadrature over
    panels of about half a period."""
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)

    def g(y):
        u = (2 * y - lo - hi) / (hi - lo)
        return mpmath.exp(-1 / (1 - u * u)) * mpmath.expjpi(-2 * x * y)

    panels = max(8, 2 * int(abs(x) * (hi - lo)) + 2)
    with mpmath.workdps(30):
        return complex(mpmath.quad(g, mpmath.linspace(lo, hi, panels)))


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (1.0, 2.0), (0.1, 0.35),
                                    (-0.05, 0.05), (0.0, 1e-4)])
def test_fourier_within_1e15_of_mpmath(lo, hi):
    # check 5's lattice j / 512, j < 64 * 512, and single values by the
    # direct sum; the support of 1e-4 holds 512 nodes only as P grows
    f = default_f() if lo == -1.0 else make_bump(lo, hi)
    N, js = 512, [0, 1, 700, 5000, 32767]
    lattice = fourier(f, np.arange(64 * N) / N)[js]
    for j, value in zip(js, lattice):
        want = _fourier_mp(lo, hi, mpmath.mpf(j) / N)
        assert abs(value - want) < 1e-15
        assert abs(fourier(f, j / N) - want) < 1e-15


def _spy_paths(monkeypatch, table):
    """The names of the table's paths, appended as each one runs."""
    taken = []
    for name in ("_bluestein", "_direct"):
        def spy(*args, _name=name, _fn=getattr(table, name)):
            taken.append(_name)
            return _fn(*args)
        monkeypatch.setattr(table, name, spy)
    return taken


LATTICES = [
    np.arange(1, 64 * 512 + 1) / 512,               # check 5
    _band(2 ** 12, 0.05) / 2 ** 12,
    np.arange(-64, 65) / 8,                         # negative j0
    np.arange(-300, -100) / 16,                     # every j negative
    np.arange(-5, 1000) / 3,                        # 1/3 is not a double
    np.arange(-3, 5) / 1,
    np.array([0.5, 0.75]),
]
NOT_LATTICES = [
    np.arange(300, -1, -1) / 16,                    # descending
    0.3 + np.arange(777) * 0.0123,                  # offset from j / N
    np.linspace(-16.0, 16.0, 101),                  # step 8/25
    np.nextafter(np.arange(1, 1001) / 32, 0.0),     # one ulp below j / 32
    np.random.default_rng(4).uniform(-10.0, 10.0, 500),
    np.array([-3.0, 7.25]),
    np.array([2.5]),
]


@pytest.mark.parametrize("xs", LATTICES)
def test_fourier_table_lattice_path_matches_the_direct_sum(monkeypatch, xs):
    table = FourierTable(default_f(), float(np.max(np.abs(xs))))
    taken = _spy_paths(monkeypatch, table)
    got = table.values(xs)
    assert taken == ["_bluestein"]
    # about 300 of the values, as check 5's direct sum takes seconds
    some = slice(None, None, -(-xs.size // 300))
    assert np.max(np.abs(got[some] - table._direct(xs[some]))) < 1e-15


@pytest.mark.parametrize("xs", NOT_LATTICES)
def test_fourier_table_other_inputs_take_the_direct_sum(monkeypatch, xs):
    table = FourierTable(default_f(), float(np.max(np.abs(xs))))
    taken = _spy_paths(monkeypatch, table)
    table.values(xs)
    assert taken == ["_direct"]


# check 5's frequencies j / 512, j <= 64 * 512
CHECK5 = np.arange(1, 64 * 512 + 1) / 512


def _convolution_bytes(table, n):
    """The bytes the lattice path's guard counts for n values."""
    K = table._nodes.size
    M = 1 << (n + K - 2).bit_length()
    return 32 * M + 72 * (n + K - 1)


def test_fourier_table_guard_refuses_before_allocating(monkeypatch):
    table = FourierTable(default_f(), 64.0)
    want = table.values(CHECK5)
    need = _convolution_bytes(table, CHECK5.size)
    chirps = []

    def spy(fr):
        chirps.append(np.size(fr))
        return e_frac(fr)

    # the chirps are the convolution's first arrays
    monkeypatch.setattr(kernels, "e_frac", spy)
    monkeypatch.setattr(_pool, "_memory_budget", lambda: need - 1)
    with pytest.raises(ResourceGuardError, match=f"need {need}, "):
        table.values(CHECK5)
    assert chirps == []
    monkeypatch.setattr(_pool, "_memory_budget", lambda: need)
    assert table.values(CHECK5).tobytes() == want.tobytes()
    assert len(chirps) == 3


def test_fourier_table_guard_refuses_a_band_before_its_nodes(monkeypatch):
    # a band of 1e9 would take about 3.4e10 nodes; the guard refuses them
    # before np.arange, and check 5's table of 8191 nodes still builds
    monkeypatch.setattr(_pool, "_memory_budget", lambda: 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError, match="-node Fourier table"):
            fourier(default_f(), 1e9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    table = FourierTable(default_f(), 64.0)
    assert table._nodes.size == 8191
    monkeypatch.setattr(_pool, "_memory_budget", lambda: 32 * 8191 - 1)
    with pytest.raises(ResourceGuardError, match="need 262112, "):
        FourierTable(default_f(), 64.0)


def test_direct_sum_guard_counts_its_exponentials(monkeypatch):
    # one frequency on 262,143 nodes: a single row, whose phases and
    # exponentials, made in place, peak at 48.5 bytes a node with the
    # table, where the table's own guard counts 32
    table = FourierTable(default_f(), 5000.0)
    K = table._nodes.size
    assert K == 262143
    need = 56 * K
    monkeypatch.setattr(_pool, "_memory_budget", lambda: need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError,
                           match=f"-node direct sum: need {need}, "):
            table.values(np.array([5000.0]))
        refused = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refused < 64 * 1024
    monkeypatch.setattr(_pool, "_memory_budget", lambda: need)
    want = table.values(np.array([5000.0]))
    del table
    tracemalloc.start()
    try:
        got = fourier(default_f(), 5000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == complex(want[0])
    assert 32 * K < peak <= need


def test_direct_sum_guard_bounds_blocks_of_rows(monkeypatch):
    # 5000 frequencies off any lattice on 8191 nodes: blocks of four rows,
    # one freed before the next is built; the peak past the table is the
    # phases, the output and one block with numpy's casting buffer
    table = FourierTable(default_f(), 64.0)
    K = table._nodes.size
    xs = np.linspace(-63.3, 63.9, 5000)
    rows = kernels._BLOCK // K
    assert rows == 4
    need = 32 * K + 24 * rows * K
    monkeypatch.setattr(_pool, "_memory_budget", lambda: need - 1)
    with pytest.raises(ResourceGuardError,
                       match=f"-node direct sum: need {need}, "):
        table._direct(xs)
    monkeypatch.setattr(_pool, "_memory_budget", lambda: need)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = table._direct(xs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the table itself (nodes and weights, 16 bytes a node) was built first
    assert 16 * rows * K < peak - got.nbytes <= need - 16 * K
    # each value is its own row's sum, so the blocks do not move its bits
    alone = np.concatenate([table._direct(xs[i:i + 1]) for i in range(7)])
    assert alone.tobytes() == got[:7].tobytes()


def test_fourier_table_check5_peak_is_within_its_guard():
    table = FourierTable(default_f(), 64.0)
    need = _convolution_bytes(table, CHECK5.size)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table.values(CHECK5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 4.0 MB of 5.05 MB counted: one 65,536-point spectrum and the
    # temporaries of the widest chirp, 40,958 points
    assert peak <= need < 6 * 2 ** 20


def test_fourier_table_refuses_lattices_past_int64_chirps(monkeypatch):
    # j near 3 * 2**30 squares past 2**63; j near 2**30 does not
    N = 2 ** 20
    table = FourierTable(default_f(), 3 * 2 ** 10 + 1.0)
    with pytest.raises(ValueError, match="int64 chirps"):
        table.values(np.arange(3 * 2 ** 30, 3 * 2 ** 30 + 1000) / N)
    taken = _spy_paths(monkeypatch, table)
    far = table.values(np.arange(2 ** 30, 2 ** 30 + 1000) / N)
    assert taken == ["_bluestein"] and np.max(np.abs(far)) < 1e-15


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
