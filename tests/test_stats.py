"""Raw pair correlation, gap histograms, and their reference laws."""

import math
import os
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pair_corr_count_concat
from paircorr import _pool, stats
from paircorr._precision import _pow_ld, as_ld, frac
from paircorr.stats import (PointSet, fractional_parts, gap_distribution,
                            pair_corr_count, uniform_points)


def naive_pair_count(points: np.ndarray, s: float) -> int:
    M = points.size
    d = np.abs(points[:, None] - points[None, :])
    d = np.minimum(d, 1.0 - d)
    mask = d <= s / M
    return int(mask.sum()) - M  # drop x = y


def test_fractional_parts_values_and_window():
    ps = fractional_parts(0.5, 1.0, 1, 100)
    assert ps.size == 100
    assert np.all((ps.points >= 0.0) & (ps.points < 1.0))
    assert ps.points[1] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)
    assert ps.points[3] == 0.0  # n = 4 is a square


def test_fractional_parts_exclude_squares():
    ps = fractional_parts(0.5, 1.0, 1, 100, exclude_squares=True)
    assert ps.size == 90
    assert np.all(ps.points > 0.0)
    # alpha = 1, theta = 1/2: only the squares land exactly on 0


def test_fractional_parts_validation():
    with pytest.raises(ValueError):
        fractional_parts(1.0, 1.0, 1, 10)
    with pytest.raises(ValueError):
        fractional_parts(0.5, -1.0, 1, 10)
    with pytest.raises(ValueError):
        fractional_parts(0.5, 1.0, 5, 4)
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError):
            fractional_parts(0.5, alpha, 1, 10)


def test_fractional_parts_bytes_match_direct_reduction():
    # alternating keys reuse and rebuild the power table; one-point window,
    # windows past one chunk, with and without the squares
    keys = [(0.3, 1, 70000, False), (0.5, 1, 70000, True),
            (0.3, 1, 70000, False), (0.7, 9, 9, False),
            (0.5, 100001, 200000, True), (0.5, 100001, 200000, False),
            (0.5, 100001, 200000, True), (0.7, 1, 2 ** 16 + 1, False)]
    for theta, n_lo, n_hi, drop in keys:
        ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
        if drop:
            ns = np.array([n for n in ns.tolist()
                           if math.isqrt(n) ** 2 != n], dtype=np.int64)
        w = _pow_ld(ns, theta)
        for alpha in (1.0, 1.3710934, 1.9):
            ps = fractional_parts(theta, alpha, n_lo, n_hi, drop)
            direct = frac(as_ld(alpha) * w)
            assert ps.points.tobytes() == direct.tobytes()


def test_power_table_is_read_only_and_replaced(monkeypatch):
    w = stats._powers(0.3, 1, 1000, False)
    assert stats._powers(0.3, 1, 1000, False) is w
    with pytest.raises(ValueError):
        w[0] = 0.0
    old = weakref.ref(w)
    del w
    seen = []

    def spy(values, expo):
        seen.append(old() is None)
        return _pow_ld(values, expo)

    monkeypatch.setattr(stats, "_pow_ld", spy)
    fractional_parts(0.3, 1.5, 1, 1001)
    # the old table was gone before the first power of the new one
    assert seen and all(seen)
    assert stats._table[0] == (0.3, 1, 1001, False)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_pooled_points_and_powers_match_direct_reduction(monkeypatch,
                                                         workers):
    # windows off the chunk grid, one point, the squares dropped; four
    # workers on fewer cores and a short switch interval mix the jobs up
    monkeypatch.setattr(stats, "_thread_workers", lambda: workers)
    C = stats._CHUNK
    keys = [(0.3, 1, 3 * C + 17, False), (0.5, 1, 3 * C + 17, True),
            (0.7, 5, 5, False), (0.5, 10 ** 6, 10 ** 6 + 2 * C - 1, True),
            (0.7, 2 ** 20 + 1, 2 ** 20 + C, False)]
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for theta, n_lo, n_hi, drop in keys:
            ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
            if drop:
                ns = ns[[math.isqrt(n) ** 2 != n for n in ns.tolist()]]
            w = _pow_ld(ns, theta)
            for alpha in (1.0, 1.3710934):
                ps = fractional_parts(theta, alpha, n_lo, n_hi, drop)
                direct = frac(as_ld(alpha) * w)
                assert ps.points.tobytes() == direct.tobytes()
            # long doubles carry padding bytes, so compare them by value
            assert np.array_equal(stats._powers(theta, n_lo, n_hi, drop), w)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", [2, 4])
def test_pooled_powers_run_on_several_threads(monkeypatch, workers):
    monkeypatch.setattr(stats, "_thread_workers", lambda: workers)
    # the first two chunks wait for each other, so two threads must run them
    barrier = threading.Barrier(2, timeout=30)
    lock = threading.Lock()
    seen, unpublished = [], []

    def spy(values, expo):
        with lock:
            seen.append(threading.get_ident())
            first = len(seen) <= 2
        unpublished.append(stats._table is None)
        if first:
            barrier.wait()
        return _pow_ld(values, expo)

    monkeypatch.setattr(stats, "_pow_ld", spy)
    threads = threading.active_count()
    fractional_parts(0.3, 1.5, 1, 4 * stats._CHUNK)
    assert threading.active_count() == threads
    assert len(seen) == 4 and len(set(seen)) >= 2
    # no chunk ran while a half-built table was already kept
    assert all(unpublished) and stats._table[1].size == 4 * stats._CHUNK


def test_memory_budget_without_sysconf_is_unlimited(monkeypatch):
    assert 0 < _pool._memory_budget() < sys.maxsize
    monkeypatch.delattr(os, "sysconf")
    assert _pool._memory_budget() == sys.maxsize


def test_point_sets_compare_and_hash_by_identity():
    a, b = uniform_points(10), uniform_points(10)
    assert a == a and a != b
    assert hash(a) == hash(a)
    index = {a: "a", b: "b"}
    assert index[a] == "a" and index[b] == "b"
    vs = a.sorted_points
    assert a.sorted_points is vs and index[a] == "a"


def test_uniform_points_deterministic():
    a = uniform_points(1000, seed=42)
    b = uniform_points(1000, seed=42)
    c = uniform_points(1000, seed=43)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.theta is None and "iid uniform" in a.window


def test_pair_corr_hand_examples():
    two = PointSet(None, None, 1, 2, False, np.array([0.1, 0.2]))
    est = pair_corr_count(two, 0.5)
    assert est.count == 2 and est.normalized == 1.0
    far = PointSet(None, None, 1, 2, False, np.array([0.0, 0.5]))
    assert pair_corr_count(far, 0.5).count == 0
    assert pair_corr_count(two, 0.5).poisson_ref == 1.0


def test_pair_corr_validation_and_short_circuit():
    ps = uniform_points(50, seed=0)
    with pytest.raises(ValueError):
        pair_corr_count(ps, -1.0)
    with pytest.raises(ValueError):
        pair_corr_count(ps, math.nan)
    # radius >= 1/2 covers the torus
    assert pair_corr_count(ps, 25.0).count == 50 * 49


def test_pair_corr_matches_naive_oracle():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(50, 400))
        pts = rng.random(M)
        ps = PointSet(None, None, 1, M, False, pts)
        for s in (0.3, 1.0, 2.7):
            assert pair_corr_count(ps, s).count == naive_pair_count(pts, s)


def test_pair_corr_matches_concatenated_sweep():
    # edge points 0 and 1 - 2**-53, two points, s = 0, r just below 1/2,
    # and sizes past one chunk of queries
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for M in (2, 3, 97, 5000, 2 ** 16 + 3):
            pts = rng.random(M)
            pts[0] = 0.0
            pts[-1] = 1.0 - 2.0 ** -53
            ps = PointSet(None, None, 1, M, False, pts)
            below_half = float(np.nextafter(0.5, 0.0)) * M
            for s in (0.0, 0.25, 1.0, 3.7, below_half):
                assert pair_corr_count(ps, s).count == \
                    pair_corr_count_concat(pts, s)
    # points in clusters at both ends of the circle wrap many pairs
    edge = np.concatenate([np.linspace(0.0, 1e-3, 500),
                           1.0 - np.linspace(0.0, 1e-3, 500)[1:]])
    edge[-1] = 1.0 - 2.0 ** -53
    ps = PointSet(None, None, 1, edge.size, False, edge)
    for s in (0.0, 0.5, 2.0, 40.0):
        assert pair_corr_count(ps, s).count == pair_corr_count_concat(edge, s)
    # y a few ulp above r still lies within r of 1 - 2**-53 once rounded
    for s in (0.25, 0.5):
        y = s / 4
        for _ in range(6):
            y = float(np.nextafter(y, 1.0))
            pts = np.array([1.0 - 2.0 ** -53, y, 0.5, 0.7])
            ps = PointSet(None, None, 1, 4, False, pts)
            assert pair_corr_count(ps, s).count == \
                pair_corr_count_concat(pts, s)
        # at 6 ulp the pair still counts at s = 0.25, and no more at 0.5
        assert pair_corr_count_concat(pts, s) == (2 if s == 0.25 else 0)


def _pair_counts_agree(pts, radii):
    ps = PointSet(None, None, 1, pts.size, False, pts)
    for s in radii:
        assert pair_corr_count(ps, s).count == pair_corr_count_concat(pts, s)


def test_pair_corr_sweep_clusters_match_concatenated_sweep():
    rng = np.random.default_rng(5)
    # more equal points at 0 than the sweep's depth: the binary search
    for extra in (stats._SWEEP, stats._SWEEP + 1, 3 * stats._SWEEP):
        pts = np.concatenate([np.zeros(extra + 1), rng.random(200)])
        _pair_counts_agree(pts, (0.0, 0.5, 3.0))
    # a dense cluster at sorted places C - 20 .. C + 19, across the first
    # chunk boundary of the queries
    C = stats._CHUNK
    pts = np.sort(rng.random(C + 5000))
    pts[C - 20:C + 20] = np.linspace(pts[C], pts[C] + 1e-11, 40)
    assert np.all(np.diff(pts) >= 0.0)
    _pair_counts_agree(pts, (0.0, 0.25, 1.0, 4.0))
    # deep clusters at both ends of the circle
    pts = np.concatenate([np.zeros(12), np.full(12, 1.0 - 2.0 ** -53),
                          np.full(10, 2.0 ** -60), rng.random(300)])
    _pair_counts_agree(pts, (0.0, 0.5, 2.0, 30.0))
    # every small size, with repeats
    for M in range(2, 10):
        for _ in range(20):
            pts = rng.integers(0, 4, M) / 4.0 + rng.integers(0, 2) * 0.1
            _pair_counts_agree(pts % 1.0, (0.0, 0.3, 1.0, M / 4, M / 2.01))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(pts=st.lists(st.sampled_from([0.0, 2.0 ** -53, 0.1, 0.25, 0.5, 0.9,
                                     1.0 - 2.0 ** -53])
                    | st.floats(0.0, 1.0, exclude_max=True),
                    min_size=2, max_size=40),
       frac_s=st.floats(0.0, 1.0, exclude_max=True))
def test_pair_corr_sweep_matches_concatenated_sweep_on_repeats(pts, frac_s):
    pts = np.array(pts)
    _pair_counts_agree(pts, (frac_s * pts.size / 2,))


def test_one_sort_and_read_only_views_per_point_set(monkeypatch):
    ps = uniform_points(5000, seed=4)
    sorts = []
    real_sort = np.sort

    def spy(a, *args, **kwargs):
        sorts.append(a.size)
        return real_sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", spy)
    gap_distribution(ps, bins=40)
    for s in (0.25, 0.5, 1.0, 2.0):
        pair_corr_count(ps, s)
    assert sorts == [5000]
    with pytest.raises(ValueError):
        ps.points[0] = 0.5
    with pytest.raises(ValueError):
        ps.sorted_points[0] = 0.5
    # the caller's array stays writable
    pts = np.random.default_rng(1).random(10)
    PointSet(None, None, 1, 10, False, pts)
    pts[0] = 0.5


def test_pair_corr_translation_invariance():
    rng = np.random.default_rng(9)
    pts = rng.random(300)
    shifted = np.mod(pts + 0.374, 1.0)
    a = PointSet(None, None, 1, 300, False, pts)
    b = PointSet(None, None, 1, 300, False, shifted)
    for s in (0.5, 1.0, 3.0):
        assert pair_corr_count(a, s).count == pair_corr_count(b, s).count
    ga = gap_distribution(a, bins=40)
    gb = gap_distribution(b, bins=40)
    assert np.array_equal(ga.counts, gb.counts)


def test_gap_distribution_mass_and_edges():
    ps = uniform_points(5000, seed=1)
    gh = gap_distribution(ps, bins=80)
    w = gh.edges[1] - gh.edges[0]
    mass = float(gh.density.sum() * w) + gh.overflow_count / gh.n_points
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert gh.edges[0] == 0.0 and gh.edges[-1] == 4.0
    assert int(gh.counts.sum()) + gh.overflow_count == gh.n_points
    with pytest.raises(ValueError):
        gap_distribution(ps, bins=0)
    for s_max in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            gap_distribution(ps, s_max=s_max)


def test_gap_distribution_equally_spaced_spike():
    # dyadic spacing and offset keep every gap exactly 1/256 in floats
    pts = (np.arange(256) / 256.0 + 0.125) % 1.0
    ps = PointSet(None, None, 1, 256, False, pts)
    # 83 bins put the rescaled spike at 1.0 strictly inside a bin
    gh = gap_distribution(ps, bins=83)
    hot = np.argmax(gh.counts)
    assert gh.counts[hot] == 256
    assert gh.edges[hot] < 1.0 < gh.edges[hot + 1]


def test_gap_counts_match_the_edge_array_histogram():
    # dyadic spacing puts every rescaled gap exactly on the edge 1.0
    spike = (np.arange(256) / 256.0 + 0.125) % 1.0
    for pts, bins in ((spike, 80), (spike, 4),
                      (np.random.default_rng(2).random(3000), 80),
                      (np.random.default_rng(2).random(3000), 7)):
        ps = PointSet(None, None, 1, pts.size, False, pts)
        gh = gap_distribution(ps, bins=bins)
        vs = np.sort(pts)
        gaps = np.diff(vs, append=vs[0] + 1.0) * pts.size
        assert np.array_equal(gh.counts, np.histogram(gaps, gh.edges)[0])


def test_gap_sum_is_one():
    rng = np.random.default_rng(10)
    pts = rng.random(777)
    ps = PointSet(None, None, 1, 777, False, pts)
    vs = np.sort(pts)
    gaps = np.diff(vs, append=vs[0] + 1.0)
    assert float(gaps.sum()) == pytest.approx(1.0, abs=1e-12)
    gh = gap_distribution(ps, bins=80)
    mass = float(gh.density.sum() * (gh.edges[1] - gh.edges[0]))
    assert mass + gh.overflow_count / 777 == pytest.approx(1.0, abs=1e-12)


def test_uniform_gaps_follow_exponential_law():
    # 5 seeds at N = 1e5; compare to the exact per-bin average of e^-s
    worst = 0.0
    for seed in range(5):
        gh = gap_distribution(uniform_points(10**5, seed=seed), bins=80)
        w = gh.edges[1] - gh.edges[0]
        ref = (np.exp(-gh.edges[:-1]) - np.exp(-gh.edges[1:])) / w
        sel = gh.midpoints <= 0.5
        worst = max(worst, float(np.max(np.abs(gh.density[sel] - ref[sel]))))
    assert worst < 0.05


def test_squares_create_close_pairs():
    # sqrt(n) mod 1 with the squares kept shows an excess at small s
    kept = fractional_parts(0.5, 1.0, 1, 10**4)
    dropped = fractional_parts(0.5, 1.0, 1, 10**4, exclude_squares=True)
    s = 0.25
    assert pair_corr_count(kept, s).normalized > 2.0 * pair_corr_count(dropped, s).normalized
    assert pair_corr_count(dropped, s).normalized < 2.0 * s * 1.5
