"""Raw pair correlation, gap histograms, and their reference laws."""

import math
import os
import re
import sys
import threading
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import circular_gaps, pair_corr_count_concat, powers_mp
from paircorr import _pool, stats
from paircorr._pool import ResourceGuardError
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
    for theta in (0.3, 0.5):
        assert fractional_parts(theta, 1.0, 4, 4, True).size == 0


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


def test_unreducible_dilate_is_refused_by_name_before_any_table(
        monkeypatch):
    # alpha * n_hi**theta at 2**63 or past it has no exact int64 reduction:
    # refused by name before the power table is built or the guard runs
    def never(*args):
        raise AssertionError("no power table for an unreducible dilate")

    monkeypatch.setattr(stats, "_powers", never)
    monkeypatch.setattr(_pool, "_memory_budget", lambda: 0)
    for alpha, n_hi, theta in ((1e20, 1000, 0.5), (2.0 ** 62, 4, 0.5),
                               (1e18, 10 ** 6, 0.3), (1e300, 2, 0.7)):
        with pytest.raises(ValueError, match=re.escape(
                f"alpha * n_hi**theta >= 2**63 (alpha={alpha!r}, "
                f"n_hi={n_hi!r})")):
            fractional_parts(theta, alpha, 1, n_hi)
    monkeypatch.undo()
    # just below 2**63 the points are reduced, each as frac reduces it
    ps = fractional_parts(0.5, 2.0 ** 61, 1, 4)
    want = frac(as_ld(2.0 ** 61) * _pow_ld(np.arange(1, 5), 0.5))
    assert ps.points.tobytes() == want.tobytes()


def _table_alone(monkeypatch, theta, n_lo, n_hi, drop):
    """The window's powers, built apart from the table under test: for
    theta = 1/2 by _pow_ld's sqrt, else on one worker in chunks of 1000
    (another chunk grid), with the squares dropped afterwards by mask; the
    kept table is left as it was."""
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    keep = np.array([not drop or math.isqrt(n) ** 2 != n
                     for n in ns.tolist()], dtype=bool)
    if theta == 0.5:
        return _pow_ld(ns[keep], theta)
    with monkeypatch.context() as m:
        m.setattr(stats, "_table", None)
        m.setattr(stats, "_thread_workers", lambda: 1)
        m.setattr(stats, "_CHUNK", 1000)
        return stats._powers(theta, n_lo, n_hi, False)[keep]


def test_fractional_parts_bytes_match_direct_reduction(monkeypatch):
    # alternating keys reuse and rebuild the power table; one-point window,
    # windows past one chunk, with and without the squares
    keys = [(0.3, 1, 70000, False), (0.5, 1, 70000, True),
            (0.3, 1, 70000, False), (0.7, 9, 9, False),
            (0.5, 100001, 200000, True), (0.5, 100001, 200000, False),
            (0.5, 100001, 200000, True), (0.7, 1, 2 ** 16 + 1, False)]
    alone = {key: _table_alone(monkeypatch, *key) for key in set(keys)}
    for key in keys:
        theta, n_lo, n_hi, drop = key
        for alpha in (1.0, 1.3710934, 1.9):
            ps = fractional_parts(theta, alpha, n_lo, n_hi, drop)
            direct = frac(as_ld(alpha) * alone[key])
            assert ps.points.tobytes() == direct.tobytes()
        assert np.array_equal(stats._powers(*key), alone[key])


def _ld_mpf(x):
    """A long double as the mpmath number it is exactly."""
    m, e = np.frexp(x)
    top = int(np.ldexp(m, 64).astype(np.uint64))
    return mpmath.ldexp(mpmath.mpf(top), int(e) - 64)


@pytest.mark.parametrize("theta", [0.05, 0.3, 0.7, 0.9, 0.999])
def test_anchored_powers_within_0_6_ulp_of_mpmath(theta):
    # windows from 1, across 2**20 (an octave and a chunk edge inside) and
    # near 1e8, with and without the squares: every element within one ulp
    # of powl, and sampled ones within 0.6 ulp of n**theta
    C = stats._CHUNK
    rng = np.random.default_rng(7)
    worst = 0.0
    for n_lo, n_hi in ((1, 2 * C + 17), (2 ** 20 - C // 2, 2 ** 20 + C + 3),
                       (10 ** 8 - 100, 10 ** 8 + C + 100)):
        for drop in (False, True):
            w = stats._powers(theta, n_lo, n_hi, drop)
            ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
            if drop:
                ns = ns[[math.isqrt(n) ** 2 != n for n in ns.tolist()]]
            assert w.size == ns.size
            powl = _pow_ld(ns, theta)
            assert np.all(np.abs(w - powl) <= np.spacing(powl))
            edges = [n_lo + k * C for k in range(1, 3)] + [2 ** 20]
            near = np.abs(ns[:, None] - np.array(edges)).min(axis=1) <= 3
            pick = np.flatnonzero(near)
            pick = np.concatenate([pick, np.arange(64), [ns.size - 1],
                                   rng.integers(0, ns.size, 300)])
            with mpmath.workprec(200):
                for i, v in zip(pick.tolist(),
                                powers_mp(theta, ns[pick])):
                    ulp = mpmath.ldexp(1, mpmath.frexp(v)[1] - 1
                                       - stats.LD_NMANT)
                    worst = max(worst, abs(_ld_mpf(w[i]) - v) / ulp)
    assert worst <= 0.6


def test_point_set_holds_its_counted_bytes(monkeypatch):
    # a point set keeps its power table, its points and their sorted copy,
    # _BYTES_PER_POINT bytes a point; past them only one pool job's chunk
    # temporaries, about 80 bytes a chunk element on one worker
    monkeypatch.setattr(stats, "_thread_workers", lambda: 1)
    for theta, drop in ((0.3, False), (0.7, True), (0.5, True)):
        monkeypatch.setattr(stats, "_table", None)
        tracemalloc.start()
        try:
            ps = fractional_parts(theta, 1.37, 1, 25 * stats._CHUNK, drop)
            ps.sorted_points
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        need = stats._BYTES_PER_POINT * ps.size
        assert need <= peak <= need + 128 * stats._CHUNK
        del ps


def test_power_table_is_read_only_and_replaced(monkeypatch):
    w = stats._powers(0.3, 1, 1000, False)
    assert stats._powers(0.3, 1, 1000, False) is w
    with pytest.raises(ValueError):
        w[0] = 0.0
    old = weakref.ref(w)
    del w
    seen = []
    kernel = stats._anchored_pow

    def spy(ns, theta, anchors, out):
        seen.append(old() is None)
        kernel(ns, theta, anchors, out)

    monkeypatch.setattr(stats, "_anchored_pow", spy)
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
            (0.7, 2 ** 20 + 1, 2 ** 20 + C, False),
            (0.3, 10 ** 6, 10 ** 6 + 2 * C - 1, True)]
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for theta, n_lo, n_hi, drop in keys:
            w = _table_alone(monkeypatch, theta, n_lo, n_hi, drop)
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
    kernel = stats._anchored_pow

    def spy(ns, theta, anchors, out):
        with lock:
            seen.append(threading.get_ident())
            first = len(seen) <= 2
        unpublished.append(stats._table is None)
        if first:
            barrier.wait()
        kernel(ns, theta, anchors, out)

    monkeypatch.setattr(stats, "_anchored_pow", spy)
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
    assert a.theta is None


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
        gaps = circular_gaps(pts)
        assert np.array_equal(gh.counts, np.histogram(gaps, gh.edges)[0])


def _gap_sets():
    """Point sets of every kind gap_distribution meets: powers, uniform
    draws, a dyadic spike and a set whose gaps tie at 0."""
    spike = (np.arange(256) / 256.0 + 0.125) % 1.0
    ties = np.repeat(np.random.default_rng(3).random(500), 3)
    return ([fractional_parts(theta, 1.37, 1, 10**5)
             for theta in (0.3, 0.5, 0.7)]
            + [fractional_parts(0.5, 1.0, 1, 10**4, exclude_squares=True),
               uniform_points(10**5, seed=5)]
            + [PointSet(None, None, 1, p.size, False, p)
               for p in (spike, ties)])


def test_gaps_are_the_np_diff_gaps_bit_for_bit(monkeypatch):
    binned = []
    histogram = np.histogram

    def spy(a, *args, **kwargs):
        binned.append(a.copy())
        return histogram(a, *args, **kwargs)

    monkeypatch.setattr(np, "histogram", spy)
    for ps in _gap_sets():
        gh = gap_distribution(ps, bins=80)
        want = circular_gaps(ps.points)
        got = binned.pop()
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        over = want >= 4.0
        assert gh.overflow_count == int(over.sum())
        assert gh.overflow_mass == float(want[over].sum() / ps.size)


@pytest.mark.parametrize("overflow", [False, True])
def test_gap_byte_count_covers_its_measured_peak(overflow):
    M = 4 * 10**5
    if overflow:
        # a quarter of the points equally spaced, the rest in one cluster:
        # about one gap in five lies past the histogram's edge
        k = M // 4
        pts = np.concatenate([np.arange(k) / k, np.full(M - k, 0.5 / k)])
        ps = PointSet(None, None, 1, M, False, pts)
    else:
        ps = uniform_points(M, seed=6)
    ps.sorted_points
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gh = gap_distribution(ps, bins=80)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (gh.overflow_count > M // 10) == overflow
    # 4 MB for numpy's histogram blocks, whose size does not grow with M
    assert peak <= M * stats._BYTES_PER_GAP + 2 ** 22


def _refused_unbuilt(monkeypatch, need, build):
    """build() raises at a budget of need - 1 before allocating its
    arrays, and returns at a budget of need."""
    monkeypatch.setattr(_pool, "_memory_budget", lambda: need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError, match=f"need {need}, "):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
    monkeypatch.setattr(_pool, "_memory_budget", lambda: need)
    return build()


def test_uniform_points_past_the_memory_budget_are_refused_undrawn(
        monkeypatch):
    n = 10**6
    ps = _refused_unbuilt(monkeypatch, n * stats._BYTES_PER_UNIFORM,
                          lambda: uniform_points(n, seed=7))
    assert np.array_equal(ps.points, np.random.default_rng(7).random(n))


def test_gaps_past_the_memory_budget_are_refused_unbuilt(monkeypatch):
    M = 10**6
    ps = PointSet(None, None, 1, M, False, np.random.default_rng(8).random(M))
    gh = _refused_unbuilt(monkeypatch, M * stats._BYTES_PER_GAP,
                          lambda: gap_distribution(ps, bins=80))
    assert gh.n_points == M


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
