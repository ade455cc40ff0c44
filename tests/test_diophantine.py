"""Counting stack: z-multisets, brute-force counts, twisted moments."""

import math
import tracemalloc

import numpy as np
import pytest

from paircorr import _pool, diophantine
from paircorr._precision import _pow_ld, as_ld
from paircorr.diophantine import (DioInstance, ResourceGuardError, build_zset,
                                  count_duq, count_zdiag, dio_instance,
                                  duq_bound_check, robert_sargos_count)

from oracles import count_log_close_pairs, twisted_second_moment

MICRO = DioInstance(theta=0.5, j_lo=4, j_hi=6, m_lo=2, m_hi=4,
                    gap_lo=1, gap_hi=2, threshold=1.0)


def naive_duq(inst: DioInstance) -> int:
    # all-pairs difference matrix, no sorting tricks
    zs = build_zset(inst)
    prods = np.array([float(j) ** inst.Theta * z
                      for j in inst.js for z in zs.z])
    if prods.size == 0:
        return 0
    d = np.abs(prods[:, None] - prods[None, :])
    return int((d <= inst.threshold).sum())


def naive_zdiag(zs, tau: float) -> int:
    return sum(1 for a in zs for b in zs if abs(a - b) < tau)


def naive_rs(M: int, e: float, gamma: float) -> int:
    v = [float(x) ** e for x in range(1, M + 1)]
    thr = gamma * float(M) ** e
    count = 0
    for x in v:
        for y in v:
            for z in v:
                for w in v:
                    if abs(x - y + z - w) < thr:
                        count += 1
    return count


def test_micro_instance_zset():
    zs = build_zset(MICRO)
    assert zs.size == 2
    assert zs.z[0] == pytest.approx(1.0 / 12.0, rel=1e-14)
    assert zs.z[1] == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert list(zs.m) == [3, 2] and list(zs.n) == [4, 3]
    assert np.all(np.diff(zs.z) > 0.0)


def test_micro_instance_count():
    assert count_duq(MICRO) == 8
    assert count_duq(MICRO) == naive_duq(MICRO)
    # threshold 0 keeps only the diagonal: products {16/12, 16/6, 25/12, 25/6}
    zero_thr = DioInstance(theta=0.5, j_lo=4, j_hi=6, m_lo=2, m_hi=4,
                           gap_lo=1, gap_hi=2, threshold=0.0)
    assert count_duq(zero_thr) == 4


def test_count_duq_accepts_prebuilt_zset():
    zs = build_zset(MICRO)
    assert count_duq(MICRO, zs) == count_duq(MICRO)


def test_vacuous_instance():
    inst = DioInstance(theta=0.5, j_lo=4, j_hi=6, m_lo=2, m_hi=4,
                       gap_lo=5, gap_hi=9, threshold=1.0)
    assert inst.is_vacuous
    assert build_zset(inst).size == 0
    assert count_duq(inst) == 0
    assert count_zdiag(build_zset(inst), 1.0) == 0


def test_instance_validation():
    with pytest.raises(ValueError):
        DioInstance(theta=0.5, j_lo=0, j_hi=6, m_lo=2, m_hi=4,
                    gap_lo=1, gap_hi=2, threshold=1.0)
    with pytest.raises(ValueError):
        DioInstance(theta=0.5, j_lo=4, j_hi=6, m_lo=2, m_hi=4,
                    gap_lo=2, gap_hi=2, threshold=1.0)
    with pytest.raises(ValueError):
        dio_instance(0.5, 256, 0.3, 5, 0)
    with pytest.raises(ValueError):
        dio_instance(0.5, 256, 0.1, 99, 0)


def test_count_duq_matches_naive_on_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(10):
        m_lo = int(rng.integers(2, 10))
        width = int(rng.integers(3, 12))
        inst = DioInstance(
            theta=0.5,
            j_lo=int(rng.integers(2, 20)),
            j_hi=int(rng.integers(21, 28)),
            m_lo=m_lo, m_hi=m_lo + width,
            gap_lo=int(rng.integers(1, 3)),
            gap_hi=int(rng.integers(3, 6)),
            threshold=float(rng.uniform(0.0, 3.0)),
        )
        assert count_duq(inst) == naive_duq(inst)


def test_z_monotone_in_m_for_fixed_gap():
    inst = DioInstance(theta=0.5, j_lo=4, j_hi=6, m_lo=3, m_hi=40,
                       gap_lo=2, gap_hi=3, threshold=1.0)
    zs = build_zset(inst)
    order = np.argsort(zs.m)
    assert np.all(np.diff(zs.z[order]) < 0.0)


def test_count_zdiag_hand_and_naive():
    zs = build_zset(MICRO)
    assert count_zdiag(zs, 0.05) == 2
    assert count_zdiag(zs, 1.0) == 4  # tau above the spread
    assert count_zdiag(zs, 1e-9) >= zs.size
    rng = np.random.default_rng(13)
    for _ in range(5):
        vals = np.sort(rng.uniform(0.0, 1.0, size=40))
        from paircorr.diophantine import ZMultiset
        zset = ZMultiset(z=vals, m=np.arange(40), n=np.arange(40) + 1)
        tau = float(rng.uniform(0.01, 0.5))
        assert count_zdiag(zset, tau) == naive_zdiag(vals, tau)


def test_robert_sargos_hand_values():
    assert robert_sargos_count(1, -1.0, 2.0) == 1
    assert robert_sargos_count(2, -1.0, 4.0) == 16
    for M in (3, 5, 8):
        assert robert_sargos_count(M, -1.0, 1e-12) >= M * M
    with pytest.raises(ValueError):
        robert_sargos_count(4, 0.0, 1.0)
    with pytest.raises(ValueError):
        robert_sargos_count(0, -1.0, 1.0)
    with pytest.raises(ResourceGuardError):
        robert_sargos_count(10**3, -1.0, 1.0)


def test_robert_sargos_matches_naive():
    rng = np.random.default_rng(14)
    for M in (4, 8):
        for _ in range(3):
            gamma = float(rng.uniform(0.0, 1.5))
            assert robert_sargos_count(M, -1.0, gamma) == naive_rs(M, -1.0, gamma)


def test_robert_sargos_envelope():
    # theta = 1/2 exponent 1 - Theta = -1
    for M in (4, 8, 16, 32):
        for gamma in (0.0, M**-2.0, 1.0 / M, 1.0):
            c = robert_sargos_count(M, -1.0, gamma)
            assert c <= 32.0 * M**0.2 * (M**2 + gamma * M**4)


def test_montgomery_envelopes():
    # |D_u(t)| <= 20 e^u / sqrt(1+t^2) on [0, e^u]; <= 20 sqrt(t) after that
    u = math.log(50.0)
    js = np.arange(math.ceil(math.exp(u)), math.ceil(math.exp(u + 1.0)))
    lj = np.log(js.astype(np.float64))
    eu = math.exp(u)
    t1 = np.linspace(0.0, eu, 10**4)
    D1 = np.abs(np.exp(2j * np.pi * np.outer(t1, lj)).sum(axis=1))
    assert float(np.max(D1 * np.sqrt(1.0 + t1**2) / eu)) <= 20.0
    t2 = np.linspace(eu, eu**2, 10**4)
    D2 = np.abs(np.exp(2j * np.pi * np.outer(t2, lj)).sum(axis=1))
    assert float(np.max(D2 / np.sqrt(t2))) <= 20.0


def test_twisted_second_moment_micro(bs):
    val = twisted_second_moment(MICRO, bs, T=1.0)
    close = count_log_close_pairs(MICRO, 1.0)
    assert close == 14
    assert val >= close
    assert val == pytest.approx(40.481982, abs=1e-3)
    empty = DioInstance(theta=0.5, j_lo=4, j_hi=6, m_lo=2, m_hi=4,
                        gap_lo=5, gap_hi=9, threshold=1.0)
    assert twisted_second_moment(empty, bs, T=1.0) == 0.0
    with pytest.raises(ValueError):
        twisted_second_moment(MICRO, bs)  # no grid provenance, T required


def test_twisted_moment_dominates_close_pairs_on_random_instances(bs):
    rng = np.random.default_rng(16)
    for _ in range(3):
        inst = DioInstance(
            theta=0.5,
            j_lo=int(rng.integers(3, 8)), j_hi=int(rng.integers(9, 14)),
            m_lo=int(rng.integers(2, 5)), m_hi=int(rng.integers(6, 10)),
            gap_lo=1, gap_hi=int(rng.integers(2, 4)),
            threshold=1.0)
        T = float(rng.uniform(0.5, 4.0))
        assert twisted_second_moment(inst, bs, T=T) >= count_log_close_pairs(inst, T) - 1e-6


def test_grid_instances_track_paper_scalings():
    # z ~ e^q N e^(-Theta u) and size ~ (e^u N^(theta-1)) e^q.  The z
    # reference sits at the bottom edge of the (gap, m) window, so the
    # honest two-sided constant over the whole grid is 16, not 8; the
    # measured extremes at this N are 0.14 and 12.85.
    theta, N, eps = 0.5, 256, 0.1
    TH = 1.0 / (1.0 - theta)
    logN = math.log(N)
    for u in range(int((1.0 - eps) * logN) + 1, int((1.0 + eps) * logN) + 1):
        for q in range(0, int((theta + eps) * logN) + 1):
            inst = dio_instance(theta, N, eps, u, q)
            zs = build_zset(inst)
            if zs.size == 0:
                continue
            z_ref = math.exp(q) * N * math.exp(-TH * u)
            assert float(zs.z.min()) >= z_ref / 16.0
            assert float(zs.z.max()) <= z_ref * 16.0
            if zs.size >= 8:
                size_ref = math.exp(u) * N ** (theta - 1.0) * math.exp(q)
                assert size_ref / 8.0 <= zs.size <= size_ref * 8.0


def test_duq_bound_check_grid():
    rows = duq_bound_check(0.5, 256, 0.1)
    assert len(rows) > 0
    for row in rows:
        if row["vacuous"]:
            assert row["duq"] == 0 and row["zdiag"] == 0
        assert row["duq_ratio"] <= 50.0
        assert row["zdiag_ratio"] <= 50.0
    us = sorted({row["u"] for row in rows})
    logN = math.log(256)
    assert all((1.0 - 0.1) * logN < u <= (1.0 + 0.1) * logN + 1 for u in us)


def test_duq_bound_check_resource_guard():
    with pytest.raises(ResourceGuardError):
        duq_bound_check(0.5, 600, 0.1)


# a small cell: 74,750 z pairs and 38 j, 2,840,500 products
CELL = DioInstance(theta=0.5, j_lo=2, j_hi=40, m_lo=1, m_hi=400, gap_lo=1,
                   gap_hi=300, threshold=3.0)


def _peak(fn):
    """(fn(), bytes allocated at the peak of the call above its start)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_enumeration_byte_counts_cover_the_measured_peaks():
    zset, peak = _peak(lambda: build_zset(CELL))
    # 64 kB for the few Python objects a call holds outside its arrays
    assert peak <= zset.size * diophantine._BYTES_PER_Z + 2 ** 16
    est = CELL.js.size * zset.size
    _, peak = _peak(lambda: count_duq(CELL, zset))
    assert peak <= est * diophantine._BYTES_PER_PRODUCT + 2 ** 16


def test_enumerations_past_the_memory_budget_are_refused_unbuilt(
        monkeypatch):
    zset = build_zset(CELL)
    count = count_duq(CELL, zset)
    z_need = zset.size * diophantine._BYTES_PER_Z
    p_need = CELL.js.size * zset.size * diophantine._BYTES_PER_PRODUCT
    calls = []

    def spy(values, expo):
        calls.append(np.size(values))
        return _pow_ld(values, expo)

    monkeypatch.setattr(diophantine, "_pow_ld", spy)
    monkeypatch.setattr(_pool, "_memory_budget", lambda: p_need - 1)
    with pytest.raises(ResourceGuardError, match=f"need {p_need}, "):
        count_duq(CELL, zset)
    assert calls == []
    monkeypatch.setattr(_pool, "_memory_budget", lambda: z_need - 1)
    with pytest.raises(ResourceGuardError, match=f"need {z_need}, "):
        build_zset(CELL)
    assert calls == []
    # at exactly their need both are built
    monkeypatch.setattr(_pool, "_memory_budget", lambda: max(z_need, p_need))
    assert count_duq(CELL) == count
    assert sorted(calls) == [CELL.js.size, CELL.m_hi - CELL.m_lo + 1]
