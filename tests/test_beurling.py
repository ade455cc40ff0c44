"""Beurling majorant series and the certified cut-off family."""

import math

import numpy as np
import pytest

from paircorr import beurling
from paircorr.beurling import _b_on_grid

from oracles import beurling_B


def test_B_at_integers():
    # B interpolates sgn at the integers; B(0) = 1
    assert beurling_B(0.0) == pytest.approx(1.0, abs=1e-9)
    assert beurling_B(1.0) == pytest.approx(1.0, abs=1e-3)
    for n in (2.0, 5.0, 9.0):
        assert beurling_B(n) == pytest.approx(1.0, abs=1e-9)
        assert beurling_B(-n) == pytest.approx(-1.0, abs=1e-9)


def test_B_majorizes_sign():
    xs = np.linspace(-10.0, 10.0, 4001)
    assert float(np.min(beurling_B(xs) - np.sign(xs))) >= -1e-6


def test_B_truncation_stability():
    a = beurling_B(-5.5, 10**4)
    b = beurling_B(-5.5, 10**5)
    assert abs(a - b) < 1e-3


def test_B_argument_band_guard():
    with pytest.raises(ValueError):
        beurling_B(60.0, 100)
    with pytest.raises(ValueError):
        beurling_B(1.0, 0)


def test_builder_constants_stay_in_the_certified_band():
    # psi_hat reads B up to _X_MAX + 1, inside the series' band
    # |x| <= _CUTOFF / 2; the table's edge sits on the grid; and the grid,
    # series and table are large enough to meet the build's margins
    assert beurling._X_MAX + 1.5 <= beurling._CUTOFF / 2
    assert float(beurling._X_MAX * beurling._INV_H).is_integer()
    assert beurling._INV_H >= 256
    assert beurling._CUTOFF >= 10**3
    assert beurling._X_MAX >= 50


def test_psi_hat_majorizes_interval_indicator(bs):
    assert bs.psi_hat(0.0) == pytest.approx(1.0, abs=1e-3)
    xs = np.linspace(-1.0, 1.0, 2001)
    assert float(np.min(bs.psi_hat(xs))) >= 1.0 - 1e-9
    far = np.linspace(1.5, bs.x_max, 2001)
    assert float(np.min(bs.psi_hat(far))) >= -1e-9


def test_phi_nonnegative_and_supported(bs):
    ts = np.linspace(-4.0, 4.0, 1 << 16)
    vals = bs.phi(ts)
    assert float(vals.min()) >= 0.0
    assert float(np.max(np.abs(vals[np.abs(ts) > 1.0]))) <= 1e-3


def test_phi_equals_psi_plus_squared(bs):
    # identity is exact on the table; off-node both sides are interpolants
    assert bs.phi(0.0) == bs.psi_plus(0.0) ** 2
    ts = np.linspace(-4.0, 4.0, 4001)
    assert np.max(np.abs(bs.phi(ts) - bs.psi_plus(ts) ** 2)) < 1e-4


def test_phi_hat_tent_minorant(bs):
    xs = np.linspace(-3.0, 3.0, 10**4)
    vals = bs.phi_hat(xs)
    tent = np.maximum(2.0 - np.abs(xs), 0.0)
    assert float(np.min(vals)) >= -1e-9
    assert float(np.min(vals - tent)) >= -1e-3
    core = np.linspace(-1.0, 1.0, 4001)
    assert float(np.min(bs.phi_hat(core))) >= 1.0 - 1e-3
    assert bs.phi_hat(0.0) >= 2.0 - 1e-3
    assert bs.phi_hat(0.99) >= 1.0 - 1e-3


def test_phi_hat_matches_direct_transform_of_phi(bs):
    # independent route: numeric transform of the tabulated Phi
    ts = np.linspace(-1.0, 1.0, (1 << 15) + 1)
    pv = bs.phi(ts)
    for x in (0.0, 0.3, 1.0, 1.7):
        oracle = float(np.trapezoid(pv * np.cos(2.0 * np.pi * x * ts), ts))
        assert bs.phi_hat(x) == pytest.approx(oracle, abs=5e-4)


def test_margins_recorded(bs):
    assert bs.margins["phi_nonneg"] >= 0.0
    assert bs.margins["phi_hat_ge_tent"] >= -1e-4
    assert set(bs.margins) >= {"psi_hat_at_0_eq_1", "phi_hat_nonneg",
                               "psi_plus_small_outside", "phi_hat_at_0_ge_2"}


@pytest.mark.parametrize("i_lo, i_hi", [(-3000, 3000),
                                        (200 * 1024 - 2048, 200 * 1024)])
def test_b_on_grid_matches_the_series(i_lo, i_hi):
    # both signs and the integers, where the grid path returns sgn, then a
    # window below x_max = 200, the edge of the majorant's default table
    got = _b_on_grid(i_lo, i_hi, 1024, 10**4)
    want = beurling_B(np.arange(i_lo, i_hi + 1) / 1024)
    assert float(np.max(np.abs(got - want))) <= 1e-12


def _b_on_grid_by_scan(i_lo, i_hi, inv_h, cutoff):
    # the residue classes found by a full scan per class, kept as the
    # reference that the strided slices of _b_on_grid must match bit for bit
    M = int(cutoff)
    i_arr = np.arange(i_lo, i_hi + 1, dtype=np.int64)
    out = np.empty(i_arr.size, dtype=np.float64)
    r_all = np.mod(i_arr, inv_h)
    p_all = (i_arr - r_all) // inv_h
    kmin = int(p_all.min()) - M - 1
    kmax = int(p_all.max()) + M
    base = np.arange(kmin, kmax + 1, dtype=np.float64)
    for r in range(inv_h):
        sel = np.nonzero(r_all == r)[0]
        if sel.size == 0:
            continue
        if r == 0:
            out[sel] = np.where(i_arr[sel] >= 0, 1.0, -1.0)
            continue
        tau = r / inv_h
        csum = np.concatenate(([0.0], np.cumsum(1.0 / (base + tau) ** 2)))
        p = p_all[sel]
        y = i_arr[sel] / inv_h
        t_minus = csum[p - kmin + 1] - csum[p - M - kmin]
        t_plus = csum[p + M - kmin + 1] - csum[p + 1 - kmin]
        s2 = (math.sin(math.pi * tau) / math.pi) ** 2
        out[sel] = s2 * (2.0 / y + t_minus - t_plus
                         + 1.0 / (M + 0.5 - y) - 1.0 / (M + 0.5 + y))
    return out


@pytest.mark.parametrize("i_lo, i_hi, inv_h, cutoff", [
    (-3001, 2500, 1024, 10**3),    # negative i_lo off the class grid
    (-700, -100, 1024, 10**3),     # shorter than inv_h: empty classes
    (5, 300, 256, 10**3),
    (1024 - 200 * 1024, 1024 + 200 * 1024, 1024, 10**4),  # the default build
])
def test_b_on_grid_slices_match_the_scan(i_lo, i_hi, inv_h, cutoff):
    got = _b_on_grid(i_lo, i_hi, inv_h, cutoff)
    assert got.tobytes() == _b_on_grid_by_scan(i_lo, i_hi, inv_h,
                                               cutoff).tobytes()
