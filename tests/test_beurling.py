"""Beurling majorant series and the certified cut-off family."""

import numpy as np
import pytest

from paircorr.beurling import _b_on_grid, build_beurling_selberg

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


def test_builder_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_beurling_selberg(series_cutoff=100)
    with pytest.raises(ValueError):
        build_beurling_selberg(x_max=10.0)
    with pytest.raises(ValueError):
        build_beurling_selberg(spacing=1.0 / 100.0)


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
