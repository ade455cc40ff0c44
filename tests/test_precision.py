"""Long-double reduction mod 1: frac against the floor form, bit for bit."""

import mpmath
import numpy as np
import pytest

from paircorr._precision import LD, as_ld, frac

TWO_62, TWO_63, TWO_70 = LD(2) ** 62, LD(2) ** 63, LD(2) ** 70


def floor_form(x):
    x = as_ld(x)
    with np.errstate(invalid="ignore"):  # inf - floor(inf)
        return (x - np.floor(x)).astype(np.float64)


def assert_same_bits(got, want):
    assert got.dtype == np.float64 and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64),
                          want[~nan].view(np.uint64))


def test_integers_and_their_neighbours():
    ks = np.arange(1, 5001).astype(LD)
    ks = np.concatenate([ks, -ks])
    inf = LD(np.inf)
    for x in (ks, np.nextafter(ks, inf), np.nextafter(ks, -inf)):
        assert_same_bits(frac(x), floor_form(x))
    assert not frac(ks).any()


def test_signed_zero_gives_plus_zero():
    x = as_ld([0.0, -0.0, -3.0])
    got = frac(x)
    assert_same_bits(got, floor_form(x))
    assert not np.signbit(got).any()
    assert not np.signbit(frac(-0.0))


def test_negative_non_integers():
    x = -np.array([0.5, 1.25, 3.75, 4999.5, 1e-30, 1e-300, LD(10) ** -4000,
                   LD(10) ** 18 + LD(0.5), TWO_62 - LD(0.5), TWO_63 - 1],
                  dtype=LD)
    got = frac(x)
    assert_same_bits(got, floor_form(x))
    assert got[4] == 1.0  # 1 - 1e-30 rounds up in the floor form as well


def test_near_and_past_two_to_63():
    mags = [TWO_62 - 1, TWO_62 - LD(0.5), TWO_63 - 1, TWO_63, TWO_63 + 2,
            TWO_70, TWO_70 + TWO_62, LD(10) ** 400]
    x = np.array(mags + [-m for m in mags], dtype=LD)
    assert_same_bits(frac(x), floor_form(x))
    # one big element among ordinary ones is reduced in place
    mixed = np.array([0.25, -0.25, 7.5, TWO_70 + 128], dtype=LD)
    assert_same_bits(frac(mixed), floor_form(mixed))


def test_infinities_and_nan_give_nan():
    x = as_ld([np.inf, -np.inf, np.nan, 1.5])
    with np.errstate(invalid="ignore"):
        got = frac(x)
    assert np.isnan(got[:3]).all() and got[3] == 0.5
    assert_same_bits(got, floor_form(x))


@pytest.mark.parametrize("top", [1.0, 1e6, 1e12, 4e18])
def test_seeded_uniform_both_signs(top):
    rng = np.random.default_rng(20211)
    x = (rng.uniform(-1.0, 1.0, 50_000).astype(LD) * LD(top)
         * as_ld(rng.uniform(1.0, 2.0, 50_000)) / 2)
    assert_same_bits(frac(x), floor_form(x))
    square = x[:40_000].reshape(200, 200)
    assert_same_bits(frac(square), floor_form(square))


def test_scalars_stay_scalars():
    for x in (2.75, -2.75, 3, LD(-0.125), as_ld(5.5), np.float64(-1e-30)):
        got = frac(x)
        assert type(got) is np.float64
        assert got == floor_form(x)
    assert frac(np.zeros(0, LD)).shape == (0,)


def test_common_path_takes_no_floor(monkeypatch):
    calls = []
    floor = np.floor

    def spy(x, *args, **kwargs):
        calls.append(np.size(x))
        return floor(x, *args, **kwargs)

    monkeypatch.setattr(np, "floor", spy)
    x = as_ld(np.linspace(-1e18, 1e18, 1001))
    frac(x)
    frac(np.concatenate([x, [TWO_63 - 1, -(TWO_63 - 1)]]))
    assert calls == []
    frac(np.concatenate([x, [TWO_70, as_ld(np.nan)]]))
    assert calls == [2]


def test_paper_phases_against_mpmath():
    # alpha * j * y**theta in long double, as the library forms it, up to
    # |x| = 1e12; each step rounds to 2**-64 relative, the reduction is exact
    # and float64 rounds once more
    rng = np.random.default_rng(7)
    with mpmath.workdps(100):
        for _ in range(300):
            theta = float(rng.choice([0.3, 0.5, 0.7]))
            alpha = float(rng.uniform(1.0, 2.0))
            y = int(rng.integers(1, 10**6))
            j_max = int(1e12 / (alpha * y ** theta))
            j = int(rng.integers(1, max(2, j_max)))
            x = as_ld(alpha) * LD(j) * np.power(LD(y), LD(theta))
            exact = (mpmath.mpf(alpha) * j
                     * mpmath.power(y, mpmath.mpf(theta)))
            d = abs(mpmath.mpf(float(frac(x))) - mpmath.frac(exact))
            d = min(d, 1 - d)
            assert float(d) <= 4 * 2.0 ** -63 * float(exact) + 2.0 ** -53
