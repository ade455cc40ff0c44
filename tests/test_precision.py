"""Long-double reduction mod 1: frac against the floor form, bit for bit;
e(.) by its turn table against mpmath; fuzzy integer rounding against the
inline formulas it replaced; the bucketed exact row sums against
math.fsum, bit for bit."""

import math
import re
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from paircorr import _precision
from paircorr._precision import (LD, as_ld, csum, e_frac, exact_row_sums,
                                 frac, iceil, ifloor)
from paircorr.diophantine import dio_instance
from paircorr.expsums import SequenceSpec, _band, _windows

TWO_62, TWO_63, TWO_70 = LD(2) ** 62, LD(2) ** 63, LD(2) ** 70
# the message of frac's one refusal, for every x outside its domain
DOMAIN = re.escape("frac takes x in [0, 2**63), not -0.0 or NaN")


def floor_form(x):
    x = as_ld(x)
    return (x - np.floor(x)).astype(np.float64)


def assert_same_bits(got, want):
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_refused(x):
    out = np.empty(np.shape(x))
    for kwargs in ({}, {"out": out}):
        with pytest.raises(ValueError, match=DOMAIN):
            frac(as_ld(x), **kwargs)


def test_integers_and_their_neighbours():
    ks = np.arange(1, 5001).astype(LD)
    inf = LD(np.inf)
    for x in (ks, np.nextafter(ks, inf), np.nextafter(ks, -inf)):
        assert_same_bits(frac(x), floor_form(x))
    assert not frac(ks).any()
    # 1 - 2**-64 rounds up to 1.0 in the floor form as well
    assert frac(np.nextafter(ks[:1], -inf)).tolist() == [1.0]
    # the negative integers and their neighbours are refused, alone and
    # among the positive ones
    for x in (-ks, np.nextafter(-ks, inf), np.concatenate([ks, -ks[:1]])):
        assert_refused(x)


def test_signed_zero_gives_plus_zero():
    x = as_ld([0.0, 3.0, 0.5])
    got = frac(x)
    assert_same_bits(got, floor_form(x))
    assert not np.signbit(got).any()
    # no caller forms -0.0; it is refused, not handed back as -0.0
    assert_refused([-0.0])
    assert_refused([0.0, -0.0, 3.0])


def test_negative_non_integers():
    mags = np.array([0.5, 1.25, 3.75, 4999.5, 1e-30, 1e-300,
                     LD(10) ** -4000, LD(10) ** 18 + LD(0.5),
                     TWO_62 - LD(0.5)], dtype=LD)
    assert_same_bits(frac(mags), floor_form(mags))
    # each negative is refused, the tiny ones too, whose float64 rounding
    # is -0.0; one among positive values refuses the whole array
    for m in mags:
        assert_refused(as_ld([-m]))
        assert_refused(np.concatenate([mags, as_ld([-m])]))


def test_near_and_past_two_to_63():
    # just below 2**62, and up to the last float64 below 2**63
    below = np.array([TWO_62 - 1, TWO_62 - LD(0.5), TWO_62 - LD(0.25),
                      TWO_62 + LD(0.5), TWO_63 - 2 ** 10], dtype=LD)
    assert_same_bits(frac(below), floor_form(below))
    # 2**63 - 1 rounds to 2**63 in float64, which the range test refuses
    past = [TWO_63 - 1, TWO_63, TWO_63 + 2, TWO_70, TWO_70 + TWO_62,
            LD(10) ** 400]
    for m in past:
        assert_refused(as_ld([m]))
        assert_refused(as_ld([0.25, 7.5, m]))
        assert_refused(as_ld([-m]))


def test_infinities_and_nan_are_refused():
    for bad in (np.inf, -np.inf, np.nan, -np.nan):
        assert_refused(as_ld([bad]))
        assert_refused(as_ld([1.5, bad, 2.25]))


@pytest.mark.parametrize("top", [1.0, 1e6, 1e12, 4e18])
def test_seeded_uniform_both_signs(top):
    rng = np.random.default_rng(20211)
    x = (rng.uniform(0.0, 1.0, 50_000).astype(LD) * LD(top)
         * as_ld(rng.uniform(1.0, 2.0, 50_000)) / 2)
    assert_same_bits(frac(x), floor_form(x))
    square = x[:40_000].reshape(200, 200)
    assert_same_bits(frac(square), floor_form(square))
    # the same draws negated, and one negated among them, are refused
    assert_refused(-x[x > 0])
    y = x.copy()
    y[rng.integers(0, y.size)] *= -1
    assert_refused(y[y != 0])


def test_one_element_arrays_keep_their_shape():
    for x in (2.75, 3, LD(0.125), 5.5, np.float64(1e-30), 0.0):
        x = as_ld([x])
        assert_same_bits(frac(x), floor_form(x))
    for x in (-2.75, LD(-0.125), np.float64(-1e-30)):
        assert_refused(as_ld([x]))
    assert frac(np.zeros(0, LD)).shape == (0,)


def test_common_path_takes_no_floor(monkeypatch):
    calls = []
    floor = np.floor

    def spy(x, *args, **kwargs):
        calls.append(np.size(x))
        return floor(x, *args, **kwargs)

    monkeypatch.setattr(np, "floor", spy)
    x = as_ld(np.linspace(0.0, 1e18, 1001))
    frac(x)
    frac(np.concatenate([x, [TWO_62 - 1, TWO_63 - 2 ** 10]]))
    for bad in (TWO_63, TWO_70, as_ld(np.nan), -1.0):
        with pytest.raises(ValueError, match=DOMAIN):
            frac(np.concatenate([x, [bad]]))
    assert calls == []


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
            x = as_ld([alpha]) * LD(j) * np.power(LD(y), LD(theta))
            exact = (mpmath.mpf(alpha) * j
                     * mpmath.power(y, mpmath.mpf(theta)))
            d = abs(mpmath.mpf(float(frac(x)[0])) - mpmath.frac(exact))
            d = min(d, 1 - d)
            assert float(d) <= 4 * 2.0 ** -63 * float(exact) + 2.0 ** -53


@pytest.mark.parametrize("sign", ["positive", "negative", "mixed"])
def test_with_and_without_negative_remainders(sign):
    # positive phases reduce to floor's bits, never to -0.0; an array with
    # one element at or below -0.0 (a tiny negative rounds to -0.0 in
    # float64) is refused whole
    rng = np.random.default_rng(2014)
    x = as_ld(rng.uniform(0.0, 1e9, 20_000)) + as_ld(rng.random(20_000))
    x = np.concatenate([x, as_ld([7.0, LD(10) ** -4000, TWO_62 - 1])])
    if sign == "positive":
        for y in [x] + [np.concatenate([x, as_ld([v])]) for v in (0.0, 5.0)]:
            got = frac(y)
            assert_same_bits(got, floor_form(y))
            assert not np.signbit(got).any()
        odd = [-0.0, -5.0, -(LD(10) ** -4000), -1e-300, -0.5]
        for v in odd:
            assert_refused(np.concatenate([x, as_ld([v])]))
    else:
        if sign == "negative":
            x = -x
        else:
            x[::3] *= -1
        assert_refused(x)


def exact_e(x):
    with mpmath.workdps(40):
        return mpmath.expjpi(2 * mpmath.mpf(float(x)))


def test_e_frac_against_mpmath():
    rng = np.random.default_rng(1024)
    turns = np.arange(1025) / 1024
    x = np.concatenate([
        rng.random(4000), [0.0, 1.0, 1 - 2.0 ** -53],
        turns, np.nextafter(turns, 2.0), np.nextafter(turns, -1.0),
        [-1e-300, -2.0 ** -60, -2.0 ** -53, -1e-17]])
    got = e_frac(x)
    assert got.dtype == np.complex128 and got.shape == x.shape
    with mpmath.workdps(40):
        err = max(abs(mpmath.mpc(complex(z)) - exact_e(v))
                  for z, v in zip(got.tolist(), x.tolist()))
    assert err <= 3e-16
    square = x[:4000].reshape(40, 100)
    assert e_frac(square).tobytes() == got[:4000].tobytes()


def test_e_frac_quarter_turns_are_exact():
    got = e_frac(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    assert got.tolist() == [1, 1j, -1, -1j, 1]
    assert e_frac(np.array([0.25])).tolist() == [1j]
    assert e_frac(np.zeros((2, 0))).shape == (2, 0)


def test_e_frac_bits_do_not_depend_on_the_array():
    # each element alone, in a long array and in a strided view
    x = np.random.default_rng(3).random(300)
    got = e_frac(x)
    alone = np.concatenate([e_frac(x[i:i + 1]) for i in range(x.size)])
    assert alone.tobytes() == got.tobytes()
    assert e_frac(x[::3]).tobytes() == got[::3].tobytes()


def test_e_frac_parts_written_to_out_are_the_complex_parts():
    turns = np.arange(1025) / 1024
    x = np.concatenate([
        np.random.default_rng(3).random(300), [0.0, 1.0, np.nan],
        turns, np.nextafter(turns, 2.0), np.nextafter(turns, -1.0)])
    for fr in (x, x[:1], x[:0], x[:300].reshape(20, 15)):
        want = e_frac(fr)
        re, im = np.full(fr.shape, 7.0), np.full(fr.shape, 7.0)
        out = e_frac(fr, out=(re, im))
        assert out[0] is re and out[1] is im
        assert re.tobytes() == np.real(want).tobytes()
        assert im.tobytes() == np.imag(want).tobytes()
    # strided parts, as the real and imaginary views of a complex array
    z = np.empty(x.shape, np.complex128)
    e_frac(x, out=(z.real, z.imag))
    assert z.tobytes() == e_frac(x).tobytes()


def test_frac_written_to_out_has_the_same_bits():
    cases = [
        np.array([0.5, 1.25, 4999.5, 1e-30, LD(10) ** -4000, TWO_62 - 1]),
        as_ld([0.0, 3.0]),
        np.array([TWO_62 - 1, TWO_62 + LD(0.5), TWO_63 - 2 ** 10], dtype=LD),
        as_ld(np.random.default_rng(9).uniform(0.0, 1e9, (40, 50))),
        as_ld([2.75]), as_ld([1e-30]), np.zeros(0, LD)]
    for x in cases:
        x = as_ld(x)
        want = frac(x)
        out = np.full(x.shape, 7.0)
        assert frac(x, out=out) is out
        assert want.tobytes() == out.tobytes()
        assert_same_bits(out, floor_form(x))


def test_out_of_the_wrong_shape_or_dtype_raises():
    x = np.linspace(0.0, 1.0, 6)
    bad = [np.empty(5), np.empty((2, 3)), np.empty(6, np.float32),
           np.empty(6, LD), np.empty(6, np.int64), [0.0] * 6]
    for out in bad:
        with pytest.raises(ValueError):
            frac(as_ld(x), out=out)
        with pytest.raises(ValueError):
            e_frac(x, out=(out, np.empty(6)))
        with pytest.raises(ValueError):
            e_frac(x, out=(np.empty(6), out))


def test_scalars_and_0d_arrays_raise_one_value_error():
    # the 0-d forms once returned a 0-d array, or failed inside numpy with
    # a TypeError that did not name the contract
    for x in (as_ld(2.75), as_ld(-2.75), 2.75, LD(-2.75)):
        with pytest.raises(ValueError, match="frac takes arrays of one or "
                                             "more dimensions"):
            frac(x)
        with pytest.raises(ValueError, match="frac takes arrays"):
            frac(x, out=np.empty(()))
    for fr in (0.25, np.float64(0.25), np.array(0.25)):
        with pytest.raises(ValueError, match="e_frac takes arrays of one or "
                                             "more dimensions"):
            e_frac(fr)
        with pytest.raises(ValueError, match="e_frac takes arrays"):
            e_frac(fr, out=(np.empty(()), np.empty(())))


# the inline rounding of _windows, _band and dio_instance before iceil and
# ifloor, kept as the reference those must reproduce
def old_iceil(x: float) -> int:
    return int(math.ceil(x * (1.0 - 1e-12) if x > 0 else x * (1.0 + 1e-12)))


def old_ifloor(x: float) -> int:
    return int(math.floor(x * (1.0 + 1e-12) if x > 0 else x * (1.0 - 1e-12)))


def old_windows(spec, js):
    th, N = spec.theta, spec.N
    taj = np.multiply.outer(th * spec.alphas, js.astype(np.float64)).ravel()
    lo = np.ceil(taj * (2.0 * N) ** (th - 1.0) * (1.0 - 1e-12))
    hi = np.floor(taj * float(N) ** (th - 1.0) * (1.0 + 1e-12))
    lo = np.maximum(lo, 1.0).astype(np.int64)
    hi = hi.astype(np.int64)
    return lo, hi, np.maximum(hi - lo + 1, 0)


def old_band(N, eps):
    lo = int(math.ceil(N ** (1.0 - eps) * (1.0 - 1e-12)))
    hi = int(math.floor(N ** (1.0 + eps) * (1.0 + 1e-12)))
    return np.arange(max(lo, 1), hi + 1, dtype=np.int64)


def test_fuzzy_rounding_on_integers_and_their_neighbours():
    rng = np.random.default_rng(2021)
    ks = np.concatenate([np.arange(-300, 301), rng.integers(-2**40, 2**40, 300)])
    k = ks.astype(np.float64)
    xs = np.concatenate([k, np.nextafter(k, np.inf), np.nextafter(k, -np.inf),
                         k * (1 + 5e-13), k * (1 - 5e-13), k * (1 + 2e-12),
                         k * (1 - 2e-12), rng.uniform(-1e6, 1e6, 2000)])
    up, down = iceil(xs), ifloor(xs)
    assert up.dtype == down.dtype == np.int64
    assert up.tolist() == [old_iceil(x) for x in xs.tolist()]
    assert down.tolist() == [old_ifloor(x) for x in xs.tolist()]
    for x in xs[::97].tolist():
        assert type(iceil(x)) is int and iceil(x) == old_iceil(x)
        assert type(ifloor(x)) is int and ifloor(x) == old_ifloor(x)


def test_windows_band_and_dio_cells_keep_their_integers():
    # alpha = 1, 1.5, 2 and N = 2 k^2 put many endpoints on integer ties,
    # their one-ulp neighbours put them within 1e-12 of one
    rng = np.random.default_rng(7)
    tie_alphas = np.array([1.0, 1.5, 2.0])
    tie_alphas = np.concatenate([tie_alphas, np.nextafter(tie_alphas, 1.5)])
    ties = inexact = 0
    for theta in (0.25, 0.5, 0.75):
        for N in (2, 8, 50, 200, 1000, 2 * 70 ** 2):
            alphas = np.concatenate((tie_alphas, rng.uniform(1, 2, 5)))
            js = np.arange(1, 4 * N + 1)
            block = SequenceSpec(theta, alphas, N)
            new, old = _windows(block, js), old_windows(block, js)
            for a, b in zip(new, old):
                assert a.dtype == np.int64 and np.array_equal(a, b)
            taj = np.multiply.outer(theta * alphas, js.astype(float)).ravel()
            for c in ((2.0 * N) ** (theta - 1.0), float(N) ** (theta - 1.0)):
                edge = taj * c
                near = np.abs(edge - np.round(edge)) <= 1e-12 * edge
                ties += int(near.sum())
                inexact += int((near & (edge != np.round(edge))).sum())
            for eps in (0.0, 0.05, 0.1, 0.5):
                assert np.array_equal(_band(N, eps), old_band(N, eps))
    assert ties > 100 and inexact > 100
    for theta in (0.3, 0.5, 0.7):
        for N in (4, 16, 100, 256, 512, 4096):
            logN = math.log(N)
            for eps in (0.05, 0.1, 0.2):
                for u in range(1, int((1 + eps) * logN + 1e-9) + 1):
                    for q in range(0, int((theta + eps) * logN + 1e-9) + 1):
                        inst = dio_instance(theta, N, eps, u, q)
                        m_min = (theta * 2.0 ** (theta - 1.0) * math.exp(u)
                                 * N ** (theta - 1.0))
                        m_max = (2.0 * theta * math.exp(u + 1.0)
                                 * N ** (theta - 1.0))
                        assert (inst.j_lo, inst.j_hi, inst.m_lo, inst.m_hi,
                                inst.gap_lo, inst.gap_hi) == (
                            old_iceil(math.exp(u)),
                            old_iceil(math.exp(u + 1.0)),
                            max(1, old_iceil(m_min)), old_ifloor(m_max),
                            old_iceil(math.exp(q)),
                            old_iceil(math.exp(q + 1.0)))


# values across the whole finite range: hypothesis' own floats, a mantissa
# times any binary exponent, and exact multiples of the least subnormal
_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1100, 1023)),
    st.integers(-(2 ** 53), 2 ** 53).map(lambda k: k * 5e-324),
    st.sampled_from([0.0, -0.0]))


@st.composite
def _rows(draw):
    """Rows of one width (zero allowed), some entries the exact negatives
    of others, so that whole rows may cancel to zero."""
    width = draw(st.integers(0, 24))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.lists(_finite, min_size=width, max_size=width))
        flips = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        for i in range(width // 2):
            if flips[i]:
                row[width - 1 - i] = -row[i]
        rows.append(row)
    return rows


@given(rows=_rows(), block=st.sampled_from([1, 2, 3, 1 << 26]))
@example(rows=[[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]], block=1 << 26)
@example(rows=[[5e-324], [-1.5], [1e308]], block=1 << 26)
@example(rows=[[], [], []], block=1 << 26)
@example(rows=[[1e308, 1e308, -1e308, -1e308, 1.0, 2.0 ** -1074]], block=2)
# exponents from the least subnormal to near the top, a zero among them
@example(rows=[[1e-300, 0.0, 1e300, 1.0, 5e-324, -1e-300]], block=1 << 26)
@settings(max_examples=400, deadline=None)
def test_exact_row_sums_are_fsums_bit_for_bit(rows, block):
    want = []
    for row in rows:
        try:
            want.append(math.fsum(row))
        except OverflowError:  # fsum's intermediate overflow: no reference
            reject()
    # a zero sum is +0.0, as math.fsum gives it on Python 3.11
    want = np.array([w or 0.0 for w in want])
    X = np.array(rows, dtype=np.float64).reshape(len(rows), -1)
    with mock.patch.object(_precision, "_COLUMN_BLOCK", block):
        got = exact_row_sums(X)
    assert got.tobytes() == want.tobytes()


def test_exact_row_sums_edges():
    assert exact_row_sums(np.zeros((0, 5))).shape == (0,)
    assert exact_row_sums(np.zeros((3, 0))).tobytes() == np.zeros(3).tobytes()
    with pytest.raises(ValueError):
        exact_row_sums(np.ones(4))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            exact_row_sums(np.array([[1.0, bad]]))
    # past the float range the sum overflows loudly, as math.fsum's does
    with pytest.raises(OverflowError):
        exact_row_sums(np.array([[1e308, 1e308]]))
    assert csum(np.array([1e16 + 1j, 1.0 - 1e-300j, -1e16])) == complex(
        1.0, math.fsum([1.0, -1e-300]))
    assert csum(np.zeros(0)) == 0j
