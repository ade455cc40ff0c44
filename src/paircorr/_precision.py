"""Extended-precision phase helpers.

Phases like ``alpha * j * y**theta`` reach 1e8 and beyond before reduction
mod 1, so 53-bit arithmetic would leave only ~8 correct digits in the
fractional part.  Every reduction here goes through the platform long double
(80-bit extended on x86), and only the reduced value is handed back to
float64 circle arithmetic.  LD_NMANT records the long double's mantissa
bits; the runner refuses to start when it is below 63.

``frac`` reduces exactly and returns the bits of
``(x - floor(x)).astype(float64)`` without calling the long-double floor
(``floorl``, several times the cost of the rest) on the common path:

- cast to int64, which truncates toward zero, and take ``r = x - trunc(x)``;
  for |x| < 2**63 this difference is exact in any binary format;
- add 1 where ``r < 0``, and only there: for a negative non-integer,
  ``x - floor(x)`` and ``r + 1`` are the same exact value rounded once, so
  the bits agree;
- add 0 to the float64 result, which turns the ``-0.0`` that ``-0.0 - 0``
  gives into the ``+0.0`` of ``x - floor(x)``;
- skip both steps when every x, rounded to float64, is above 0: then no
  remainder is negative or ``-0.0`` (a tiny negative x rounds to ``-0.0``,
  which fails the test);
- only elements with |x| >= 2**63, infinities and NaN, which int64 cannot
  hold, go through ``x - floor(x)``.  Past 2**63 a long double need not be
  an integer (113-bit quad on aarch64), so they are not assumed to be.
  They are found by a range test on x rounded to float64, not by the value
  an out-of-range cast returns, which differs between platforms.

``e_frac`` evaluates e(x) = exp(2 pi i x) from a table of the 1024 turns
e(k / 1024) and a short series in the rest of the turn, in float64; it is
closer to e(x) than ``exp(2j * pi * x)`` (2.5e-16 against 7.1e-16 absolute
on 20,000 seeded arguments, against 30-digit mpmath).
"""

import math

import numpy as np

LD = np.longdouble
EPS_LD = float(np.finfo(LD).eps)
LD_NMANT = int(np.finfo(LD).nmant)
TWO_PI = 2.0 * math.pi
_TWO_63 = 2.0 ** 63


def as_ld(x):
    return np.asarray(x, dtype=LD)


def _pow_ld(values, expo: float):
    """values**expo in long double; exact-path sqrt for expo = 1/2."""
    b = as_ld(values)
    if expo == 0.5:
        return np.sqrt(b)
    return np.power(b, LD(expo))


def frac(x):
    """Fractional part in [0, 1], computed in long double, returned as float64.

    The same bits as (x - floor(x)).astype(float64), 1.0 included: a tiny
    negative x rounds x - floor(x) up to 1.
    """
    x = as_ld(x)
    if x.ndim == 0:
        return frac(x.reshape(1))[0]
    with np.errstate(invalid="ignore", over="ignore"):
        # float64 rounds the range test outwards only near 2**63, where the
        # exact long-double mask below decides
        wide = x.astype(np.float64)
        lo, hi = (wide.min(), wide.max()) if x.size else (1.0, 1.0)
        inside = -_TWO_63 < lo and hi < _TWO_63
        del wide
        r = x - x.astype(np.int64)
        # x > 0 everywhere (the phases) leaves no negative r and no -0.0
        mend = not lo > 0
        if mend:
            neg = r < 0
            if neg.any():
                np.add(r, 1, out=r, where=neg)
        out = r.astype(np.float64)
        if mend:
            out += 0.0
    if not inside:
        big = ~(np.abs(x) < _TWO_63)
        if big.any():
            xb = x[big]
            out[big] = (xb - np.floor(xb)).astype(np.float64)
    return out


def _turn_table():
    """cos and sin of the turns k / 1024, k < 1024, as two float64 arrays.

    They are taken on the first octant (k <= 128) only; every other entry
    is one of those, swapped or negated, exactly, so the quarter turns are
    exactly 1, i, -1 and -i.
    """
    x = np.arange(129) * (TWO_PI / 1024.0)
    c, s = np.cos(x), np.sin(x)
    # first quadrant: e(1/4 - t) is e(t) with the parts swapped
    re = np.concatenate([c, s[127:0:-1]])
    im = np.concatenate([s, c[127:0:-1]])
    # e(1/4 + t) = i e(t), e(1/2 + t) = -e(t), e(3/4 + t) = -i e(t)
    return (np.concatenate([re, -im, -re, im]),
            np.concatenate([im, re, -im, -re]))


_COS, _SIN = _turn_table()


def e_frac(fr):
    """e(x) = exp(2 pi i x) for arguments already reduced to [0, 1].

    Write x = (k + r) / 1024 with k = trunc(1024 x) and r = 1024 x - k,
    both exact (the scale only moves the exponent).  Then
    e(x) = e(k / 1024) * (c + i s): the first factor from the table, the
    second from the Taylor polynomials of cos and sin at t = 2 pi r / 1024,
    |t| < 0.0062, whose first omitted terms are below 1e-16 and 1e-19.
    x = 1.0, which frac may return, takes e(0) = 1.

    The complex product is written out in real multiplies and adds, one
    ufunc each: numpy's complex multiply fuses them (FMA) on some paths and
    not on others, so its bits would depend on the array's length.
    """
    fr = np.asarray(fr, dtype=np.float64)
    if fr.ndim == 0:
        return e_frac(fr.reshape(1))[0]
    with np.errstate(invalid="ignore"):  # NaN stays NaN through the series
        t = fr * 1024.0
        k = t.astype(np.int64)
    t -= k
    t *= TWO_PI / 1024.0
    t2 = t * t
    c = t2 * (1.0 / 24.0)
    c -= 0.5
    c *= t2
    c += 1.0
    s = t2 * (1.0 / 120.0)
    s -= 1.0 / 6.0
    s *= t2
    s += 1.0
    s *= t
    # the table entries go to t and t2, which are spent: fewer fresh arrays
    k &= 1023
    tc = np.take(_COS, k, out=t, mode="clip")
    ts = np.take(_SIN, k, out=t2, mode="clip")
    out = np.empty(t.shape, np.complex128)
    np.multiply(tc, c, out=out.real)
    np.multiply(tc, s, out=out.imag)
    s *= ts
    c *= ts
    out.real -= s
    out.imag += c
    return out


def iceil(x):
    """ceil of x moved down by a relative 1e-12: an int, or an int64 array.

    An integer endpoint that float64 rounding carried just past the integer
    still rounds to that integer; callers give such endpoints zero weight,
    so the nudge only settles ties.
    """
    x = np.asarray(x, dtype=np.float64)
    # the factor is 1 - 1e-12 for x > 0 and 1 + 1e-12 otherwise, exactly
    out = np.ceil(x * (1.0 - np.copysign(1e-12, x)))
    return int(out) if out.ndim == 0 else out.astype(np.int64)


def ifloor(x):
    """floor(x) of x moved up by a relative 1e-12; see iceil."""
    x = np.asarray(x, dtype=np.float64)
    out = np.floor(x * (1.0 + np.copysign(1e-12, x)))
    return int(out) if out.ndim == 0 else out.astype(np.int64)


def csum(values) -> complex:
    """Exactly rounded complex sum of a 1-d array (via math.fsum)."""
    v = np.asarray(values)
    if v.size == 0:
        return 0j
    return complex(math.fsum(v.real), math.fsum(v.imag))
