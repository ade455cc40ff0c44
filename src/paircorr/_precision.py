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
- add 1 where ``r < 0``: for a negative non-integer, ``x - floor(x)`` and
  ``r + 1`` are the same exact value rounded once, so the bits agree;
- add 0 everywhere else, which turns the ``-0.0`` that ``-0.0 - 0`` gives
  into the ``+0.0`` of ``x - floor(x)``;
- only elements with |x| >= 2**63, infinities and NaN, which int64 cannot
  hold, go through ``x - floor(x)``.  Past 2**63 a long double need not be
  an integer (113-bit quad on aarch64), so they are not assumed to be.
  They are found by a range test on x rounded to float64, not by the value
  an out-of-range cast returns, which differs between platforms.
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
        inside = not x.size or (wide.min() > -_TWO_63
                                and wide.max() < _TWO_63)
        del wide
        r = x - x.astype(np.int64)
        r += r < 0
        out = r.astype(np.float64)
    if not inside:
        big = ~(np.abs(x) < _TWO_63)
        if big.any():
            xb = x[big]
            out[big] = (xb - np.floor(xb)).astype(np.float64)
    return out


def e_frac(fr):
    """e(x) = exp(2 pi i x) for arguments already reduced to [0, 1)."""
    fr = np.asarray(fr, dtype=np.float64)
    return np.exp(1j * TWO_PI * fr)


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
