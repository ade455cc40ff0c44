"""Extended-precision phase helpers.

Phases like ``alpha * j * y**theta`` reach 1e8 and beyond before reduction
mod 1, so 53-bit arithmetic would leave only ~8 correct digits in the
fractional part.  Every reduction here goes through the platform long double
(80-bit extended on x86), and only the reduced value is handed back to
float64 circle arithmetic.  The powers come from ``_pow_ld`` (sqrt, or
powl) for small sets and for theta = 1/2, and from the anchored series of
``stats._powers`` for the window tables of every other theta.  LD_NMANT
records the long double's mantissa bits; the runner refuses to start when
it is below 63.

``frac`` reduces a phase in [0, 2**63), the only kind the library forms,
as ``x - trunc(x)`` through int64, exact for x >= 0 (Sterbenz): the bits of
``(x - floor(x)).astype(float64)`` without the long-double floor, several
times the cost of the rest.  It refuses any other input.

``e_frac`` evaluates e(x) = exp(2 pi i x) from a table of the 1024 turns
e(k / 1024) and a short series in the rest of the turn, in float64; it is
closer to e(x) than ``exp(2j * pi * x)`` (2.5e-16 against 7.1e-16 absolute
on 20,000 seeded arguments, against 30-digit mpmath).

Both take arrays of one or more dimensions, not scalars, and write into
arrays the caller gives (``frac(x, out=)``, ``e_frac(fr, out=(re, im))``),
so a caller that reuses its buffers takes no fresh memory for the results.

``exact_row_sums`` sums each row of a 2-d array exactly rounded, with the
bits of ``math.fsum``, by exponent buckets in one pass of numpy loops that
release the interpreter lock; ``csum`` is the complex sum built on it.
"""

import math

import numpy as np

LD = np.longdouble
LD_NMANT = int(np.finfo(LD).nmant)
TWO_PI = 2.0 * math.pi
# values in one bucket of exact_row_sums: 2**26 parts of at most 2**27 in
# magnitude sum to at most 2**53, which float64 holds exactly
_COLUMN_BLOCK = 1 << 26


def as_ld(x):
    return np.asarray(x, dtype=LD)


def _pow_ld(values, expo: float):
    """values**expo in long double: the correctly rounded sqrt for
    expo = 1/2, else the platform's powl (glibc's errs by up to 0.87 ulp).
    stats._powers takes its theta = 1/2 tables from here and builds the
    others from anchored series; powl serves the small callers."""
    b = as_ld(values)
    if expo == 0.5:
        return np.sqrt(b)
    return np.power(b, LD(expo))


def _out(out, shape):
    """out, checked to be a float64 array of the given shape."""
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == shape):
        raise ValueError(f"out must be a float64 array of shape {shape}")
    return out


def frac(x, out=None):
    """Fractional part in [0, 1], computed in long double, returned as float64.

    x is an array of one or more dimensions (0-d raises ValueError) of
    values in [0, 2**63): an element whose float64 rounding is negative,
    -0.0 (as a tiny negative's is), 2**63 or more, or NaN raises
    ValueError.  The bits of (x - floor(x)).astype(float64), 1.0 included.
    With out, a float64 array of x's shape, the result is written there
    and out is returned.
    """
    x = as_ld(x)
    if x.ndim == 0:
        raise ValueError("frac takes arrays of one or more dimensions")
    out = np.empty(x.shape) if out is None else _out(out, x.shape)
    with np.errstate(over="ignore"):
        np.copyto(out, x, casting="same_kind")
    # float64 rounds monotonically and holds 2**63, so an x whose rounding
    # is below 2**63 is below it too; NaN fails both comparisons
    lo, hi = out.min(initial=np.inf), out.max(initial=0.0)
    if not (0.0 <= lo and hi < 2.0 ** 63) or (
            lo == 0.0 and np.signbit(out).any()):
        raise ValueError("frac takes x in [0, 2**63), not -0.0 or NaN")
    np.subtract(x, x.astype(np.int64), out=out, casting="same_kind")
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


def e_frac(fr, out=None):
    """e(x) = exp(2 pi i x) for an array of arguments already reduced to
    [0, 1], of one or more dimensions (0-d raises ValueError).

    Write x = (k + r) / 1024 with k = trunc(1024 x) and r = 1024 x - k,
    both exact (the scale only moves the exponent).  Then
    e(x) = e(k / 1024) * (c + i s): the first factor from the table, the
    second from the Taylor polynomials of cos and sin at t = 2 pi r / 1024,
    |t| < 0.0062, whose first omitted terms are below 1e-16 and 1e-19.
    x = 1.0, which frac may return, takes e(0) = 1.

    The complex product is written out in real multiplies and adds, one
    ufunc each: numpy's complex multiply fuses them (FMA) on some paths and
    not on others, so its bits would depend on the array's length.

    With out = (re, im), two float64 arrays of fr's shape that share no
    element with each other or with fr, the real and imaginary parts are
    written there, with the bits of the complex result's, and out is
    returned; no complex array is built.
    """
    fr = np.asarray(fr, dtype=np.float64)
    if fr.ndim == 0:
        raise ValueError("e_frac takes arrays of one or more dimensions")
    if out is None:
        re, im = e_frac(fr, out=(np.empty(fr.shape), np.empty(fr.shape)))
        e = np.empty(fr.shape, np.complex128)
        e.real, e.imag = re, im
        return e
    re, im = (_out(o, fr.shape) for o in out)
    with np.errstate(invalid="ignore"):  # NaN stays NaN through the series
        t = fr * 1024.0
        k = t.astype(np.int64)
    t -= k
    t *= TWO_PI / 1024.0
    t2 = t * t
    c = np.multiply(t2, 1.0 / 24.0, out=re)
    c -= 0.5
    c *= t2
    c += 1.0
    s = np.multiply(t2, 1.0 / 120.0, out=im)
    s -= 1.0 / 6.0
    s *= t2
    s += 1.0
    s *= t
    # the table entries go to t and t2, and ts * s to k, which are spent
    k &= 1023
    tc = np.take(_COS, k, out=t, mode="clip")
    ts = np.take(_SIN, k, out=t2, mode="clip")
    ts_s = np.multiply(ts, s, out=k.view(np.float64))
    # re = tc c - ts s and im = tc s + ts c, each product rounded once
    ts *= c
    c *= tc
    c -= ts_s
    s *= tc
    s += ts
    return re, im


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


def exact_row_sums(X) -> np.ndarray:
    """The exactly rounded sum of each row of a finite 2-d float64 array:
    the bits of math.fsum, with +0.0 for a zero sum.

    Malcolm's exponent buckets, in numpy loops that release the interpreter
    lock where math.fsum holds it for the whole row:

    - np.frexp writes each value as M * 2**(e - 53), M = 2**53 mant an
      integer of at most 53 bits, exactly;
    - M splits into high = floor(M / 2**26) and low = M - 2**26 high, both
      integers kept in float64 (no cast to int64 and back), and each part
      goes through one np.bincount over (row, e) buckets.  A part is at
      most 2**27 in magnitude, so a bucket of at most _COLUMN_BLOCK = 2**26
      parts sums to an integer of at most 2**53, which float64 holds
      exactly; a longer row is cut into column blocks of that length, each
      with its own buckets;
    - per row, the nonzero buckets (tens, not a row's length) combine into
      one Python int T with the row's sum T * 2**(lo - 53), lo the least e
      of the array's nonzero values;
    - int true division rounds T / 2**(53 - lo) correctly, subnormals
      included, and float(T << (lo - 53)) does so when lo >= 53.

    One pass over the array: one np.frexp, one clip of the keys.  It takes
    25 bytes a value and 16 a bucket: rows times column blocks times the
    span of e over the nonzero values.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("exact_row_sums takes a 2-d array")
    rows, cols = X.shape
    out = np.zeros(rows)
    if X.size == 0:
        return out
    if not np.isfinite(X).all():
        raise ValueError("exact_row_sums takes finite values only")
    # the exponents go straight to intp, bincount's index type
    mant, e = np.frexp(X, out=(np.empty(X.shape), np.empty(X.shape, np.intp)))
    nonzero = mant != 0
    if not nonzero.any():
        return out
    # M / 2**26 = 2**27 mant: its floor and its exact rest, in place
    mant *= 2.0 ** 27
    high = np.floor(mant)
    low = np.subtract(mant, high, out=mant)
    low *= 2.0 ** 26
    lo = int(e.min(where=nonzero, initial=1 << 20))
    span = int(e.max(where=nonzero, initial=-(1 << 20))) - lo + 1
    blocks = -(-cols // _COLUMN_BLOCK)
    # bucket (row, column block, e - lo); a zero, whose e is 0, adds 0 to
    # a bucket of its row that the clip picks
    key = np.subtract(e, lo, out=e)
    np.clip(key, 0, span - 1, out=key)
    key += (np.arange(rows) * (blocks * span))[:, None]
    if blocks > 1:
        key += np.arange(cols) // _COLUMN_BLOCK * span
    key = key.ravel()
    size = rows * blocks * span
    high = np.bincount(key, weights=high.ravel(), minlength=size)
    low = np.bincount(key, weights=low.ravel(), minlength=size)
    del key
    full = np.flatnonzero((high != 0) | (low != 0))
    row, k = np.divmod(full, blocks * span)
    T = [0] * rows
    for r, shift, h, lw in zip(row.tolist(), (k % span).tolist(),
                               high[full].tolist(), low[full].tolist()):
        T[r] += ((int(h) << 26) + int(lw)) << shift
    for r, t in enumerate(T):
        out[r] = t / (1 << (53 - lo)) if lo < 53 else float(t << (lo - 53))
    return out


def csum(values) -> complex:
    """Exactly rounded complex sum of a 1-d array (see exact_row_sums)."""
    v = np.asarray(values)
    real, imag = exact_row_sums(np.stack([v.real, v.imag]))
    return complex(real, imag)
