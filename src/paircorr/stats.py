"""Raw spacing statistics of the point sets {alpha * n**theta mod 1}.

Pair counting and nearest-neighbour gaps for finite samples, normalised so
that a Poissonian sequence gives pair counts ~2s and gap density ~exp(-s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _pool
from ._pool import _CHUNK, _thread_workers, pmap
from ._precision import LD, LD_NMANT, _pow_ld, as_ld, frac

# bytes a point holds at once: long-double power, float64 point and the
# float64 sorted copy; each pool job makes its own chunk of integers
_BYTES_PER_POINT = 16 + 8 + 8
# a uniform point: its float64 draw and its sorted copy
_BYTES_PER_UNIFORM = 8 + 8
# a gap of gap_distribution: its float64 gap, its overflow flag and its share
# of the copied overflow gaps, at most one in four as each spans 4 / M of the
# circle.  Under tracemalloc 4e6 gaps took 9.1 bytes each from uniform points
# and 10.4 with 18% overflow; numpy's histogram adds about 2.6 MB, the same at
# every size, as it bins in blocks of 65536
_BYTES_PER_GAP = 8 + 1 + 2

# neighbours each sorted point is compared with before a binary search
_SWEEP = 8

# right edge of the gap histogram, in units of the mean gap
_S_MAX = 4.0

# the binomial series of (1 + u)**theta runs to u**_DEGREE: with |u| <= 2**-6
# the first term left out is below 2**-78
_DEGREE = 12

# (key, read-only powers): the one table kept, so that dilates swept over a
# fixed (theta, window) share their n**theta
_table: tuple | None = None


@dataclass(frozen=True, eq=False)
class PointSet:
    """Fractional parts of alpha * n**theta over an integer window.

    theta = alpha = None marks synthetic reference samples (see
    uniform_points) that carry no arithmetic provenance.  points is kept as
    a read-only view, so the sorted copy cached from it cannot go stale.
    Two sets are equal only if they are the same object, which also gives
    the hash.
    """

    theta: float | None
    alpha: float | None
    n_lo: int
    n_hi: int
    exclude_squares: bool
    points: np.ndarray

    def __post_init__(self):
        # a view of its own: the caller's array keeps its flags
        view = np.asarray(self.points).view()
        view.flags.writeable = False
        object.__setattr__(self, "points", view)

    @cached_property
    def sorted_points(self) -> np.ndarray:
        """The points in ascending order, sorted once per set, read-only."""
        vs = np.sort(self.points)
        vs.flags.writeable = False
        return vs

    @property
    def size(self) -> int:
        return int(self.points.size)


def _anchors(theta: float, n_lo: int, n_hi: int) -> tuple:
    """The anchors of the blocks that meet [n_lo, n_hi], as arrays.

    Each octave [2**e, 2**(e+1)) is cut into 32 blocks of 2**(e-5)
    integers, and below 2**5 every integer is its own block, so a block
    depends on n alone and every n lies within 2**-6 a of its block's
    centre a.  a**theta comes from mpmath at 128 bits, as a long double hi
    (the value rounded to LD_NMANT + 1 bits, converted exactly through
    uint64) and a float64 lo for the rest, kept in a long-double array so
    that adding it takes no cast.  Returns (block starts, centres, 1/a in
    long double, hi, lo).
    """
    import mpmath  # on the first anchored table only: import stays cheap

    starts, centres, mans, exps, los = [], [], [], [], []
    n = int(n_lo)
    with mpmath.workprec(128):
        while n <= n_hi:
            width = 1 << max(n.bit_length() - 6, 0)
            start = n & -width
            a = start + width // 2
            v = mpmath.mpf(a) ** mpmath.mpf(theta)
            with mpmath.workprec(LD_NMANT + 1):
                hi = +v
            starts.append(start)
            centres.append(a)
            mans.append(int(hi.man))
            exps.append(int(hi.exp))
            los.append(float(v - hi))
            n = start + width
    centres = np.array(centres, dtype=np.int64)
    hi = np.ldexp(np.array(mans, dtype=np.uint64).astype(LD),
                  np.array(exps))
    return (np.array(starts, dtype=np.int64), centres, LD(1) / centres, hi,
            np.array(los, dtype=LD))


def _series(theta: float) -> list[float]:
    """binomial(theta, i) for i = _DEGREE down to 2, in float64."""
    c = [theta]
    for i in range(1, _DEGREE):
        c.append(c[-1] * (theta - i) / (i + 1))
    return c[:0:-1]


def _anchored_pow(ns: np.ndarray, theta: float, anchors: tuple,
                  out: np.ndarray) -> None:
    """ns**theta, for ascending integers ns in the anchors' blocks, into out.

    With k = n - a and u = k / a (|u| <= 2**-6), n**theta is
    a**theta (1 + s), s = (1 + u)**theta - 1 = theta u + u**2 P(u): u and
    theta u in long double, the rest of the binomial series by Horner in
    float64, and then hi + (lo + hi s).  Each element's bits depend on its
    n and theta alone.
    """
    starts, centres, inv, his, los = anchors
    # ns ascends, so the elements of one block are one run of ns
    j0 = int(np.searchsorted(starts, ns[0], side="right")) - 1
    j1 = int(np.searchsorted(starts, ns[-1], side="right"))
    cuts = np.searchsorted(ns, starts[j0 + 1:j1])
    idx = np.repeat(np.arange(j0, j1), np.diff(cuts, prepend=0,
                                               append=ns.size))
    u = np.multiply(ns - centres[idx], inv[idx])
    ud = u.astype(np.float64)
    coeffs = _series(theta)
    t = np.full(ud.shape, coeffs[0])
    for c in coeffs[1:]:
        t *= ud
        t += c
    ud *= ud
    t *= ud
    u *= LD(theta)
    u += t.astype(LD)
    hi = his[idx]
    u *= hi
    u += los[idx]
    np.add(u, hi, out=out)


def _powers(theta: float, n_lo: int, n_hi: int,
            exclude_squares: bool) -> np.ndarray:
    """n**theta in long double over the window, as a read-only array.

    theta = 1/2 takes _pow_ld's sqrt, correctly rounded.  Every other theta
    takes _anchored_pow, a series about anchors from mpmath: within 0.6 ulp
    of n**theta, where powl errs by up to 0.87 ulp, and 10**6 powers take
    0.05 s on two threads against 0.18 s for powl (2-vCPU x86).
    The last table built is kept and returned again for the same key; a new
    key drops it before building its own, so at most one table is alive.
    Each pool job makes the integers of its chunk of the window, drops
    their squares if asked, and writes its own slice of the table, which is
    kept only once every chunk is done.
    """
    global _table
    key = (theta, n_lo, n_hi, exclude_squares)
    entry = _table  # one read, so another thread's swap cannot split it
    if entry is not None and entry[0] == key:
        return entry[1]
    del entry
    _pool.guard((n_hi - n_lo + 1) * _BYTES_PER_POINT,
                f"bytes for {n_hi - n_lo + 1} points")
    _table = None
    squares_below = math.isqrt(n_lo - 1)
    size = n_hi - n_lo + 1
    if exclude_squares:
        size -= math.isqrt(n_hi) - squares_below
    w = np.empty(size, dtype=LD)
    anchors = None if theta == 0.5 else _anchors(theta, n_lo, n_hi)

    def job(c0):
        c1 = min(c0 + _CHUNK, n_hi + 1)
        ns = np.arange(c0, c1, dtype=np.int64)
        at = c0 - n_lo
        if exclude_squares:
            r0, r1 = math.isqrt(c0 - 1), math.isqrt(c1 - 1)
            at -= r0 - squares_below
            ns = np.delete(ns, np.arange(r0 + 1, r1 + 1) ** 2 - c0)
        out = w[at:at + ns.size]
        if anchors is None:
            # _pow_ld is looked up at call time, as a wrapper may replace it
            out[...] = _pow_ld(ns, theta)
        elif ns.size:  # a window of one square leaves none
            _anchored_pow(ns, theta, anchors, out)

    pmap(job, range(n_lo, n_hi + 1, _CHUNK), _thread_workers())
    w.flags.writeable = False
    _table = (key, w)
    return w


def fractional_parts(theta: float, alpha: float, n_lo: int, n_hi: int,
                     exclude_squares: bool = False) -> PointSet:
    """Points {alpha * n**theta} for n_lo <= n <= n_hi.

    The powers are taken in long double before reduction mod 1; with
    exclude_squares the perfect squares in the window are dropped (they are
    the degenerate fibre when theta = 1/2 and alpha is rational).  The
    powers of the last window are reused (see _powers), and each point is
    reduced on its own, so the points do not depend on that reuse, nor on
    how the pool's threads share the chunks.  Too many points raise
    ResourceGuardError, phases past 2**63 ValueError, before any is built.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie strictly between 0 and 1")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("alpha must be finite and positive")
    if not 1 <= n_lo <= n_hi:
        raise ValueError("need 1 <= n_lo <= n_hi")
    if alpha * float(n_hi) ** theta >= 2.0 ** 63:
        raise ValueError(f"alpha * n_hi**theta >= 2**63 ({alpha=}, {n_hi=})")
    w = _powers(theta, n_lo, n_hi, exclude_squares)
    a = as_ld(alpha)
    pts = np.empty(w.size, dtype=np.float64)

    def job(i):
        frac(a * w[i:i + _CHUNK], out=pts[i:i + _CHUNK])

    pmap(job, range(0, w.size, _CHUNK), _thread_workers())
    return PointSet(theta=theta, alpha=alpha, n_lo=n_lo, n_hi=n_hi,
                    exclude_squares=exclude_squares, points=pts)


def uniform_points(n: int, seed: int = 0) -> PointSet:
    """n i.i.d. uniform points on [0, 1): the Poisson reference sample.

    n points that would not fit in memory raise ResourceGuardError before
    any is drawn.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    _pool.guard(n * _BYTES_PER_UNIFORM, f"bytes for {n} uniform points")
    pts = np.random.default_rng(seed).random(n)
    return PointSet(theta=None, alpha=None, n_lo=1, n_hi=n,
                    exclude_squares=False, points=pts)


@dataclass(frozen=True)
class PairCorrEstimate:
    """Count of ordered pairs within torus distance s / size."""

    s: float
    count: int
    normalized: float
    poisson_ref: float


def pair_corr_count(ps: PointSet, s: float) -> PairCorrEstimate:
    """Ordered pairs (x, y), x != y, with ||x - y|| <= s / size.

    Sweep on the circle over the set's sorted points (sorted once per set):
    each point x counts the points y after it with y <= x + s/size, by
    comparing it with its next few neighbours, and the wrapped ones as
    y + 1.  The cost is about size times that sweep depth; only points in
    clusters deeper than the sweep fall back to a binary search.  Radii
    s/size >= 1/2 cover the whole torus and short-circuit.
    """
    if not s >= 0:
        raise ValueError("s must be nonnegative")
    M = ps.size
    if M < 2:
        return PairCorrEstimate(s=s, count=0, normalized=0.0,
                                poisson_ref=2.0 * s)
    r = s / M
    if r >= 0.5:
        count = M * (M - 1)
    else:
        vs = ps.sorted_points
        count = 2 * (_forward_pairs(vs, r) + _wrapped_pairs(vs, r))
    return PairCorrEstimate(s=s, count=count, normalized=count / M,
                            poisson_ref=2.0 * s)


def _forward_pairs(vs: np.ndarray, r: float) -> int:
    """Pairs i < j of sorted points with vs[j] <= vs[i] + r, rounded."""
    M = vs.size
    total = 0
    for i in range(0, M - 1, _CHUNK):
        q = vs[i:i + _CHUNK] + r
        # on sorted points a query that misses offset k misses every later
        # one, so the first offset without a hit ends the chunk
        for k in range(1, _SWEEP + 1):
            m = min(q.size, M - i - k)
            if m <= 0:
                break
            hits = vs[i + k:i + k + m] <= q[:m]
            n = int(np.count_nonzero(hits))
            total += n
            if n == 0:
                break
        else:
            # queries still hitting at the last offset reach past the sweep
            deep = np.flatnonzero(hits)
            ends = np.searchsorted(vs, q[deep], side="right")
            total += int((ends - (i + deep) - 1 - _SWEEP).sum())
    return total


def _wrapped_pairs(vs: np.ndarray, r: float) -> int:
    """Pairs (i, j) of sorted points with vs[j] + 1 <= vs[i] + r, rounded."""
    # a query vs[i] + r is at most 1 + r, rounded; y + 1, rounded, can lie
    # below it only for y <= r + 2**-50, a short head of vs
    head = vs[:np.searchsorted(vs, r + 2.0 ** -50, side="right")] + 1.0
    if head.size == 0:
        return 0
    # a query reaches head[0] only if vs[i] >= head[0] - r - 2**-53; the
    # 2**-50 margin covers the rounding of the bound itself
    start = int(np.searchsorted(vs, head[0] - r - 2.0 ** -50, side="left"))
    total = 0
    for i in range(start, vs.size, _CHUNK):
        q = vs[i:i + _CHUNK] + r
        total += int(np.searchsorted(head, q, side="right").sum())
    return total


@dataclass(frozen=True)
class GapHistogram:
    """Histogram of rescaled nearest-neighbour gaps on the circle."""

    edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray
    overflow_count: int
    overflow_mass: float
    n_points: int

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def gap_distribution(ps: PointSet, bins: int = 80) -> GapHistogram:
    """Circular gaps rescaled by the point count, binned on [0, _S_MAX].

    density integrates (with the overflow) to 1: sum(density)*bin_width
    + overflow_count/n = 1.  overflow_mass is the fraction of the circle
    covered by gaps beyond _S_MAX.  Gaps that would not fit in memory raise
    ResourceGuardError before they are built.
    """
    M = ps.size
    if M < 2:
        raise ValueError("need at least two points for gaps")
    if bins < 1:
        raise ValueError("bins must be a positive integer")
    _pool.guard(M * _BYTES_PER_GAP, f"bytes for {M} gaps")
    vs = ps.sorted_points
    # the bits of np.diff(vs, append=vs[0] + 1.0) * M, in one array and
    # without its two M-sized temporaries
    gaps = np.empty(M)
    np.subtract(vs[1:], vs[:-1], out=gaps[:-1])
    gaps[-1] = (vs[0] + 1.0) - vs[-1]
    gaps *= M
    edges = np.linspace(0.0, _S_MAX, bins + 1)
    bin_width = _S_MAX / bins
    # equal bins given by count and range: numpy places each gap by
    # arithmetic against these same edges, where an edge array would sort
    # the gaps first
    counts, _ = np.histogram(gaps, bins=bins, range=(0.0, _S_MAX))
    over = gaps >= edges[-1]
    return GapHistogram(
        edges=edges,
        counts=counts,
        density=counts / (M * bin_width),
        overflow_count=int(over.sum()),
        overflow_mass=float(gaps[over].sum() / M),
        n_points=M,
    )
