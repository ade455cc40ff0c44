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
from ._precision import LD, _pow_ld, as_ld, frac

# bytes a point holds at once: int64 index, long-double power, float64 point
# and the float64 sorted copy
_BYTES_PER_POINT = 8 + 16 + 8 + 8

# neighbours each sorted point is compared with before a binary search
_SWEEP = 8

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

    @property
    def window(self) -> str:
        if self.theta is None:
            return f"iid uniform, n in [{self.n_lo}, {self.n_hi}]"
        tag = " minus squares" if self.exclude_squares else ""
        return f"n in [{self.n_lo}, {self.n_hi}]{tag}"


def _powers(theta: float, n_lo: int, n_hi: int,
            exclude_squares: bool) -> np.ndarray:
    """n**theta in long double over the window, as a read-only array.

    The last table built is kept and returned again for the same key; a new
    key drops it before building its own, so at most one table is alive.
    The chunks are built on the shared pool, each into its own slice, and
    the table is kept only once every chunk is done.
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
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    if exclude_squares:
        roots = np.arange(int(np.floor(np.sqrt(n_lo))),
                          int(np.ceil(np.sqrt(n_hi))) + 1, dtype=np.int64)
        squares = roots[(roots * roots >= n_lo) & (roots * roots <= n_hi)]
        ns = ns[~np.isin(ns, squares * squares)]
    w = np.empty(ns.size, dtype=LD)

    def job(i):
        # _pow_ld is looked up at call time, as a wrapper may replace it
        w[i:i + _CHUNK] = _pow_ld(ns[i:i + _CHUNK], theta)

    pmap(job, range(0, ns.size, _CHUNK), _thread_workers())
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
    how the pool's threads share the chunks.  A window whose points would
    not fit in memory raises ResourceGuardError before anything is built.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie strictly between 0 and 1")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("alpha must be finite and positive")
    if not 1 <= n_lo <= n_hi:
        raise ValueError("need 1 <= n_lo <= n_hi")
    w = _powers(theta, n_lo, n_hi, exclude_squares)
    a = as_ld(alpha)
    pts = np.empty(w.size, dtype=np.float64)

    def job(i):
        pts[i:i + _CHUNK] = frac(a * w[i:i + _CHUNK])

    pmap(job, range(0, w.size, _CHUNK), _thread_workers())
    return PointSet(theta=theta, alpha=alpha, n_lo=n_lo, n_hi=n_hi,
                    exclude_squares=exclude_squares, points=pts)


def uniform_points(n: int, seed: int = 0) -> PointSet:
    """n i.i.d. uniform points on [0, 1): the Poisson reference sample."""
    if n < 1:
        raise ValueError("n must be a positive integer")
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


def gap_distribution(ps: PointSet, bins: int = 80,
                     s_max: float = 4.0) -> GapHistogram:
    """Circular gaps rescaled by the point count, binned on [0, s_max].

    density integrates (with the overflow) to 1: sum(density)*bin_width
    + overflow_count/n = 1.  overflow_mass is the fraction of the circle
    covered by gaps beyond s_max.
    """
    M = ps.size
    if M < 2:
        raise ValueError("need at least two points for gaps")
    if bins < 1:
        raise ValueError("bins must be a positive integer")
    if not (math.isfinite(s_max) and s_max > 0.0):
        raise ValueError("s_max must be finite and positive")
    vs = ps.sorted_points
    gaps = np.diff(vs, append=vs[0] + 1.0) * M
    edges = np.linspace(0.0, s_max, bins + 1)
    bin_width = s_max / bins
    # equal bins given by count and range: numpy places each gap by
    # arithmetic against these same edges, where an edge array would sort
    # the gaps first
    counts, _ = np.histogram(gaps, bins=bins, range=(0.0, s_max))
    over = gaps >= edges[-1]
    return GapHistogram(
        edges=edges,
        counts=counts,
        density=counts / (M * bin_width),
        overflow_count=int(over.sum()),
        overflow_mass=float(gaps[over].sum() / M),
        n_points=M,
    )
