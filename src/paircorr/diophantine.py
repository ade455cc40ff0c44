"""Counting near-coincidences among products j**Theta * z.

Here z runs over gaps of the curved lattice, z = m**(1-Theta) - n**(1-Theta)
with n = m + gap > m, and the basic question is how often two products
j1**Theta * z1 and j2**Theta * z2 land within a threshold of each other.
The module enumerates honestly (sort and sweep) and brute-counts the
quartic model problem.  Parameters arrive on dyadic-exponential grids
indexed by integers (u, q): j in [e^u, e^(u+1)), gap in [e^q, e^(q+1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _pool
# ResourceGuardError stays importable from here, and unused frac, e_frac
# stay bound: perfbench/tracer.py wraps them as boundaries here
from ._pool import ResourceGuardError  # noqa: F401
from ._precision import (_pow_ld, as_ld, e_frac, frac,  # noqa: F401
                         iceil, ifloor)

# peak bytes in build_zset: a pair's z, filled in place and sorted in place;
# and while _pow_ld runs, a window point's m, its long-double copy and its
# long-double power (4.0 MB under tracemalloc at 10**5 window points)
_BYTES_PER_Z = 8
_BYTES_PER_WINDOW = 8 + 16 + 16

# peak bytes a difference holds in robert_sargos_count: it, its sorted
# copy, a shifted copy and two searches (40.0 under tracemalloc); and a
# value's: its float64, plus the call's fixed 0.8 kB spread over M >= 100
# values (23.3 bytes a value under tracemalloc at M = 100, 9.0 at 1000)
_BYTES_PER_DIFF = 40
_BYTES_PER_M = 24

# peak bytes a product holds through count_duq: the products, sorted in
# place, a shifted copy and the two search bounds (32.0 under tracemalloc)
_BYTES_PER_PRODUCT = 32


@dataclass(frozen=True)
class DioInstance:
    """One cell of the counting problem.

    j_lo/j_hi and gap_lo/gap_hi are half-open integer ranges; m_lo/m_hi is
    inclusive.  A cell whose smallest gap exceeds the window width admits
    no pairs at all and is flagged vacuous.
    """

    theta: float
    j_lo: int
    j_hi: int
    m_lo: int
    m_hi: int
    gap_lo: int
    gap_hi: int
    threshold: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie strictly between 0 and 1")
        if self.j_lo < 1 or self.j_hi <= self.j_lo:
            raise ValueError("need 1 <= j_lo < j_hi")
        if self.m_lo < 1:
            raise ValueError("m_lo must be at least 1")
        if self.gap_lo < 1 or self.gap_hi <= self.gap_lo:
            raise ValueError("need 1 <= gap_lo < gap_hi")
        if self.threshold < 0:
            raise ValueError("threshold must be nonnegative")

    @property
    def Theta(self) -> float:
        return 1.0 / (1.0 - self.theta)

    @property
    def js(self) -> np.ndarray:
        return np.arange(self.j_lo, self.j_hi, dtype=np.int64)

    @property
    def is_vacuous(self) -> bool:
        return self.gap_lo > self.m_hi - self.m_lo


def dio_instance(theta: float, N: int, eps: float, u: int, q: int) -> DioInstance:
    """Grid cell (u, q) for scale N: j ~ e^u, gaps ~ e^q, threshold N^eps.

    The m-window covers every stationary range that any j in the cell and
    any dilate alpha in [1, 2] can produce.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if not 0.0 < eps <= 0.2:
        raise ValueError("eps must lie in (0, 0.2]")
    logN = math.log(N)
    if not 1 <= u <= (1.0 + eps) * logN + 1e-9:
        raise ValueError(f"u = {u} outside [1, (1+eps) log N]")
    if not 0 <= q <= (theta + eps) * logN + 1e-9:
        raise ValueError(f"q = {q} outside [0, (theta+eps) log N]")
    j_lo = iceil(math.exp(u))
    j_hi = iceil(math.exp(u + 1.0))
    m_min = theta * 2.0 ** (theta - 1.0) * math.exp(u) * N ** (theta - 1.0)
    m_max = 2.0 * theta * math.exp(u + 1.0) * N ** (theta - 1.0)
    return DioInstance(
        theta=theta,
        j_lo=j_lo, j_hi=j_hi,
        m_lo=max(1, iceil(m_min)), m_hi=ifloor(m_max),
        gap_lo=iceil(math.exp(q)), gap_hi=iceil(math.exp(q + 1.0)),
        threshold=float(N) ** eps,
    )


def build_zset(inst: DioInstance) -> np.ndarray:
    """The z of every pair (m, n) of the window of inst, ascending.

    1 - Theta is negative, so m < n makes z positive.  The subtraction is
    done in long double: nearby m, n cancel most of their leading digits.
    """
    width = inst.m_hi - inst.m_lo
    gaps = range(inst.gap_lo, min(inst.gap_hi, width + 1))
    total = sum(width + 1 - d for d in gaps)
    _pool.guard(total * _BYTES_PER_Z + (width + 1) * _BYTES_PER_WINDOW,
                f"bytes for {total} z pairs")
    btab = _pow_ld(np.arange(inst.m_lo, inst.m_hi + 1, dtype=np.int64),
                   1.0 - inst.Theta)
    z = np.empty(total, dtype=np.float64)
    i = 0
    for d in gaps:
        k = width + 1 - d
        # the long-double difference, rounded to float64 in buffered chunks
        np.subtract(btab[:k], btab[d:d + k], out=z[i:i + k],
                    casting="same_kind")
        i += k
    z.sort()
    return z


def _products(inst: DioInstance, z: np.ndarray | None = None) -> np.ndarray:
    if z is None:
        z = build_zset(inst)
    js = inst.js
    est = js.size * z.size
    _pool.guard(est * _BYTES_PER_PRODUCT, f"bytes for {est} products")
    jpow = _pow_ld(js, inst.Theta)
    z_ld = as_ld(z)
    rows = []
    chunk = max(1, int(2 ** 22) // max(z.size, 1))
    for i in range(0, js.size, chunk):
        rows.append((jpow[i:i + chunk, None] * z_ld[None, :])
                    .astype(np.float64).ravel())
    return np.concatenate(rows)


def count_duq(inst: DioInstance, z: np.ndarray | None = None) -> int:
    """Ordered pairs of products within the threshold, self-pairs included.

    |j1^Theta z1 - j2^Theta z2| <= threshold, counted over all (j, z) from
    the instance on both sides; a vacuous instance counts zero.  z is
    build_zset(inst), built here if not given.
    """
    if inst.is_vacuous:
        return 0
    v = _products(inst, z)
    v.sort()
    bound = v + inst.threshold
    hi = np.searchsorted(v, bound, side="right")
    np.subtract(v, inst.threshold, out=bound)
    hi -= np.searchsorted(v, bound, side="left")
    return int(hi.sum())


def count_zdiag(z: np.ndarray, tau: float) -> int:
    """Ordered pairs of z values with |z1 - z2| strictly below tau, for z
    ascending as build_zset returns it."""
    hi = np.searchsorted(z, z + tau, side="left")
    lo = np.searchsorted(z, z - tau, side="right")
    # tau = 0 makes the open interval empty while ties push hi below lo
    return int(np.maximum(hi - lo, 0).sum())


def robert_sargos_count(M: int, one_minus_Theta: float, gamma: float) -> int:
    """Quadruples 1 <= x,y,z,w <= M with
    |x^e - y^e + z^e - w^e| < gamma * M^e for the exponent e = 1 - Theta.

    Exhaustive count (reorganised as a pair sweep over the M^2 differences,
    which enumerates exactly the same quadruples).
    """
    if M < 1:
        raise ValueError("M must be a positive integer")
    if one_minus_Theta in (0.0, 1.0):
        raise ValueError("exponent must avoid 0 and 1")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    _pool.guard(_BYTES_PER_DIFF * int(M) ** 2 + _BYTES_PER_M * M,
                f"bytes for {M}**2 differences")
    vals = _pow_ld(np.arange(1, M + 1), one_minus_Theta).astype(np.float64)
    diffs = (vals[:, None] - vals[None, :]).ravel()
    thr = gamma * float(M) ** one_minus_Theta
    ds = np.sort(diffs)
    hi = np.searchsorted(ds, thr - diffs, side="left")
    hi -= np.searchsorted(ds, -thr - diffs, side="right")
    # gamma = 0 makes the open interval empty while ties push hi below lo
    return int(np.maximum(hi, 0, out=hi).sum())


def duq_bound_check(theta: float, N: int, eps: float) -> list[dict]:
    """Counts over the whole (u, q) grid with their polynomial references.

    Each row reports the pair count against N^(1+3 theta+3 eps) and the
    z-diagonal count at tau = N^(2 eps) e^(-Theta u) against
    N^(2 theta+3 eps); the ratios are the observables of interest.
    """
    if N < 4:
        raise ValueError("N must be at least 4")
    _pool.guard(N, "N of the brute-force grid (~N**2 products a cell)", 512)
    logN = math.log(N)
    TH = 1.0 / (1.0 - theta)
    u_lo = int(math.floor((1.0 - eps) * logN)) + 1
    u_hi = int(math.floor((1.0 + eps) * logN))
    q_hi = int(math.floor((theta + eps) * logN))
    duq_ref = float(N) ** (1.0 + 3.0 * theta + 3.0 * eps)
    zdiag_ref = float(N) ** (2.0 * theta + 3.0 * eps)
    rows = []
    for u in range(max(1, u_lo), u_hi + 1):
        for q in range(0, q_hi + 1):
            inst = dio_instance(theta, N, eps, u, q)
            z = build_zset(inst)
            duq = count_duq(inst, z)
            tau = float(N) ** (2.0 * eps) * math.exp(-TH * u)
            zdiag = count_zdiag(z, tau)
            rows.append({
                "u": u,
                "q": q,
                "j_count": int(inst.j_hi - inst.j_lo),
                "z_count": z.size,
                "vacuous": inst.is_vacuous,
                "duq": duq,
                "duq_ref": duq_ref,
                "duq_ratio": duq / duq_ref,
                "zdiag": zdiag,
                "zdiag_tau": tau,
                "zdiag_ref": zdiag_ref,
                "zdiag_ratio": zdiag / zdiag_ref,
            })
    return rows
