"""Planar regions of the two constructions.

Cusp side: the profile theta with anchors theta(delta^j) = eps_j delta^j,
the cusp domain Omega = {0 < x < 1, |y| < theta(1-x)}, and the family of
disks D(c_j, r_j) sitting inside it.  Rectilinear side: the truncated
union F of boxes, towers and pipes in the right half-plane, one row per
level with a copy count, whose exponential image drives the power norms.
The lens contrast profile, the area of Omega and its membership test are
the tests' oracles (``tests/reference_routes.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, ValidationError
from .quad import _gl
from .seqs import DecaySequence

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# cusp profile


@dataclass(frozen=True)
class CuspProfile:
    """Piecewise-linear profile through (delta^j, eps_j delta^j).

    ``knots``/``thetas`` hold the full breakpoint table: t = 0, the anchors
    delta^n < ... < delta, and the right endpoint (1, eps_1).  Evaluation is
    strictly increasing and satisfies theta(h) <= h.
    """

    delta: float
    eps: DecaySequence
    knots: np.ndarray = field(repr=False)
    thetas: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.eps)

    @property
    def anchors(self) -> list[tuple[float, float]]:
        # (delta^j, eps_j delta^j) for j = 1..n
        pts = list(zip(self.knots[1:-1], self.thetas[1:-1]))
        return pts[::-1]

    def eval(self, h):
        return np.interp(h, self.knots, self.thetas)

    def edge_points(self, m: int):
        """The order-m Gauss rule on every piece P(s) = P0 + s (P1 - P0),
        P = (1 - t, theta), s in [0, 1]: real arrays x and y of shape
        (pieces, m) and the m weights.  Each point is rounded once from its
        own t, as 1 - t, rather than interpolated between the rounded ends
        1 - t0 and 1 - t1."""
        t, th = self.knots, self.thetas
        s, w = _gl(0.0, 1.0, m)
        x = 1.0 - (t[:-1, None] + (t[1:] - t[:-1])[:, None] * s)
        y = th[:-1, None] + (th[1:] - th[:-1])[:, None] * s
        return x, y, w


def profile_make(eps: DecaySequence, delta: float) -> CuspProfile:
    """Build the cusp profile for the given targets and aperture delta."""
    if not isinstance(eps, DecaySequence):
        eps = DecaySequence(tuple(eps))
    if not (0.0 < delta <= 1.0 / 200.0):
        raise ValidationError(f"delta {delta} outside (0, 1/200]")
    n = len(eps)
    pows = delta ** np.arange(1, n + 1)          # delta^1 .. delta^n
    ev = np.array(eps.values)
    knots = np.concatenate(([0.0], pows[::-1], [1.0]))
    thetas = np.concatenate(([0.0], (ev * pows)[::-1], [ev[0]]))
    if not np.all(np.diff(knots) > 0.0):
        raise ValidationError("anchor abscissae collapsed; delta too small for n")
    return CuspProfile(delta=delta, eps=eps, knots=knots, thetas=thetas)


# ---------------------------------------------------------------------------
# disk family


@dataclass(frozen=True)
class DiskFamily:
    """Disks D(c_j, r_j), c_j = 1 - 2 delta^j, r_j = eps_j delta^j, j = 1..n.

    ``delta_pows[j-1]`` stores delta^j; distances to 1 are always derived
    from the stored powers, never from 1 - c_j.
    """

    delta: float
    eps: DecaySequence
    n: int
    delta_pows: np.ndarray = field(repr=False)
    centers: np.ndarray = field(repr=False)
    radii: np.ndarray = field(repr=False)

    def s(self, i: int, j: int) -> float:
        """Cancellation-free 1 - c_i c_j = 2 delta^i + (1 - 2 delta^i) 2 delta^j."""
        di = self.delta_pows[i - 1]
        dj = self.delta_pows[j - 1]
        return 2.0 * di + (1.0 - 2.0 * di) * 2.0 * dj

    @property
    def eps_prime(self) -> np.ndarray:
        """eps'_i = r_i / (1 - c_i^2) = eps_i / (4 (1 - delta^i))."""
        return (np.array(self.eps.values[:self.n])
                / (4.0 * (1.0 - self.delta_pows)))


def disk_family(eps: DecaySequence, delta: float, n: int) -> DiskFamily:
    """Build the disk family and certify disjointness and inclusion.

    Gap certificate: c_{j+1} - c_j = 2(1-delta) delta^j > r_j + r_{j+1}.
    Inclusion certificate: 64 equi-angular boundary points of each disk
    satisfy 1 - x > delta^j and |y| < theta(1 - x), evaluated in the
    t = 1 - x coordinate to stay exact arbitrarily close to 1.
    """
    profile = profile_make(eps, delta)
    eps = profile.eps
    if not (1 <= n <= len(eps)):
        raise ValidationError(f"n {n} outside 1..{len(eps)}")
    pows = delta ** np.arange(1, n + 1)
    ev = np.array(eps.values[:n])
    radii = ev * pows
    centers = 1.0 - 2.0 * pows
    for j in range(n - 1):
        gap = 2.0 * (1.0 - delta) * pows[j]      # c_{j+1} - c_j, exact form
        if not (gap > radii[j] + radii[j + 1]):
            raise ConstructionError(f"disks {j + 1} and {j + 2} overlap")
    angles = TWO_PI * np.arange(64) / 64.0
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    for j in range(n):
        t = 2.0 * pows[j] - radii[j] * cos_a     # 1 - x on the boundary
        y = radii[j] * sin_a
        if not np.all(t > pows[j]):
            raise ConstructionError(f"disk {j + 1} reaches past 1 - delta^j")
        if not np.all(np.abs(y) < profile.eval(t)):
            raise ConstructionError(f"disk {j + 1} leaves the cusp domain")
    return DiskFamily(delta=delta, eps=eps, n=n,
                      delta_pows=pows, centers=centers, radii=radii)


# ---------------------------------------------------------------------------
# rectilinear domain


def eps_exp(m) -> np.ndarray:
    """eps_m = -log(1 - 2^-m), accurate for large m via log1p (inf at 0)."""
    m = np.asarray(m, dtype=float)
    with np.errstate(divide="ignore"):
        return -np.log1p(-(2.0 ** -m))


def exp_drop(s: float, x1, x2):
    """e^{-s x1} - e^{-s x2} without cancellation for narrow gaps: the
    x-weight of a rectangle under the pullback of dA by w = e^{-u}."""
    return -np.exp(-s * x1) * np.expm1(-s * (x2 - x1))


@dataclass(frozen=True)
class Rect:
    x1: float
    x2: float
    y1: float
    y2: float
    tag: str            # "base" | "tower" | "pipe"
    k: int              # vertical shift count (0 for base boxes)
    index: int          # box index m for boxes, depth n for pipes


@dataclass(frozen=True)
class RectilinearDomain:
    """Truncated union F of boxes, towers and pipes in {Re u > 0}.

    Base boxes B(0,m) = [eps_{m+1}, eps_m] x [-pi 2^-m, pi 2^-m] for
    2 <= m <= 2 n_max + 1; tower boxes B(k,2n) for 0 < k < l_n; pipes of
    width 4^-2n centered in the x-range of B(0,2n) spanning
    [2(k-1)pi + 2^-2n pi, 2k pi - 2^-2n pi].  ``l[n-1]`` stores
    l_n = min(n, M_n^2); ``eps4[m]`` stores eps_m (index 0 unused).

    One row per level, 4 n_max rows (base boxes, towers, pipes): row r is
    count[r] copies k = first[r], first[r] + 1, ... of a rectangle with
    x-range [x1, x2] shifted by 2 k pi, with band span (lo, hi), the
    distances in units of pi from the band centre that a copy covers: a
    box B(k, m) covers (0, 2^-m) around 2 k pi, a pipe (``pipe``) at depth
    n (4^-n, 1) above 2 (k - 1) pi and below 2 k pi.
    """

    n_max: int
    l: tuple[int, ...]
    eps4: np.ndarray = field(repr=False)
    x1: np.ndarray = field(repr=False)
    x2: np.ndarray = field(repr=False)
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    first: np.ndarray = field(repr=False)
    count: np.ndarray = field(repr=False)
    pipe: np.ndarray = field(repr=False)

    @property
    def rectangles(self) -> tuple[Rect, ...]:
        """Every copy in absolute coordinates, row by row with k ascending,
        for the tests' oracles; deep y-extents round away here."""
        rects = []
        for x1, x2, lo, hi, first, count, pipe in zip(
                self.x1, self.x2, self.lo, self.hi, self.first, self.count,
                self.pipe):
            for k in range(first, first + count):
                if pipe:
                    rects.append(Rect(x1, x2, TWO_PI * (k - 1) + math.pi * lo,
                                      TWO_PI * k - math.pi * lo, "pipe", k,
                                      round(-math.log2(lo) / 2)))
                else:
                    rects.append(Rect(x1, x2, TWO_PI * k - math.pi * hi,
                                      TWO_PI * k + math.pi * hi,
                                      "tower" if k else "base", k,
                                      round(-math.log2(hi))))
        return tuple(rects)

    def __post_init__(self):
        """Raise ConstructionError unless the copies have disjoint interiors,
        in band coordinates: half-band 2c lies below the centre 2 c pi and
        2c + 1 above it; box copy k covers the half-bands 2k and 2k + 1, pipe
        copy k covers 2k - 1 and 2k, both at (lo, hi), so a row covers
        [2 first - pipe, 2 (first + count) - pipe).  Copies meet where x,
        half-band and span ranges all overlap; the last two are exact."""
        band = 2 * self.first - self.pipe
        pair = _first_overlap(self.x1, self.x2, self.lo, self.hi, band,
                              band + 2 * self.count)
        if pair is not None:
            raise ConstructionError(f"rows {pair[0]} and {pair[1]} overlap")

    def area(self) -> float:
        """Euclidean area (interiors are disjoint, so plain sum)."""
        return float(2.0 * math.pi * ((self.x2 - self.x1) * self.count)
                     @ (self.hi - self.lo))

    def tail_bound(self) -> float:
        """sum_{n > n_max} l_n 16^-n, bounded via l_n <= n in closed form."""
        x = 1.0 / 16.0
        N = self.n_max
        return x ** (N + 1) * ((N + 1) - N * x) / (1.0 - x) ** 2


def _as_l_values(M, n_max: int) -> list[int]:
    if not callable(M) and len(M) < n_max:
        raise ValidationError(
            f"target sequence has {len(M)} terms; levels 1..{n_max} need"
            f" {n_max}")
    vals = []
    for n in range(1, n_max + 1):
        v = M(n) if callable(M) else M[n - 1]
        if int(v) != v or v < 1:
            raise ValidationError(f"M_{n} = {v} is not a positive integer")
        vals.append(int(v))
    if any(vals[i + 1] < vals[i] for i in range(len(vals) - 1)):
        raise ValidationError("M must be non-decreasing")
    return [min(n, vals[n - 1] ** 2) for n in range(1, n_max + 1)]


_PAIR_BLOCK = 1 << 16


def _first_overlap(x1, x2, *spans):
    """The lexicographically smallest pair (i, j), i < j, of boxes whose
    interiors meet, or None.  Box i spans [x1[i], x2[i]] and [lo[i], hi[i]]
    for each pair (lo, hi) in ``spans``; a shared edge is no overlap.

    Sweep: with the boxes ranked by x1, the one of rank a can only
    overlap the later ranks a + 1 .. stop[a] - 1, whose x1 lies below its
    own x2.  Only those candidate pairs are tested, in blocks of at most
    _PAIR_BLOCK, so memory stays O(R) (Six & Wood, BIT 20, 1980).
    """
    n = len(x1)
    order = np.argsort(x1, kind="stable")
    start = np.arange(1, n + 1)
    stop = np.maximum(np.searchsorted(x1[order], x2[order]), start)
    ends = np.cumsum(stop - start)          # candidate pairs up to rank a
    best = n * n                            # pair (i, j) as the key i n + j
    for k0 in range(0, int(ends[-1]), _PAIR_BLOCK):
        k = np.arange(k0, min(k0 + _PAIR_BLOCK, int(ends[-1])))
        a = np.searchsorted(ends, k, side="right")   # pair k: ranks a and
        i, j = order[a], order[k - ends[a] + stop[a]]  # stop[a] - (ends[a] - k)
        bad = np.minimum(x2[i], x2[j]) - np.maximum(x1[i], x1[j]) > 0.0
        for lo, hi in zip(spans[::2], spans[1::2]):
            bad &= np.minimum(hi[i], hi[j]) - np.maximum(lo[i], lo[j]) > 0.0
        key = np.minimum(i, j) * n + np.maximum(i, j)
        best = int(key.min(initial=best, where=bad))
    return None if best == n * n else divmod(best, n)


def eksy_build(M, n_max: int) -> RectilinearDomain:
    """Build the truncated domain F for targets M (sequence or callable)."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    l = _as_l_values(M, n_max)
    eps4 = eps_exp(np.arange(2 * n_max + 3))
    eps4[0] = np.inf
    m = np.arange(2, 2 * n_max + 2)             # base boxes
    n = np.arange(1, n_max + 1)                 # tower levels, pipe depths
    width = 4.0 ** (-2 * n)
    wide = np.flatnonzero(~(width < eps4[2 * n] - eps4[2 * n + 1]))
    if wide.size:
        raise ConstructionError(
            f"pipe at depth {wide[0] + 1} wider than its box")
    mid = 0.5 * (eps4[2 * n + 1] + eps4[2 * n])
    copies = np.array(l) - 1
    return RectilinearDomain(
        n_max=n_max, l=tuple(l), eps4=eps4,
        x1=np.concatenate((eps4[m + 1], eps4[2 * n + 1], mid - width / 2.0)),
        x2=np.concatenate((eps4[m], eps4[2 * n], mid + width / 2.0)),
        lo=np.concatenate((np.zeros(3 * n_max), 4.0 ** -n)),
        hi=np.concatenate((2.0 ** -m, 4.0 ** -n, np.ones(n_max))),
        first=np.repeat([0, 1], [2 * n_max, 2 * n_max]),
        count=np.concatenate((np.ones(2 * n_max, dtype=int), copies, copies)),
        pipe=np.repeat([False, True], [3 * n_max, n_max]))
