"""Planar regions of the two constructions.

Cusp side: the profile theta with anchors theta(delta^j) = eps_j delta^j,
the cusp domain Omega = {0 < x < 1, |y| < theta(1-x)}, and the family of
disks D(c_j, r_j) sitting inside it.  Rectilinear side: the truncated
union F of boxes, towers and pipes in the right half-plane, one row per
level with a copy count, which integrates its exponential image's measure.
The lens contrast profile, the area of Omega and its membership test are
the tests' oracles (``tests/reference_routes.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, ValidationError
from .quad import _gl
from .seqs import DecaySequence

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# cusp profile


class Pieces(NamedTuple):
    """The piece table of a breakpoint table (t, theta), read-only.  Per
    piece [t0, t1]: its left ends ``t0`` and ``theta0``, the steps
    ``dt`` = t1 - t0 and ``dtheta`` = theta1 - theta0, the cross product
    ``cross`` = (1 - t0) dtheta + theta0 dt of its ends P = (1 - t, theta),
    a sum of non-negative terms, and the doubled trapezoid area ``trap`` =
    (theta0 + theta1) dt.  Per knot: the squared radius ``radius2`` =
    t^2 + theta^2."""

    t0: np.ndarray
    dt: np.ndarray
    theta0: np.ndarray
    dtheta: np.ndarray
    cross: np.ndarray
    trap: np.ndarray
    radius2: np.ndarray


def piece_table(knots: np.ndarray, thetas: np.ndarray) -> Pieces:
    """The piece table of the breakpoints (knots, thetas): the one place
    where their differences are formed."""
    t0, th0 = knots[:-1], thetas[:-1]
    dt, dth = np.diff(knots), np.diff(thetas)
    pieces = Pieces(t0=t0, dt=dt, theta0=th0, dtheta=dth,
                    cross=(1.0 - t0) * dth + th0 * dt,
                    trap=(thetas[1:] + th0) * dt,
                    radius2=knots ** 2 + thetas ** 2)
    for a in pieces:
        a.flags.writeable = False
    return pieces


@dataclass(frozen=True)
class CuspProfile:
    """Piecewise-linear profile through (delta^j, eps_j delta^j).

    ``knots``/``thetas`` hold the full breakpoint table: t = 0, the anchors
    delta^n < ... < delta, and the right endpoint (1, eps_1).  Evaluation is
    strictly increasing and satisfies theta(h) <= h.  ``pieces`` is the
    table's piece table (``piece_table``), formed once at construction;
    the edge points, the flux moments, the window areas and the Galerkin
    edge table read it.  ``moment_memo`` maps q to the flux moment
    int |w|^{2q} dA that ``powers.region_moment`` summed on this profile
    (at most ORDER_CAP entries); ``dataclasses.replace`` starts a new one,
    empty.  ``profile_make`` makes the breakpoint table read-only, so
    neither can go stale.
    """

    delta: float
    eps: DecaySequence
    knots: np.ndarray = field(repr=False)
    thetas: np.ndarray = field(repr=False)
    pieces: Pieces = field(init=False, repr=False, compare=False)
    moment_memo: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pieces",
                           piece_table(self.knots, self.thetas))

    @property
    def n(self) -> int:
        return len(self.eps)

    @property
    def anchors(self) -> tuple[np.ndarray, np.ndarray]:
        """(delta^j, eps_j delta^j), j = 1..n, as views of the breakpoints."""
        return self.knots[-2:0:-1], self.thetas[-2:0:-1]

    def eval(self, h):
        return np.interp(h, self.knots, self.thetas)

    def edge_points(self, m: int):
        """The order-m Gauss rule on every piece P(s) = P0 + s (P1 - P0),
        P = (1 - t, theta), s in [0, 1]: real arrays x and y of shape
        (pieces, m) and the m weights.  Each point is rounded once from its
        own t, as 1 - t, rather than interpolated between the rounded ends
        1 - t0 and 1 - t1."""
        p = self.pieces
        s, w = _gl(m)
        x = 1.0 - (p.t0[:, None] + p.dt[:, None] * s)
        y = p.theta0[:, None] + p.dtheta[:, None] * s
        return x, y, w


def profile_make(eps: DecaySequence, delta: float) -> CuspProfile:
    """Build the cusp profile for the given targets and aperture delta: the
    one place where delta^j and eps_j delta^j are formed.  A height that
    rounds to 0 is refused, so the profile stays strictly increasing.  The
    breakpoint table is read-only, as is its piece table, so that no
    memoised moment or trapezoid goes stale."""
    if not isinstance(eps, DecaySequence):
        eps = DecaySequence(tuple(eps))
    if not (0.0 < delta <= 1.0 / 200.0):
        raise ValidationError(f"delta {delta} outside (0, 1/200]")
    pows = delta ** np.arange(1, len(eps) + 1)   # delta^1 .. delta^n
    heights = np.array(eps.values) * pows
    knots = np.concatenate(([0.0], pows[::-1], [1.0]))
    thetas = np.concatenate(([0.0], heights[::-1], [eps.values[0]]))
    knots.flags.writeable = thetas.flags.writeable = False
    profile = CuspProfile(delta=delta, eps=eps, knots=knots, thetas=thetas)
    if not np.all(profile.pieces.dt > 0.0):
        raise ValidationError("anchor abscissae collapsed; delta too small for n")
    gone = np.flatnonzero(~(heights > 0.0))
    if gone.size:
        j = int(gone[0]) + 1
        raise ValidationError(f"anchor {j} has height 0: theta(delta^{j}) ="
                              f" eps_{j} delta^{j} underflows")
    return profile


# ---------------------------------------------------------------------------
# disk family


@dataclass(frozen=True)
class DiskFamily:
    """Disks D(c_j, r_j), c_j = 1 - 2 delta^j, r_j = eps_j delta^j, j = 1..n.

    ``delta_pows[j-1]`` stores delta^j and ``radii`` eps_j delta^j, both
    read from the profile; distances to 1 are always derived from the
    stored powers, never from 1 - c_j.
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
    hs, heights = profile.anchors
    pows, radii = hs[:n], heights[:n]
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

    def pullback_mass(self, s, xlo: float = 0.0, xhi: float = math.inf,
                      h: float = 1.0):
        """int |w|^{s-2} dmu over the window {xlo < x < xhi, |y - 2k pi| <
        pi h for some k} of F, mu the pullback of dA = dx dy / pi by
        w = e^{-u}: the integrand is e^{-s x}, so a row contributes
        (2/s) count reach (e^{-s a} - e^{-s b}), where a copy meets its
        band along 2 pi reach, reach = max(0, min(h, hi) - lo), exact at
        every depth, and [a, b] = [max(x1, xlo), min(x2, xhi)] is its
        x-clip, empty where a >= b.  s = 2 gives the mass mu, s = 2(q + 1)
        the moment of |w|^{2q}.  An array s gives one value per entry, and
        so, with a scalar s, do arrays xlo, xhi and h, broadcast against
        the rows on the last axis: xlo (k, 2, 1), xhi (k, 1, 1) and h
        (k, 1, 1) give k pairs of windows, a column xlo of shape (k, 1) k
        windows.  Each mass is one dot product over the rows (np.vecdot),
        so a window rounds the same alone and inside a broadcast.  Array
        xlo, xhi and h must have one number of axes and length 1 on the
        last, or a window would be paired with another's band or rows; a
        ValidationError refuses any other layout."""
        h = np.asarray(h, dtype=float)
        if not (h.min() > 0.0 and h.max() <= 1.0):     # NaN fails too
            raise ValidationError(f"band half-height {h} outside (0, 1]")
        shapes = [np.shape(v) for v in (xlo, xhi, h) if np.ndim(v)]
        if any(len(sh) != len(shapes[0]) or sh[-1] != 1 for sh in shapes):
            raise ValidationError(
                f"window arrays xlo, xhi and h of shapes {shapes} do not line"
                " up: they need one number of axes and length 1 on the last")
        a = np.maximum(self.x1, xlo)
        b = np.maximum(a, np.minimum(self.x2, xhi))
        w = np.maximum(0.0, np.minimum(h, self.hi) - self.lo) * self.count
        s = np.asarray(s, dtype=float)
        E = exp_drop(s[..., None], a, b)
        m = np.vecdot(E, w) * 2.0 / s
        return m if m.ndim else float(m)

    def tail_bound(self) -> float:
        """sum_{n > n_max} l_n 16^-n, bounded via l_n <= n in closed form."""
        x = 1.0 / 16.0
        N = self.n_max
        return x ** (N + 1) * ((N + 1) - N * x) / (1.0 - x) ** 2


def target_values(M, ns) -> list[int]:
    """M_n at the ascending indices ns, for targets M given as a callable
    on n or as a sequence from n = 1: each value read must be a positive
    integer and a finite float (the growth report divides by it as one),
    and the values must not decrease."""
    if not callable(M) and len(M) < ns[-1]:
        raise ValidationError(
            f"target sequence has {len(M)} terms; M_{ns[-1]} is needed")
    vals = []
    for n in ns:
        v = M(n) if callable(M) else M[n - 1]
        try:
            finite = math.isfinite(v)
        except OverflowError:           # an integer past the float range
            finite = False
        if not finite:
            raise ValidationError(f"M_{n} is not a finite float")
        if int(v) != v or v < 1:
            raise ValidationError(f"M_{n} = {v} is not a positive integer")
        vals.append(int(v))
    if any(vals[i + 1] < vals[i] for i in range(len(vals) - 1)):
        raise ValidationError("M must be non-decreasing")
    return vals


# candidate pairs tested at once by _first_overlap, about 65 B each
_PAIR_BLOCK = 2 ** 16


def _first_overlap(x1, x2, *spans):
    """The lexicographically smallest pair (i, j), i < j, of boxes whose
    interiors meet, or None.  Box i spans [x1[i], x2[i]] and [lo[i], hi[i]]
    for each pair (lo, hi) in ``spans``; a shared edge is no overlap.

    Sweep: with the boxes ranked by x1, the one of rank a can only
    overlap the later ranks a + 1 .. stop[a] - 1, whose x1 lies below its
    own x2 (Six & Wood, BIT 20, 1980).  Only those candidate pairs are
    tested, _PAIR_BLOCK of them at a time in rank order: the deepest
    staircase ``eksy_build`` accepts (n_max 537, 2,148 rows) has 1,612 of
    them, one block, but a hand-built domain of R rows can hold up to
    R^2/2.
    """
    n = len(x1)
    order = np.argsort(x1, kind="stable")
    start = np.arange(1, n + 1)
    stop = np.maximum(np.searchsorted(x1[order], x2[order]), start)
    ends = np.cumsum(stop - start)          # candidate pairs up to rank a
    found = []
    for first in range(0, int(ends[-1]), _PAIR_BLOCK):
        k = np.arange(first, min(first + _PAIR_BLOCK, int(ends[-1])))
        a = np.searchsorted(ends, k, side="right")     # pair k: ranks a and
        i, j = order[a], order[k - ends[a] + stop[a]]  # stop[a] - (ends[a] - k)
        bad = np.minimum(x2[i], x2[j]) - np.maximum(x1[i], x1[j]) > 0.0
        for lo, hi in zip(spans[::2], spans[1::2]):
            bad &= np.minimum(hi[i], hi[j]) - np.maximum(lo[i], lo[j]) > 0.0
        key = (np.minimum(i, j) * n + np.maximum(i, j))[bad]  # pair as i n + j
        if key.size:
            found.append(int(key.min()))
    return divmod(min(found), n) if found else None


def eksy_build(M, n_max: int) -> RectilinearDomain:
    """Build the truncated domain F for targets M (sequence or callable)."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    # pipes first, before any target is read: from depth 538 on, 4^-2n and
    # the box width eps_2n - eps_2n+1 both round to 0, so the check fails
    n = np.arange(1, min(n_max, 538) + 1)       # tower levels, pipe depths
    eps4 = eps_exp(np.arange(2 * n.size + 3))
    eps4[0] = np.inf
    width = 4.0 ** (-2 * n)
    wide = np.flatnonzero(~(width < eps4[2 * n] - eps4[2 * n + 1]))
    if wide.size:
        raise ConstructionError(
            f"pipe at depth {wide[0] + 1} wider than its box")
    l = [min(n, v * v) for n, v in
         enumerate(target_values(M, range(1, n_max + 1)), start=1)]
    m = np.arange(2, 2 * n_max + 2)             # base boxes
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
