"""Planar regions of the two constructions.

Cusp side: the profile theta with anchors theta(delta^j) = eps_j delta^j,
the cusp domain Omega = {0 < x < 1, |y| < theta(1-x)}, and the family of
disks D(c_j, r_j) sitting inside it.  Rectilinear side: the truncated
union F of base boxes, tower boxes and pipes in the right half-plane
whose exponential image drives the power-norm experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, ValidationError
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

    def sup_half_width(self) -> float:
        # sup of theta on (0, 1)
        return float(self.thetas[-1])


@dataclass(frozen=True)
class PowerProfile:
    """Lens profile theta(h) = scale * h, the non-compact contrast case of
    criterion 4, with the one-piece breakpoint table (0, 0), (1, scale).
    ``alpha``, the exponent excess of scale * h^(1+alpha), must be 0."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if self.alpha != 0.0:
            raise ValidationError("alpha must be 0 (the lens)")
        if not (0.0 < self.scale <= 1.0):
            raise ValidationError("scale must be in (0, 1]")

    knots = property(lambda self: np.array([0.0, 1.0]))
    thetas = property(lambda self: np.array([0.0, self.scale]))

    def eval(self, h):
        return self.scale * np.asarray(h, dtype=float)

    def sup_half_width(self) -> float:
        return self.scale


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


def cusp_contains(profile, z: complex) -> bool:
    """Whether z lies in the open region {0 < x < 1, |y| < theta(1 - x)}.

    Note that points closer to 1 than an ulp are indistinguishable from 1
    here; the disk-family certificate below therefore works in the
    cancellation-free coordinate t = 1 - x instead.
    """
    x, y = z.real, z.imag
    if not (0.0 < x < 1.0):
        return False
    return abs(y) < float(profile.eval(1.0 - x))


def cusp_area(profile: CuspProfile) -> float:
    """Normalized area of the cusp domain: (2/pi) integral of theta.

    Exact for the piecewise-linear profile (trapezoid on each piece).
    """
    t, th = profile.knots, profile.thetas
    return float((2.0 / math.pi) * np.sum((th[1:] + th[:-1]) * np.diff(t) / 2.0))


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

    @property
    def band_span(self) -> tuple[float, float]:
        """(lo, hi): the distances from the nearest band centre 2k pi that
        the rectangle covers, in units of pi, derived from the tag.  A box
        at level m covers (0, 2^-m); a pipe at depth n covers (4^-n, 1).

        At depth ~48 the half-widths pi 2^-m drop below one ulp of the
        shift 2 k pi, so spans taken from the stored absolute coordinates
        lose every digit; the structural form never does.
        """
        if self.tag == "pipe":
            return 4.0 ** -self.index, 1.0
        return 0.0, 2.0 ** -self.index

    @property
    def dy_over_pi(self) -> float:
        """Exact y-extent in units of pi."""
        lo, hi = self.band_span
        return 2.0 * (hi - lo)


@dataclass(frozen=True)
class RectilinearDomain:
    """Truncated union F of boxes, towers and pipes in {Re u > 0}.

    Base boxes B(0,m) = [eps_{m+1}, eps_m] x [-pi 2^-m, pi 2^-m] for
    2 <= m <= 2 n_max + 1; tower boxes B(k,2n) for 0 < k < l_n; pipes of
    width 4^-2n centered in the x-range of B(0,2n) spanning
    [2(k-1)pi + 2^-2n pi, 2k pi - 2^-2n pi].  ``l[n-1]`` stores
    l_n = min(n, M_n^2); ``eps4[m]`` stores eps_m (index 0 unused).
    """

    n_max: int
    l: tuple[int, ...]
    rectangles: tuple[Rect, ...]
    eps4: np.ndarray = field(repr=False)
    _x1: np.ndarray = field(repr=False)
    _x2: np.ndarray = field(repr=False)
    _y1: np.ndarray = field(repr=False)
    _y2: np.ndarray = field(repr=False)
    _lo: np.ndarray = field(repr=False)      # band spans (Rect.band_span)
    _hi: np.ndarray = field(repr=False)

    @property
    def _dy_pi(self) -> np.ndarray:
        """Exact y-extents in units of pi."""
        return 2.0 * (self._hi - self._lo)

    def area(self) -> float:
        """Euclidean area (interiors are disjoint, so plain sum)."""
        return float(math.pi * ((self._x2 - self._x1) @ self._dy_pi))

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


def eksy_build(M, n_max: int) -> RectilinearDomain:
    """Build the truncated domain F for targets M (sequence or callable)."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    l = _as_l_values(M, n_max)
    eps4 = eps_exp(np.arange(2 * n_max + 3))
    eps4[0] = np.inf
    rects = []
    for m in range(2, 2 * n_max + 2):
        half = math.pi * 2.0 ** -m
        rects.append(Rect(eps4[m + 1], eps4[m], -half, half, "base", 0, m))
    for n in range(1, n_max + 1):
        m = 2 * n
        half = math.pi * 2.0 ** -m
        for k in range(1, l[n - 1]):
            shift = TWO_PI * k
            rects.append(Rect(eps4[m + 1], eps4[m],
                              shift - half, shift + half, "tower", k, m))
    for n in range(1, n_max + 1):
        width = 4.0 ** (-2 * n)
        gap = eps4[2 * n] - eps4[2 * n + 1]
        if not (width < gap):
            raise ConstructionError(f"pipe at depth {n} wider than its box")
        mid = 0.5 * (eps4[2 * n + 1] + eps4[2 * n])
        margin = math.pi * 2.0 ** (-2 * n)
        for k in range(1, l[n - 1]):
            rects.append(Rect(mid - width / 2.0, mid + width / 2.0,
                              TWO_PI * (k - 1) + margin, TWO_PI * k - margin,
                              "pipe", k, n))
    x1, x2, y1, y2, lo, hi = np.array(
        [(r.x1, r.x2, r.y1, r.y2, *r.band_span) for r in rects]).T.copy()
    # strict interior disjointness (shared edges have zero overlap length)
    xov = np.minimum(x2[:, None], x2[None, :]) - np.maximum(x1[:, None], x1[None, :])
    yov = np.minimum(y2[:, None], y2[None, :]) - np.maximum(y1[:, None], y1[None, :])
    bad = (xov > 0.0) & (yov > 0.0)
    np.fill_diagonal(bad, False)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ConstructionError(f"rectangles {i} and {j} overlap")
    return RectilinearDomain(n_max=n_max, l=tuple(l), rectangles=tuple(rects),
                             eps4=eps4, _x1=x1, _x2=x2, _y1=y1, _y2=y2,
                             _lo=lo, _hi=hi)


def eksy_contains(F: RectilinearDomain, u: complex) -> bool:
    """Membership in the closed union of rectangles."""
    x, y = u.real, u.imag
    return bool(np.any((F._x1 <= x) & (x <= F._x2) & (F._y1 <= y) & (y <= F._y2)))


def count_preimages(F: RectilinearDomain, w: complex) -> int:
    """#{k : 0 <= k <= l_{n_max}, -Log w + 2k pi i in F} for 0 < |w| < 1."""
    r = abs(w)
    if not (0.0 < r < 1.0):
        raise ValidationError("w must satisfy 0 < |w| < 1")
    x0 = -math.log(r)
    y0 = -math.atan2(w.imag, w.real)
    return sum(eksy_contains(F, complex(x0, y0 + TWO_PI * k))
               for k in range(F.l[-1] + 1))
