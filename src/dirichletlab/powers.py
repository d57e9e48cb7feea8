"""Dirichlet norms of symbol powers by the region route, and the growth
report.

Change variables through the symbol, giving p^2 int |w|^{2p-2} dmu with
mu the counting measure of the image; on the rectilinear domain the
integral collapses to a closed form, on the cusp to a one-dimensional
Gauss rule on the profile edges that is exact for its polynomial
integrand.  The coefficient (series) route that criterion 8 holds this
against is a test oracle, in ``tests/reference_routes.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import CuspProfile, Rect, RectilinearDomain, exp_drop
from .quad import ORDER_CAP


# ---------------------------------------------------------------------------
# region route


def _rect_arrays(region):
    """(x1, x2, dy/pi) arrays: per row of the built domain, 2 (hi - lo)
    times its copy count, exact at every depth; plain differences for
    ad-hoc rectangle lists."""
    if isinstance(region, RectilinearDomain):
        dy_pi = 2.0 * (region.hi - region.lo) * region.count
        return region.x1, region.x2, dy_pi
    rects = tuple(region) if isinstance(region, (list, tuple)) else ()
    if not rects or not all(isinstance(r, Rect) for r in rects):
        raise ValidationError("region must be a cusp profile, a staircase "
                              "domain or a non-empty list of Rect")
    return (np.array([r.x1 for r in rects]),
            np.array([r.x2 for r in rects]),
            np.array([(r.y2 - r.y1) / math.pi for r in rects]))


def _boundary_moment(profile: CuspProfile, q: int, m: int) -> float:
    """int |w|^{2q} dA over the cusp domain by the order-m Gauss rule on
    the profile edges (``CuspProfile.edge_points``).

    div(r^{2q} (x, y)) = (2q + 2) r^{2q}, so the integral is the flux
    (1/((2q + 2) pi)) of r^{2q} (x dy - y dx) around the boundary.  The
    closing edge x = 0 carries none, and the lower half mirrors the upper:
    the upper edges count twice, with weight 1/((q + 1) pi).  On the edge
    P(s) = P0 + s (P1 - P0) the form is (P0 x P1) ds, and |P(s)|^{2q} has
    degree 2q in s, so order q + 1 is exact.  With P = (1 - t, theta), the
    cross product (1 - t0) theta1 - theta0 (1 - t1) is written as the sum
    of the non-negative terms (1 - t0)(theta1 - theta0) + theta0 (t1 - t0).
    """
    t, th = profile.knots, profile.thetas
    t0, t1, th0, th1 = t[:-1], t[1:], th[:-1], th[1:]
    x, y, ws = profile.edge_points(m)
    cross = (1.0 - t0) * (th1 - th0) + th0 * (t1 - t0)
    edge = (x * x + y * y) ** q @ ws
    return float(cross @ edge) / ((q + 1) * math.pi)


def _is_exponent(q, least: int) -> bool:
    """Whether q is an integer >= least, or an integer array of them."""
    if isinstance(q, np.ndarray):
        return q.dtype.kind in "iu" and bool(np.all(q >= least))
    return isinstance(q, (int, np.integer)) and q >= least


def region_moment(region, q):
    """int |w|^{2q} dmu for the region's counting measure mu.

    Rectilinear route: w = e^{-u} turns the integrand into e^{-2(q+1)x},
    so each rectangle contributes (dy/pi)(e^{-2(q+1)x1} - e^{-2(q+1)x2})
    / (2(q+1)) exactly (a staircase row count times that), and an integer
    array q gives the moments in one broadcast.  Cusp route (mu = 1_Omega
    dA), scalar q only: a flux through the profile edges, exact at order
    q + 1 <= ORDER_CAP and evaluated once (``_boundary_moment``).  Any
    other region raises ValidationError.
    """
    if not _is_exponent(q, 0):
        raise ValidationError("q must be an integer >= 0")
    if isinstance(region, CuspProfile):
        if isinstance(q, np.ndarray) or q >= ORDER_CAP:
            raise ValidationError(f"q {q} outside 0..{ORDER_CAP - 1} on a cusp")
        return _boundary_moment(region, int(q), int(q) + 1)
    x1, x2, dy_pi = _rect_arrays(region)
    s = 2.0 * (np.asarray(q) + 1.0)
    m = exp_drop(s[..., None], x1, x2) @ dy_pi / s
    return m if m.ndim else float(m)


def power_norm_region(region, p):
    """Squared Dirichlet norm of the p-th symbol power via its image:
    p^2 int |w|^{2p-2} dmu, elementwise for an integer array p.  The
    constant |phi(0)|^{2p} <= 1 term depends on the Riemann map and is
    deliberately left out; growth rates do not see it."""
    if not _is_exponent(p, 1):
        raise ValidationError("p must be an integer >= 1")
    return p * (p * 1.0) * region_moment(region, p - 1)


def jensen_lower(region, p: int) -> tuple[float, float]:
    """(lower, actual) with lower = p^2 mu(D) (m2 / mu(D))^{p-1} <= actual.

    Jensen's inequality for x -> x^{p-1} on the normalized measure mu /
    mu(D), applied to the squared region route; equality at p = 1.
    """
    if not (isinstance(p, (int, np.integer)) and p >= 1):
        raise ValidationError("p must be an integer >= 1")
    total = region_moment(region, 0)
    m2 = region_moment(region, 1)
    lower = float(p) * float(p) * total * (m2 / total) ** (int(p) - 1)
    return lower, power_norm_region(region, p)


# ---------------------------------------------------------------------------
# growth report


def growth_term(x):
    """x^2 e^{-x}: the per-level term of the power-norm majorant.

    Increasing on (0, 1) and bounded by min(x^2, 1.35/x); the cubic
    x^3 e^{-x} peaks at 27 e^{-3} < 1.35, which gives the 1/x branch.
    """
    x = np.asarray(x, dtype=float)
    return x * x * np.exp(-x)


def log2_targets(p: int) -> int:
    """M_p = ceil(log2(p + 1)) in exact integer arithmetic."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    return int(p).bit_length()


def growth_majorant(F: RectilinearDomain, p):
    """p^2 sum_n l_n 16^-n e^{-p 4^-n} over the built levels, plus the
    p^2-weighted truncation tail of F; elementwise for an array p."""
    p = np.asarray(p, dtype=float)
    n = np.arange(1, F.n_max + 1)
    maj = (growth_term(p[..., None] * 4.0 ** -n) @ np.asarray(F.l, dtype=float)
           + p * p * F.tail_bound())
    return maj if maj.ndim else float(maj)


def growth_grid(p_max: int) -> np.ndarray:
    """Exponent grid: every p <= 128, then powers of two, then p_max."""
    if p_max < 1:
        raise ValidationError("p_max must be >= 1")
    ps = list(range(1, min(p_max, 128) + 1))
    q = 256
    while q <= p_max:
        ps.append(q)
        q *= 2
    if ps[-1] != p_max:
        ps.append(p_max)
    return np.array(ps, dtype=int)


@dataclass(frozen=True)
class GrowthReport:
    """Exact power norms against the level-sum majorant and the targets.

    ``norm`` is the Dirichlet norm (square root of the region route);
    ``majorant`` lives on the squared scale, so the reported constant is
    k_const = sup norm^2 / majorant, while sup_ratio = sup norm / M_p is
    the growth constant of interest.
    """

    ps: np.ndarray
    norm: np.ndarray
    majorant: np.ndarray
    mp: np.ndarray
    ratio: np.ndarray
    k_const: float
    sup_ratio: float
    tail: float

    def __post_init__(self):
        for a in (self.norm, self.majorant, self.mp, self.ratio):
            if not (np.all(np.isfinite(a)) and np.all(a > 0.0)):
                raise ValidationError("growth report entries must be finite"
                                      " and positive")


def _target_at(M, p: int) -> float:
    v = M(p) if callable(M) else M[p - 1]
    if v < 1:
        raise ValidationError(f"M_{p} = {v} must be >= 1")
    return float(v)


def eksy_growth_report(F: RectilinearDomain, M, p_max: int) -> GrowthReport:
    """Exact squared norms, majorants and targets over the p grid.

    ``M`` is the target sequence (callable on p, or indexable covering
    1..p_max) that F was built from.
    """
    ps = growth_grid(p_max)
    if not callable(M) and len(M) < int(ps[-1]):
        raise ValidationError("target sequence too short for the p grid")
    sq = power_norm_region(F, ps)
    maj = growth_majorant(F, ps)
    mp = np.array([_target_at(M, int(p)) for p in ps])
    norm = np.sqrt(sq)
    ratio = norm / mp
    return GrowthReport(
        ps=ps, norm=norm, majorant=maj, mp=mp, ratio=ratio,
        k_const=float(np.max(sq / maj)), sup_ratio=float(np.max(ratio)),
        tail=F.tail_bound())
