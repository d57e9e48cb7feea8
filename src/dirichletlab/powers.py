"""Dirichlet norms of symbol powers by the region route, and the growth
report.

Change variables through the symbol, giving p^2 int |w|^{2p-2} dmu with
mu the counting measure of the image; the rectilinear domain evaluates
the integral itself, in closed form (``RectilinearDomain.pullback_mass``),
and on the cusp a one-dimensional Gauss rule on the profile edges is
exact for its polynomial integrand.  The coefficient (series) route that
criterion 8 holds this against is a test oracle, in
``tests/reference_routes.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericIntegrityError, ValidationError
from .geometry import CuspProfile, RectilinearDomain, target_values
from .quad import ORDER_CAP


# ---------------------------------------------------------------------------
# region route


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
    of the non-negative terms (1 - t0)(theta1 - theta0) + theta0 (t1 - t0),
    read from the profile's piece table (``CuspProfile.pieces``).
    """
    x, y, ws = profile.edge_points(m)
    edge = (x * x + y * y) ** q @ ws
    return float(profile.pieces.cross @ edge) / ((q + 1) * math.pi)


def _is_exponent(q, least: int) -> bool:
    """Whether q is an integer >= least, or an integer array of them."""
    if isinstance(q, np.ndarray):
        return q.dtype.kind in "iu" and bool(np.all(q >= least))
    return isinstance(q, (int, np.integer)) and q >= least


def region_moment(region, q):
    """int |w|^{2q} dmu for the region's counting measure mu.

    Staircase route: w = e^{-u} turns the integrand into e^{-2(q+1)x}, a
    closed form over the level rows (``RectilinearDomain.pullback_mass``
    at s = 2(q + 1)), and an integer array q gives the moments in one
    broadcast.  Cusp route (mu = 1_Omega dA), scalar q only: a flux
    through the profile edges, exact at order q + 1 <= ORDER_CAP and
    summed once per profile (``_boundary_moment``): the value is kept in
    the profile's ``moment_memo`` under int(q).  Any other region raises
    ValidationError.
    """
    if not _is_exponent(q, 0):
        raise ValidationError("q must be an integer >= 0")
    if isinstance(region, CuspProfile):
        if isinstance(q, np.ndarray) or q >= ORDER_CAP:
            raise ValidationError(f"q {q} outside 0..{ORDER_CAP - 1} on a cusp")
        q, memo = int(q), region.moment_memo
        if q not in memo:
            memo[q] = _boundary_moment(region, q, q + 1)
        return memo[q]
    if not isinstance(region, RectilinearDomain):
        raise ValidationError("region must be a cusp profile or a staircase "
                              "domain")
    return region.pullback_mass(2.0 * (np.asarray(q) + 1.0))


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
    maj = (np.vecdot(growth_term(p[..., None] * 4.0 ** -n),
                     np.asarray(F.l, dtype=float)) + p * p * F.tail_bound())
    return maj if maj.ndim else float(maj)


def growth_grid(p_max: int) -> np.ndarray:
    """Exponent grid: every p <= 128, then powers of two, then p_max."""
    if not (1 <= p_max <= np.iinfo(np.int64).max):
        raise ValidationError("p_max must lie in 1..2^63 - 1")
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
        # the norm, about e^{-p x_min}, underflows at large p on a shallow F
        entries = (self.norm, self.majorant, self.mp, self.ratio)
        good = np.all([np.isfinite(a) & (a > 0.0) for a in entries], axis=0)
        if not good.all():
            i = int(np.argmin(good))
            raise NumericIntegrityError(
                f"growth report at p={int(self.ps[i])} (norm"
                f" {float(self.norm[i])!r}) not finite and positive")


def eksy_growth_report(F: RectilinearDomain, M, p_max: int) -> GrowthReport:
    """Exact squared norms, majorants and targets over the p grid.

    ``M`` is the target sequence (callable on p, or indexable covering
    1..p_max) that F was built from, read under the build's rule
    (``geometry.target_values``) at every p of the grid.
    """
    ps = growth_grid(p_max)
    mp = np.array(target_values(M, ps.tolist()), dtype=float)
    sq = power_norm_region(F, ps)
    maj = growth_majorant(F, ps)
    norm = np.sqrt(sq)
    ratio = norm / mp
    return GrowthReport(
        ps=ps, norm=norm, majorant=maj, mp=mp, ratio=ratio,
        k_const=float(np.max(sq / maj)), sup_ratio=float(np.max(ratio)),
        tail=F.tail_bound())
