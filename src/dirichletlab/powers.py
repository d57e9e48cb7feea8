"""Dirichlet norms of symbol powers by two independent routes.

Series route: expand the p-th power of a polynomial symbol by repeated
coefficient convolution and sum |c_0|^2 + sum n |c_n|^2.  Region route:
change variables through the symbol, giving p^2 int |w|^{2p-2} dmu with
mu the counting measure of the image; on the rectilinear domain the
integral collapses to a closed form, on the cusp it is quadrature.
Coefficient series are plain 1-D complex arrays c_0..c_d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import CuspProfile, RectilinearDomain, exp_drop
from .quad import MOMENT_RTOL, _cusp_integral, doubling

DEGREE_CAP = 1 << 20


# ---------------------------------------------------------------------------
# series route


def norms(c) -> tuple[float, float, float]:
    """(Dirichlet, Bergman, Hardy) norms of the polynomial sum c_n z^n.

    Squared norms are |c_0|^2 + sum n |c_n|^2, sum |c_n|^2 / (n + 1) and
    sum |c_n|^2; the Hardy norm never exceeds the Dirichlet norm.
    """
    c = np.asarray(c, dtype=complex).ravel()
    if c.size == 0:
        raise ValidationError("need at least one coefficient")
    sq = np.abs(c) ** 2
    n = np.arange(c.size)
    dirichlet = float(sq[0] + (n * sq).sum())
    bergman = float((sq / (n + 1.0)).sum())
    hardy = float(sq.sum())
    return math.sqrt(dirichlet), math.sqrt(bergman), math.sqrt(hardy)


def power_coeffs(c, p: int) -> np.ndarray:
    """Coefficients of the p-th power by square-and-multiply convolution."""
    c = np.asarray(c, dtype=complex).ravel()
    if c.size == 0:
        raise ValidationError("need at least one coefficient")
    if not (isinstance(p, (int, np.integer)) and p >= 1):
        raise ValidationError("p must be an integer >= 1")
    if (c.size - 1) * int(p) > DEGREE_CAP:
        raise ValidationError(
            f"power degree {(c.size - 1) * int(p)} exceeds cap {DEGREE_CAP}")
    out = np.array([1.0 + 0.0j])
    base, k = c, int(p)
    while True:
        if k & 1:
            out = np.convolve(out, base)
        k >>= 1
        if k == 0:
            return out
        base = np.convolve(base, base)


def power_norm_series(c, p: int) -> float:
    """Dirichlet norm of the p-th power of the polynomial symbol c."""
    return norms(power_coeffs(c, p))[0]


# ---------------------------------------------------------------------------
# region route


def _rect_arrays(region):
    """(x1, x2, dy/pi) arrays; exact structural y-extents for the built
    domain, plain differences for ad-hoc rectangle lists."""
    if isinstance(region, RectilinearDomain):
        return region._x1, region._x2, region._dy_pi
    rects = tuple(region)
    if not rects:
        raise ValidationError("need at least one rectangle")
    return (np.array([r.x1 for r in rects]),
            np.array([r.x2 for r in rects]),
            np.array([(r.y2 - r.y1) / math.pi for r in rects]))


def _cusp_abs_moment(profile: CuspProfile, q: int) -> float:
    # (x^2 + y^2)^q has total degree 2q; the t-split rule at order q + 1
    # is already exact, so the doubling check only corroborates.
    return float(doubling(lambda mm: _cusp_integral(
        profile, lambda w: (w.real ** 2 + w.imag ** 2) ** q, mm),
        max(64, q + 1), MOMENT_RTOL).check)


def region_moment(region, q: int) -> float:
    """int |w|^{2q} dmu for the region's counting measure mu.

    Rectilinear route: w = e^{-u} turns the integrand into e^{-2(q+1)x},
    so each rectangle contributes (dy/pi)(e^{-2(q+1)x1} - e^{-2(q+1)x2})
    / (2(q+1)) exactly.  Cusp route: tensor quadrature (mu = 1_Omega dA).
    """
    if not (isinstance(q, (int, np.integer)) and q >= 0):
        raise ValidationError("q must be an integer >= 0")
    if isinstance(region, CuspProfile):
        return _cusp_abs_moment(region, int(q))
    x1, x2, dy_pi = _rect_arrays(region)
    s = 2.0 * (q + 1.0)
    return float(dy_pi @ exp_drop(s, x1, x2)) / s


def power_norm_region(region, p: int) -> float:
    """Squared Dirichlet norm of the p-th symbol power via its image:
    p^2 int |w|^{2p-2} dmu.  The constant |phi(0)|^{2p} <= 1 term depends
    on the Riemann map and is deliberately left out; growth rates do not
    see it."""
    if not (isinstance(p, (int, np.integer)) and p >= 1):
        raise ValidationError("p must be an integer >= 1")
    return float(p) * float(p) * region_moment(region, int(p) - 1)


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


def growth_term_sum(p, n_terms: int) -> float:
    """sum_{n=1..n_terms} of growth_term(p 4^-n)."""
    if n_terms < 1:
        raise ValidationError("n_terms must be >= 1")
    return float(growth_term(float(p) * 4.0 ** -np.arange(1, n_terms + 1)).sum())


def log2_targets(p: int) -> int:
    """M_p = ceil(log2(p + 1)) in exact integer arithmetic."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    return int(p).bit_length()


def growth_majorant(F: RectilinearDomain, p: int) -> float:
    """p^2 sum_n l_n 16^-n e^{-p 4^-n} over the built levels, plus the
    p^2-weighted truncation tail of F."""
    n = np.arange(1, F.n_max + 1)
    l = np.asarray(F.l, dtype=float)
    main = float(l @ growth_term(float(p) * 4.0 ** -n))
    return main + float(p) * float(p) * F.tail_bound()


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
    sq = np.array([power_norm_region(F, int(p)) for p in ps])
    maj = np.array([growth_majorant(F, int(p)) for p in ps])
    mp = np.array([_target_at(M, int(p)) for p in ps])
    norm = np.sqrt(sq)
    ratio = norm / mp
    return GrowthReport(
        ps=ps, norm=norm, majorant=maj, mp=mp, ratio=ratio,
        k_const=float(np.max(sq / maj)), sup_ratio=float(np.max(ratio)),
        tail=F.tail_bound())
