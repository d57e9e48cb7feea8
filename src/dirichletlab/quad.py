"""Quadrature engines.

Gauss-Legendre rules, tensor rules on rectangles, polar rules on disks
with respect to the normalized area measure dA = dx dy / pi, the
order-doubling verifier, and nodes and moment integrals over the cusp
domain.
"""

from __future__ import annotations

import collections
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyWarning, ValidationError
from .geometry import CuspProfile

ORDER_CAP = 512
DOUBLING_RTOL = 1e-8    # Gram entries and cusp_moment
MOMENT_RTOL = 1e-10     # cusp |w|^2q moments
_CUSP_GRID_SLOTS = 4    # one order-512 grid on 9 profile pieces is ~56 MB
_PANEL_BUDGET = 1024    # panels one adaptive rectangle integral may evaluate


Doubling = collections.namedtuple("Doubling", "value check order residual")


def doubling(value, order: int, rtol: float) -> Doubling:
    """Verify ``value(order)`` by order doubling: double k until value(k)
    and value(k') (scalars or arrays) agree to ``rtol`` in the largest
    relative difference, and return (value(k), value(k'), k, residual),
    where k' = min(2k, ORDER_CAP).  No order above ORDER_CAP is evaluated;
    when the value at ORDER_CAP is not confirmed, it comes back unverified
    (check = value, the last residual or None) with one AccuracyWarning."""
    if not (1 <= order <= ORDER_CAP):
        raise ValidationError(f"order {order} must lie in 1..{ORDER_CAP}")
    val, residual = value(order), None
    while order < ORDER_CAP:
        nxt = min(2 * order, ORDER_CAP)
        check = value(nxt)
        residual = float(np.max(np.abs(check - val)
                                / np.maximum(np.abs(check), 1e-300)))
        if residual <= rtol:
            return Doubling(val, check, order, residual)
        order, val = nxt, check
    warnings.warn(f"order doubling did not stabilize below order cap "
                  f"{ORDER_CAP} (residual {residual})",
                  AccuracyWarning, stacklevel=3)
    return Doubling(val, val, order, residual)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule on [-1, 1]: weights sum to 2, exact through
    degree 2m - 1."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def _readonly(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=64)
def _gauss_rule(m: int) -> QuadratureRule:
    x, w = _readonly(*np.polynomial.legendre.leggauss(m))
    return QuadratureRule(nodes=x, weights=w, order=m)


def gauss_nodes(m: int) -> QuadratureRule:
    """The order-m rule, built once per process; its arrays are read-only."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValidationError(f"order {m} must be an integer >= 1")
    return _gauss_rule(int(m))


def _gl(a: float, b: float, m: int):
    """Nodes and weights on [a, b]."""
    rule = gauss_nodes(m)
    half = 0.5 * (b - a)
    return a + half * (rule.nodes + 1.0), half * rule.weights


def _rect_sides(rect):
    if hasattr(rect, "x1"):
        return rect.x1, rect.x2, rect.y1, rect.y2
    return rect


def _rect_value(f, sides, m: int) -> complex:
    x1, x2, y1, y2 = sides
    xs, wx = _gl(x1, x2, m)
    ys, wy = _gl(y1, y2, m)
    vals = f(xs[:, None] + 1j * ys[None, :])
    return complex(wx @ np.asarray(vals, dtype=complex) @ wy)


def integrate_rect(f, rect, m: int, tol: float = None) -> complex:
    """Tensor Gauss-Legendre integral of f over an axis-aligned rectangle.

    ``f`` must accept a complex ndarray.  Exact for polynomials of degree
    <= 2m - 1 per variable.  With ``tol`` set, the x-interval is bisected
    adaptively until order doubling changes each panel value by less than
    tol relative (needed for e^{-2px} with large p).  At most
    ``_PANEL_BUDGET`` panels are evaluated; a panel that would split past
    the budget keeps its unconfirmed order-2m value, with one
    AccuracyWarning for the whole integral.
    """
    x1, x2, y1, y2 = _rect_sides(rect)
    if x1 == x2 or y1 == y2:
        return 0.0 + 0.0j
    if tol is None:
        return _rect_value(f, (x1, x2, y1, y2), m)
    total, work, spent, settled = 0.0 + 0.0j, [(x1, x2)], 0, True
    while work:
        a, b = work.pop()
        spent += 1
        fine = _rect_value(f, (a, b, y1, y2), 2 * m)
        done = (abs(fine - _rect_value(f, (a, b, y1, y2), m))
                <= tol * max(abs(fine), 1e-300))
        if done or spent + len(work) + 2 > _PANEL_BUDGET:
            total, settled = total + fine, settled and done
        else:
            work += [(0.5 * (a + b), b), (a, 0.5 * (a + b))]
    if not settled:
        warnings.warn(f"adaptive rectangle integral did not converge within "
                      f"{_PANEL_BUDGET} panels", AccuracyWarning, stacklevel=2)
    return total


def _disk_rule(m: int, half: bool = False):
    """Polar rule for integral over the unit disk w.r.t. dA = dx dy / pi.

    Gauss-Legendre of order m in s = rho^2, trapezoid with 4m points in
    angle; weights sum to 1.  With ``half=True`` the angular range is
    folded onto [0, pi] with doubled interior weights; by conjugation
    symmetry the real part of the folded sum equals the full sum, at half
    the cost (used by the Gram witness's verification pass and the
    Galerkin disk calibration).
    """
    rule = gauss_nodes(m)
    s = 0.5 * (rule.nodes + 1.0)
    ws = 0.5 * rule.weights
    T = 4 * m
    if half:
        tt = np.arange(T // 2 + 1)
        mult = np.where((tt == 0) | (tt == T // 2), 1.0, 2.0)
    else:
        tt = np.arange(T)
        mult = np.ones(T)
    ang = 2.0 * math.pi * tt / T
    pts = np.sqrt(s)[:, None] * np.exp(1j * ang)[None, :]
    wts = (ws[:, None] / T) * mult[None, :]
    return pts.ravel(), wts.ravel()


# ---------------------------------------------------------------------------
# cusp-domain nodes and moments


def _cusp_nodes(profile: CuspProfile, mt: int, my: int):
    """Tensor nodes (points w, weights) for integrals over the cusp domain
    w.r.t. dA, substituting x = 1 - t and splitting t at the profile knots.

    Exact (up to rounding) for integrands polynomial in (w, conj(w)) of
    total degree <= min(2 mt - 2, 2 my - 1).  Grids are memoised on the
    breakpoint values (a few recent ones) and returned read-only.
    """
    return _cusp_grid(np.asarray(profile.knots, dtype=float).tobytes(),
                      np.asarray(profile.thetas, dtype=float).tobytes(),
                      int(mt), int(my))


@functools.lru_cache(maxsize=_CUSP_GRID_SLOTS)
def _cusp_grid(knots: bytes, thetas: bytes, mt: int, my: int):
    knots, thetas = np.frombuffer(knots), np.frombuffer(thetas)
    rule = gauss_nodes(my)                  # y = theta(t) * u
    u, wu = rule.nodes, rule.weights
    pts, wts = [], []
    for a, b in zip(knots[:-1], knots[1:]):
        t, wt = _gl(float(a), float(b), mt)
        th = np.interp(t, knots, thetas)    # as CuspProfile.eval(t)
        w = (1.0 - t)[:, None] + 1j * (th[:, None] * u[None, :])
        wgt = (wt * th / math.pi)[:, None] * wu[None, :]
        pts.append(w.ravel())
        wts.append(wgt.ravel())
    return _readonly(np.concatenate(pts), np.concatenate(wts))


def _cusp_integral(profile: CuspProfile, integrand, order: int):
    """Cusp-domain integral of integrand(w) w.r.t. dA at one tensor order."""
    pts, wts = _cusp_nodes(profile, order, order)
    return wts @ integrand(pts)


def cusp_moment(profile: CuspProfile, j: int, k: int) -> complex:
    """Moment integral over the cusp domain: mu_hat_{jk} = int w^k conj(w)^j dA.

    The t-split tensor rule is exact once the order covers the degree, so
    the automatic doubling check below is a corroboration, not a search;
    orders cap at 512 with a warning if the residual survives.
    """
    if not (0 <= j <= 400 and 0 <= k <= 400):
        raise ValidationError("moment degrees must lie in 0..400")
    need = (j + k + 3) // 2          # ceil((j + k + 2) / 2)
    order = max(64, need)
    return complex(doubling(lambda mm: _cusp_integral(
        profile, lambda w: w ** k * np.conj(w) ** j, mm),
        order, DOUBLING_RTOL).check)
