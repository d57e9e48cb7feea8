"""Quadrature engines.

Gauss-Legendre rules, tensor rules on rectangles, polar rules on disks
with respect to the normalized area measure dA = dx dy / pi, the
cancellation-free Bergman kernel evaluation for disk-family pairs, and
moment integrals over the cusp domain.
"""

from __future__ import annotations

import collections
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyWarning, NumericIntegrityError, ValidationError
from .geometry import CuspProfile, DiskFamily

ORDER_CAP = 512
DOUBLING_RTOL = 1e-8    # Gram entries and cusp_moment
MOMENT_RTOL = 1e-10     # cusp |w|^2q moments and the cusp window area
_CUSP_GRID_SLOTS = 4    # one order-512 grid on 9 profile pieces is ~56 MB
_BLOCK_POINTS = 1 << 15  # weighted-kernel block: its three buffers (1.25 MB)
                         # stay in a 2 MB L2; 1 << 16 ran ~30% slower
_FLOOR_SQ = (1.0 - 1e-8) ** 2   # |den / delta^i|^2 floor, with rounding slack


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


def integrate_rect(f, rect, m: int, tol: float = None, max_depth: int = 40) -> complex:
    """Tensor Gauss-Legendre integral of f over an axis-aligned rectangle.

    ``f`` must accept a complex ndarray.  Exact for polynomials of degree
    <= 2m - 1 per variable.  With ``tol`` set, the x-interval is bisected
    adaptively until order doubling changes the panel value by less than
    tol relative (needed for e^{-2px} with large p).
    """
    x1, x2, y1, y2 = _rect_sides(rect)
    if x1 == x2 or y1 == y2:
        return 0.0 + 0.0j
    if tol is None:
        return _rect_value(f, (x1, x2, y1, y2), m)
    coarse = _rect_value(f, (x1, x2, y1, y2), m)
    fine = _rect_value(f, (x1, x2, y1, y2), 2 * m)
    if abs(fine - coarse) <= tol * max(abs(fine), 1e-300):
        return fine
    if max_depth == 0:
        warnings.warn("adaptive rectangle integral did not converge",
                      AccuracyWarning, stacklevel=2)
        return fine
    xm = 0.5 * (x1 + x2)
    return (integrate_rect(f, (x1, xm, y1, y2), m, tol, max_depth - 1)
            + integrate_rect(f, (xm, x2, y1, y2), m, tol, max_depth - 1))


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


def integrate_disk(f, center: complex, radius: float, m: int) -> complex:
    """Integral of f over D(center, radius) w.r.t. normalized area dA.

    The constant function integrates to radius^2 (A(D(c, r)) = r^2 under
    dA).  ``f`` must accept a complex ndarray.
    """
    if not (radius > 0.0):
        raise ValidationError(f"radius {radius} must be positive")
    pts, wts = _disk_rule(m)
    vals = np.asarray(f(center + radius * pts), dtype=complex)
    return complex(radius * radius * (wts @ vals))


def kernel_centered(i: int, j: int, xi, zeta, family: DiskFamily,
                    weights=None):
    """Bergman kernel 1/(1 - w conj(z))^2 at z = c_i + r_i xi, w = c_j + r_j zeta.

    Evaluated through 1 - w conj(z) = s_ij - c_i r_j zeta - c_j r_i conj(xi)
    - r_i r_j conj(xi) zeta with s_ij = 2 delta^i + (1 - 2 delta^i) 2 delta^j,
    which keeps full relative precision where the direct form loses every
    digit.  Guards the bound |1 - w conj(z)| >= delta^i.

    Without ``weights``, xi and zeta broadcast and the kernel values come
    back.  With ``weights`` (one real weight per point of the 1-D ``xi``),
    the weighted sums over xi come back, one per point of the 1-D ``zeta``:
    the contraction is done in real arithmetic on blocks of _BLOCK_POINTS
    kernel points, without forming the xi-by-zeta kernel matrix.
    """
    if not (1 <= i <= j <= family.n):
        raise ValidationError(f"need 1 <= i <= j <= {family.n}")
    xi = np.asarray(xi, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    if np.any(np.abs(xi) > 1.0 + 1e-12) or np.any(np.abs(zeta) > 1.0 + 1e-12):
        raise ValidationError("kernel parameters must lie in the closed unit disk")
    rows = _den_rows(i, j, zeta, family)
    inv = 1.0 / family.delta_pows[i - 1]
    if weights is None:
        d = (rows @ np.stack([np.ones(xi.shape), xi.real, xi.imag],
                             axis=-1)[..., None])[..., 0]
        re, im, abs2 = (np.empty(d.shape[:-1]) for _ in range(3))
        _inv_square(d[..., 0], d[..., 1], re, im, abs2, i)
        return (re - 2j * im) * inv * inv
    weights = np.asarray(weights, dtype=float)
    if xi.ndim != 1 or zeta.ndim != 1 or weights.shape != xi.shape:
        raise ValidationError("weighted kernel needs 1-D xi and zeta and one "
                              "weight per xi point")
    basis = np.stack([np.ones(xi.size), xi.real, xi.imag])
    bz = max(1, _BLOCK_POINTS // max(xi.size, 1))
    d, out = np.empty((2, 2 * bz, xi.size))
    abs2 = np.empty((bz, xi.size))
    sums = np.empty((2, zeta.size))
    for lo in range(0, zeta.size, bz):
        k = min(bz, zeta.size - lo)
        np.matmul(rows[lo:lo + k].transpose(1, 0, 2).reshape(2 * k, 3), basis,
                  out=d[:2 * k])
        _inv_square(d[:k], d[k:2 * k], out[:k], out[k:2 * k], abs2[:k], i)
        sums[:, lo:lo + k] = (out[:2 * k] @ weights).reshape(2, k)
    # inv * inv alone can overflow before the result does
    return (sums[0] - 2j * sums[1]) * inv * inv


def _den_rows(i, j, zeta, family):
    """The kernel denominator over delta^i as two linear forms in
    (1, Re xi, Im xi), real part then imaginary part: an array of shape
    zeta.shape + (2, 3)."""
    inv = 1.0 / family.delta_pows[i - 1]
    ci, cj = family.centers[i - 1], family.centers[j - 1]
    ri, rj = family.radii[i - 1], family.radii[j - 1]
    a = (family.s(i, j) - ci * rj * zeta) * inv
    b = (cj * ri + ri * rj * zeta) * inv
    # a - conj(xi) b = (a_r - x b_r - y b_i) + i (a_i - x b_i + y b_r)
    return np.stack([np.stack([a.real, -b.real, -b.imag], axis=-1),
                     np.stack([a.imag, -b.imag, b.real], axis=-1)], axis=-2)


def _inv_square(dr, di, re, im, abs2, i):
    """Write (dr^2 - di^2)/|d|^4 to ``re`` and dr di/|d|^4 to ``im``, so that
    1/d^2 = re - 2i im for d = dr + i di, after checking the scaled floor
    |d| >= 1 - 1e-8 at every point (``abs2`` is scratch)."""
    np.multiply(dr, dr, out=re)
    np.multiply(di, di, out=im)
    np.add(re, im, out=abs2)
    if not abs2.min(initial=np.inf) >= _FLOOR_SQ:
        raise NumericIntegrityError(
            f"kernel denominator below its floor delta^{i}; cancellation bug")
    np.subtract(re, im, out=re)
    np.multiply(dr, di, out=im)
    np.multiply(abs2, abs2, out=abs2)
    np.divide(re, abs2, out=re)
    np.divide(im, abs2, out=im)


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


def cusp_moment(profile: CuspProfile, j: int, k: int, m: int = 64) -> complex:
    """Moment integral over the cusp domain: mu_hat_{jk} = int w^k conj(w)^j dA.

    The t-split tensor rule is exact once the order covers the degree, so
    the automatic doubling check below is a corroboration, not a search;
    orders cap at 512 with a warning if the residual survives.
    """
    if not (0 <= j <= 400 and 0 <= k <= 400):
        raise ValidationError("moment degrees must lie in 0..400")
    need = (j + k + 3) // 2          # ceil((j + k + 2) / 2)
    order = max(min(m, ORDER_CAP), need, 1)
    return complex(doubling(lambda mm: _cusp_integral(
        profile, lambda w: w ** k * np.conj(w) ** j, mm),
        order, DOUBLING_RTOL).check)
