"""Second routes to the package's numbers, kept as the tests' oracles.

No experiment runs these: the escalating order-doubling verifier and
its AccuracyWarning (the Gram witness in ``src/`` compares order m with
2m once; the rectangle rule and ``cusp_oracles`` still escalate), the
rectangle rule with order doubling (the quadrature witness of criterion
7), the lens profile (the non-compact contrast case of criterion 4), the
cusp area and membership test, singular values through ``spectra.eigh``
(criterion 2), the moment table as one complex product over every
boundary node, the coefficient route to power norms (criterion 8), the
level sum of the majorant (criterion 10) and the staircase window table
one depth at a time.  The product path in ``src/`` computes each of
these numbers, where it needs them, in closed form, or piece by piece
(the moment table), or in blocks of depths (the window table).
``one_row_domain`` builds the hand-made staircase rows (a strip, a thin
box, one pipe) on which the tests run that product path.
"""

from __future__ import annotations

import collections
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from dirichletlab.errors import NumericIntegrityError, ValidationError
from dirichletlab.geometry import CuspProfile, RectilinearDomain, piece_table
from dirichletlab.powers import growth_term
from dirichletlab.quad import ORDER_CAP, _gl
from dirichletlab.spectra import _as_real, eigh


# ---------------------------------------------------------------------------
# order doubling (quad) and its warning (errors)


class AccuracyWarning(UserWarning):
    """A quadrature result did not stabilize under order doubling."""


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


# ---------------------------------------------------------------------------
# rectangle rule (quad)


def _rect_sides(rect):
    if hasattr(rect, "x1"):
        return rect.x1, rect.x2, rect.y1, rect.y2
    return rect


def _rect_value(f, sides, m: int) -> complex:
    x1, x2, y1, y2 = sides
    s, w = _gl(m)
    xs, wx = x1 + (x2 - x1) * s, (x2 - x1) * w
    ys, wy = y1 + (y2 - y1) * s, (y2 - y1) * w
    vals = f(xs[:, None] + 1j * ys[None, :])
    return complex(wx @ np.asarray(vals, dtype=complex) @ wy)


def integrate_rect(f, rect, m: int, tol: float = None) -> complex:
    """Tensor Gauss-Legendre integral of f over an axis-aligned rectangle.

    ``f`` must accept a complex ndarray.  Exact for polynomials of degree
    <= 2m - 1 per variable.  With ``tol`` set, the order-m value is
    verified by ``doubling`` (needed for e^{-2px} with large p) and the
    confirming value at twice the settled order comes back; no order above
    ORDER_CAP is evaluated, and an unconfirmed value carries one
    AccuracyWarning.
    """
    sides = _rect_sides(rect)
    x1, x2, y1, y2 = sides
    if x1 == x2 or y1 == y2:
        return 0.0 + 0.0j
    if tol is None:
        return _rect_value(f, sides, m)
    return doubling(lambda k: _rect_value(f, sides, k), m, tol).check


# ---------------------------------------------------------------------------
# lens profile, cusp membership and area (geometry)


@dataclass(frozen=True)
class PowerProfile:
    """Lens profile theta(h) = scale * h, the non-compact contrast case of
    criterion 4, with the one-piece breakpoint table (0, 0), (1, scale)
    and its piece table, as a cusp profile holds them."""

    scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.scale <= 1.0):
            raise ValidationError("scale must be in (0, 1]")

    knots = property(lambda self: np.array([0.0, 1.0]))
    thetas = property(lambda self: np.array([0.0, self.scale]))
    pieces = property(lambda self: piece_table(self.knots, self.thetas))

    def eval(self, h):
        return self.scale * np.asarray(h, dtype=float)


def cusp_contains(profile, z: complex) -> bool:
    """Whether z lies in the open region {0 < x < 1, |y| < theta(1 - x)}.

    Note that points closer to 1 than an ulp are indistinguishable from 1
    here; the disk-family certificate therefore works in the
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


def one_row_domain(x1, x2, lo=0.0, hi=1.0, count=1, first=0, pipe=False):
    """A staircase of one level row: count copies k = first, first + 1, ...
    of x-range [x1, x2] with band span (lo, hi), as in ``eksy_build``; the
    strip 0 < x < 400, |y| < pi is one_row_domain(0.0, 400.0)."""
    return RectilinearDomain(
        n_max=0, l=(), eps4=np.array([np.inf]),
        x1=np.array([x1]), x2=np.array([x2]), lo=np.array([lo]),
        hi=np.array([hi]), first=np.array([first]), count=np.array([count]),
        pipe=np.array([pipe]))


# ---------------------------------------------------------------------------
# staircase window table (carleson), one pullback_mass call per depth


def window_table_per_depth(F: RectilinearDomain):
    """The rows (N, mu_half, mu_window, index) of
    ``carleson.eksy_window_table``, one N at a time: both windows of one N
    are one ``pullback_mass`` call on a (2, 1) column xlo, and the first N
    whose measures are not finite normal floats raises
    ``NumericIntegrityError`` with the same message."""
    rows = []
    for N in range(1, F.n_max + 1):
        xlo = np.array([[F.eps4[2 * N + 1]], [0.0]])    # W'_{2N}, W(1, h_N)
        mu_half, mu_window = map(float, F.pullback_mass(
            2.0, xlo, float(F.eps4[2 * N]), 2.0 ** (-2 * N)))
        if not (math.isfinite(mu_half) and math.isfinite(mu_window)
                and min(mu_half, mu_window) >= sys.float_info.min):
            raise NumericIntegrityError(
                f"window measures at N={N} are {mu_half!r} and {mu_window!r},"
                " not normal floats")
        rows.append((N, mu_half, mu_window, math.ldexp(mu_window, 4 * N)))
    return rows


# ---------------------------------------------------------------------------
# singular values (spectra)


def singular_values(A) -> np.ndarray:
    """Singular values (non-increasing) via eigenvalues of A^T A."""
    A = _as_real(A)
    if A.ndim != 2:
        raise ValidationError("matrix must be 2-dimensional")
    H = A.T @ A
    lam = eigh(H)
    return np.sqrt(np.clip(lam, 0.0, None))


# ---------------------------------------------------------------------------
# the moment table in one complex product (galerkin)


def one_shot_table(z, c, K: int, close=0.0) -> np.ndarray:
    """galerkin._boundary_table's sum as one complex product over every
    node of every piece: (conj(P) c) P^T, P the K-row power table."""
    z, c = np.ravel(z), np.ravel(c)
    P = np.empty((K, z.size), dtype=complex)
    P[0] = 1.0
    np.cumprod(np.broadcast_to(z, (K - 1, z.size)), axis=0, out=P[1:])
    j = np.arange(K)[:, None]
    return (((P.conj() * c) @ P.T).imag / (j + 1.0) + close) / math.pi


# ---------------------------------------------------------------------------
# series route and the majorant's level sum (powers)

DEGREE_CAP = 1 << 20


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


def growth_term_sum(p, n_terms: int) -> float:
    """sum_{n=1..n_terms} of growth_term(p 4^-n)."""
    if n_terms < 1:
        raise ValidationError("n_terms must be >= 1")
    return float(growth_term(float(p) * 4.0 ** -np.arange(1, n_terms + 1)).sum())
