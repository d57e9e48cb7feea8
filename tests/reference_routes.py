"""Second routes to the package's numbers, kept as the tests' oracles.

No experiment runs these: the rectangle rule with order doubling (the
quadrature witness of criterion 7), the lens profile (the non-compact
contrast case of criterion 4), the cusp area and membership test,
singular values through ``spectra.eigh`` (criterion 2), the coefficient
route to power norms (criterion 8) and the level sum of the majorant
(criterion 10).  The product path in ``src/`` computes each of these
numbers, where it needs them, in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dirichletlab.errors import ValidationError
from dirichletlab.geometry import CuspProfile
from dirichletlab.powers import growth_term
from dirichletlab.quad import _gl, doubling
from dirichletlab.spectra import _as_real, eigh


# ---------------------------------------------------------------------------
# rectangle rule (quad)


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
    criterion 4, with the one-piece breakpoint table (0, 0), (1, scale)."""

    scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.scale <= 1.0):
            raise ValidationError("scale must be in (0, 1]")

    knots = property(lambda self: np.array([0.0, 1.0]))
    thetas = property(lambda self: np.array([0.0, self.scale]))

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
