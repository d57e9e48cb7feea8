"""Independent routes to the cusp-domain moments, for the tests only.

mu_hat_jk = int w^k conj(w)^j dA over the cusp domain (dA = dx dy / pi)
by two routes that share nothing with the edge rules of ``powers`` and
``galerkin``: a tensor Gauss grid over the domain, and a 40-digit mpmath
fan of triangles from 0.
"""

import math

import mpmath
import numpy as np

from dirichletlab.errors import ValidationError
from dirichletlab.gram import DOUBLING_RTOL

from reference_routes import doubling


def cusp_nodes(profile, mt: int, my: int):
    """Tensor nodes (points w, weights) for integrals over the cusp domain
    w.r.t. dA, substituting x = 1 - t and y = theta(t) u, with the t-axis
    split at the profile knots: order mt in t on each piece, order my in u.

    Exact (up to rounding) for integrands polynomial in (w, conj(w)) of
    total degree <= min(2 mt - 2, 2 my - 1).
    """
    knots, thetas = profile.knots, profile.thetas
    u, wu = np.polynomial.legendre.leggauss(my)
    tn, tw = np.polynomial.legendre.leggauss(mt)
    pts, wts = [], []
    for a, b in zip(knots[:-1], knots[1:]):
        half = 0.5 * (float(b) - float(a))
        t, wt = float(a) + half * (tn + 1.0), half * tw
        th = np.interp(t, knots, thetas)    # as CuspProfile.eval(t)
        pts.append(((1.0 - t)[:, None] + 1j * (th[:, None] * u[None, :])).ravel())
        wts.append(((wt * th / math.pi)[:, None] * wu[None, :]).ravel())
    return np.concatenate(pts), np.concatenate(wts)


def cusp_moment(profile, j: int, k: int) -> complex:
    """mu_hat_jk on the tensor grid.

    The t-split tensor rule is exact once the order covers the degree, so
    the doubling check is a corroboration, not a search; orders cap at 512
    with a warning if the residual survives.
    """
    if not (0 <= j <= 400 and 0 <= k <= 400):
        raise ValidationError("moment degrees must lie in 0..400")

    def value(order):
        pts, wts = cusp_nodes(profile, order, order)
        return wts @ (pts ** k * np.conj(pts) ** j)

    need = (j + k + 3) // 2          # ceil((j + k + 2) / 2)
    return complex(doubling(value, max(64, need), DOUBLING_RTOL).check)


def tensor_table(profile, K: int) -> np.ndarray:
    """Re mu_hat_jk for j, k < K on the order-K tensor grid, exact for
    total degree 2K - 2, from the complex Vandermonde product."""
    pts, wts = cusp_nodes(profile, K, K)
    V = pts[:, None] ** np.arange(K)
    return ((V.conj() * wts[:, None]).T @ V).real


def fan_moment(profile, j: int, k: int) -> float:
    """mu_hat_jk to 40 digits, as a fan of triangles from 0.

    In polar coordinates w^k conj(w)^j = r^(j+k) e^(i(k-j)phi).  Across the
    edge P0 P1 the radius at angle phi is (P0 x P1) / (dy cos phi - dx sin
    phi), and the radial integral of r^(j+k+1) is R^(j+k+2) / (j+k+2).
    The lower half is the mirror image, so both halves give twice the real
    part, cos((k-j)phi), of the upper one; over pi.
    """
    with mpmath.workdps(40):
        x = [1 - mpmath.mpf(float(v)) for v in profile.knots]
        th = [mpmath.mpf(float(v)) for v in profile.thetas]
        total = mpmath.mpf(0)
        for x0, x1, y0, y1 in zip(x[:-1], x[1:], th[:-1], th[1:]):
            c, dx, dy = x0 * y1 - y0 * x1, x1 - x0, y1 - y0
            total += mpmath.quad(
                lambda phi: (c / (dy * mpmath.cos(phi) - dx * mpmath.sin(phi)))
                ** (j + k + 2) * mpmath.cos((k - j) * phi),
                [mpmath.atan2(y0, x0), mpmath.atan2(y1, x1)])
        return float(2 * total / ((j + k + 2) * mpmath.pi))
