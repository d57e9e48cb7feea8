"""Carleson window measures and embedding diagnostics.

Two window types, never conflated: the disk window S(xi, h) = D(xi, h)
intersected with the unit disk, used for the cusp symbol, and the
arc-annulus window W(1, h) = {1 - h <= |z| < 1, |arg z| < pi h} with its
half-depth variant W'_n, used for the exponential image of the
rectilinear domain.  All measures are w.r.t. dA = dx dy / pi.  Both are
closed forms: the cusp window at xi = 1 over the profile's breakpoint
table, the staircase windows as masses that the domain's level rows
integrate themselves (``RectilinearDomain.pullback_mass``).  The
supremum of the cusp window over the unit circle is enclosed between
the window at xi = 1 and the one of radius C h there
(``cone_constant``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericIntegrityError, ValidationError
from .geometry import CuspProfile, RectilinearDomain


# ---------------------------------------------------------------------------
# cusp windows S(xi, h)


def window_area_cusp(profile, h: float) -> float:
    """Normalized area of S(1, h) intersected with the cusp domain, in
    closed form over the profile's piece table (``pieces``): (1/pi) int_0^t_hi
    2 min(theta(t), r(t)) dt, r = sqrt(h^2 - t^2), t_hi = min(h, 1), for h
    up to 2 so that a window can cover the whole domain.  Trapezoids up to
    the one crossing c of the increasing theta^2 + t^2 with h^2 (else
    c = 1, and no segment), then the segment
    (1/pi)[h^2 (atan2(r_c, c) - atan2(r_t, t_hi)) + t_hi r_t - c r_c] with
    r_c = theta(c).  On the piece [k0, k1] of slope s holding c, t = k0 + u
    solves (1 + s^2) u^2 + 2 B u + C = 0 with B = t0 s + k0 >= 0 and
    C = t0^2 + k0^2 - h^2 <= 0; its larger root is written without
    cancellation.  A mass that is not a finite normal float raises
    ``NumericIntegrityError``."""
    if not (0.0 < h <= 2.0):
        raise ValidationError(f"h {h} outside (0, 2]")
    p = profile.pieces
    i = int(np.searchsorted(p.radius2, h * h, side="right"))
    with np.errstate(all="ignore"):     # the guard below reports it
        if i == len(p.radius2):         # theta below the circle up to t = 1
            area = float(np.sum(p.trap)) / math.pi
        else:
            k0, t0, dk = p.t0[i - 1], p.theta0[i - 1], p.dt[i - 1]
            s = p.dtheta[i - 1] / dk
            b, c0 = t0 * s + k0, t0 * t0 + k0 * k0 - h * h
            u = min(-c0 / (b + math.sqrt(b * b - (1.0 + s * s) * c0)), dk)
            c, r_c = k0 + u, t0 + s * u
            t_hi = min(h, 1.0)
            r_t = math.sqrt(h * h - t_hi * t_hi)
            area = (float(np.sum(p.trap[:i - 1])) + (t0 + r_c) * u
                    + h * h * (math.atan2(r_c, c) - math.atan2(r_t, t_hi))
                    + t_hi * r_t - c * r_c) / math.pi
    if not (math.isfinite(area) and area >= sys.float_info.min):
        raise NumericIntegrityError(
            f"window area at h={h!r} is {float(area)!r}, not a normal float")
    return float(area)


def cone_constant(profile: CuspProfile) -> float:
    """C with S(xi, h) & Omega inside S(1, C h) & Omega for every |xi| = 1,
    so that A(S(1, h) & Omega) <= rho(h) <= A(S(1, C h) & Omega), where
    rho(h) = sup over the unit circle of A(S(xi, h) & Omega).  Both ends are
    ``window_area_cusp`` windows at xi = 1.

    Take w = 1 - t + iy in Omega, 0 < t < 1.  Then |y| < theta(t) <= s t
    with s = max_k theta_k / t_k over the knots t_k > 0: on a linear piece
    theta / t is monotone, so its maximum sits at a knot (for a
    ``profile_make`` profile s = eps_1 <= 2^-8, up to rounding).  For |xi| = 1,
        |w - xi| >= 1 - |w| >= 1 - ((1 - t) + |y|) >= (1 - s) t,
    and |w - 1| = sqrt(t^2 + y^2) <= sqrt(1 + s^2) t, so
    |w - 1| <= C |w - xi| with C = sqrt(1 + s^2) / (1 - s): a point of
    D(xi, h) lies in D(1, C h).  The bound is sharp at t = 1 (C = 1.0039293
    at s = 2^-8).  The five rounded operations leave C within 2 ulps; it is
    rounded up by 4, which also covers the rounding of the product C h.
    """
    s = float(np.max(profile.thetas[1:] / profile.knots[1:]))
    c = math.sqrt(1.0 + s * s) / (1.0 - s)
    for _ in range(4):
        c = math.nextafter(c, math.inf)
    return c


@dataclass(frozen=True)
class WindowMeasureReport:
    """rho(h) on the anchor scales h_j = delta^j, j = 1..n, enclosed between
    the xi = 1 windows of radius h (``lower``) and C h (``upper``), with
    C = ``cone_constant``, the index lower / h^2 and the decay bounds
    eps_j / delta."""

    hs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    cone_constant: float
    bound: np.ndarray
    index: np.ndarray


def cusp_window_report(profile: CuspProfile) -> WindowMeasureReport:
    """Both ends of the rho(h) enclosure at every anchor of the profile."""
    hs, _ = profile.anchors
    C = cone_constant(profile)
    lower = np.array([window_area_cusp(profile, h) for h in hs.tolist()])
    upper = np.array([window_area_cusp(profile, C * h) for h in hs.tolist()])
    return WindowMeasureReport(
        hs=hs, lower=lower, upper=upper, cone_constant=C,
        bound=np.array(profile.eps.values) / profile.delta,
        index=lower / hs ** 2)


# ---------------------------------------------------------------------------
# rectilinear windows W(1, h) and W'_n


def half_window_area(n):
    """A(W'_n) = 2^-n ((1 - 2^-(n+1))^2 - (1 - 2^-n)^2) = 2^-n (a - 3a^2/4)
    with a = 2^-n, written in the cancellation-free polynomial form; an
    integer array n gives one area per entry."""
    a = 2.0 ** -n
    return a * (a - 0.75 * a * a)


def eksy_window_table(F: RectilinearDomain):
    """Rows (N, mu_half, mu_window, index): the exact mu(W'_{2N}) and
    mu(W(1, h_N)), h_N = 2^-2N, and index = h_N^-2 mu(W(1, h_N)).

    The exponential preimage of W(1, h) is {0 < x <= -log(1-h)} times the
    bands |y - 2k pi| < pi h, and that of W'_{2N} its part x > eps_{2N+1}
    (which pipes at depth N touch only along its boundary), so both are
    ``F.pullback_mass`` at s = 2, one call per block of depths, whose work
    arrays span the 4 n_max rows and hold at most 2^13 elements (64 KB; from
    2^14 on, every call page-faulted them back in).  The index is scaled
    by the exact power of two 2^{4N}, where 4.0 ** (2 N) would overflow
    past N = 255.  A measure that is not a finite normal float (subnormal
    from N = 258 on) raises ``NumericIntegrityError`` at the first such N."""
    def normal(v):
        return v.min() >= sys.float_info.min and v.max() < math.inf
    n = np.arange(1, F.n_max + 1)
    xlo = np.stack((F.eps4[2 * n + 1], np.zeros(n.size)), axis=1)[..., None]
    xhi, h = F.eps4[2 * n, None, None], np.ldexp(1.0, -2 * n)[:, None, None]
    m = np.empty((n.size, 2))                       # W'_{2N}, W(1, h_N)
    step = max(1, 2 ** 13 // (8 * F.n_max))      # 3 depths at n_max 257
    for i in range(0, n.size, step):
        b = slice(i, i + step)
        m[b] = F.pullback_mass(2.0, xlo[b], xhi[b], h[b])
        if not normal(m[b]):
            k = next(k for k in range(i, n.size) if not normal(m[k]))
            raise NumericIntegrityError(
                f"window measures at N={k + 1} are {float(m[k, 0])!r} and"
                f" {float(m[k, 1])!r}, not normal floats")
    return list(zip(n.tolist(), *m.T.tolist(),
                    np.ldexp(m[:, 1], 4 * n).tolist()))
