"""Carleson window measures and embedding diagnostics.

Two window types, never conflated: the disk window S(xi, h) = D(xi, h)
intersected with the unit disk, used for the cusp symbol, and the
arc-annulus window W(1, h) = {1 - h <= |z| < 1, |arg z| < pi h} with its
half-depth variant W'_n, used for the exponential image of the
rectilinear domain.  All measures are w.r.t. dA = dx dy / pi.  Both are
closed forms: the cusp window at xi = 1 over the profile's breakpoint
table, the staircase windows over the count-weighted band spans of its
level rows.  The supremum of the cusp window over the unit circle is
enclosed between the window at xi = 1 and the one of radius C h there
(``cone_constant``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericIntegrityError, ValidationError
from .geometry import CuspProfile, RectilinearDomain, exp_drop


# ---------------------------------------------------------------------------
# cusp windows S(xi, h)


def window_area_cusp(profile, h: float) -> float:
    """Normalized area of S(1, h) intersected with the cusp domain, in
    closed form over the profile's breakpoint table: (1/pi) int_0^t_hi
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
    knots, thetas = profile.knots, profile.thetas
    trap = (thetas[1:] + thetas[:-1]) * np.diff(knots)   # 2 x piece areas
    i = int(np.searchsorted(knots ** 2 + thetas ** 2, h * h, side="right"))
    with np.errstate(all="ignore"):     # the guard below reports it
        if i == len(knots):             # theta below the circle up to t = 1
            area = float(np.sum(trap)) / math.pi
        else:
            k0, k1, t0, t1 = knots[i - 1], knots[i], thetas[i - 1], thetas[i]
            s = (t1 - t0) / (k1 - k0)
            b, c0 = t0 * s + k0, t0 * t0 + k0 * k0 - h * h
            u = min(-c0 / (b + math.sqrt(b * b - (1.0 + s * s) * c0)),
                    k1 - k0)
            c, r_c = k0 + u, t0 + s * u
            t_hi = min(h, 1.0)
            r_t = math.sqrt(h * h - t_hi * t_hi)
            area = (float(np.sum(trap[:i - 1])) + (t0 + r_c) * u
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
    scales = [profile.delta ** j for j in range(1, profile.n + 1)]
    C = cone_constant(profile)
    lower = np.array([window_area_cusp(profile, h) for h in scales])
    upper = np.array([window_area_cusp(profile, C * h) for h in scales])
    hs = np.array(scales)
    return WindowMeasureReport(
        hs=hs, lower=lower, upper=upper, cone_constant=C,
        bound=np.array(profile.eps.values) / profile.delta,
        index=lower / hs ** 2)


# ---------------------------------------------------------------------------
# rectilinear windows W(1, h) and W'_n


def _band_measure(F: RectilinearDomain, xlo: float, xhi: float,
                  h: float) -> float:
    """mu of {xlo < x < xhi, |y - 2k pi| < pi h for some k} under the
    pullback of n_phi dA.

    The y-overlap with the bands comes from the rows' band spans (lo, hi),
    exact at every depth: each of a row's count copies meets its band along
    2 pi reach, reach = max(0, min(h, hi) - lo), and its x-clipped part
    [a, b] carries (e^{-2a} - e^{-2b}) / 2 per unit of y / pi.
    """
    if not (0.0 < h <= 0.25):
        raise ValidationError(f"band half-height {h} outside (0, 1/4]")
    a, b = np.maximum(F.x1, xlo), np.minimum(F.x2, xhi)
    keep = a < b
    reach = np.maximum(0.0, np.minimum(h, F.hi[keep]) - F.lo[keep])
    return float((F.count[keep] * reach) @ exp_drop(2.0, a[keep], b[keep]))


def half_window_area(n: int) -> float:
    """A(W'_n) = 2^-n ((1 - 2^-(n+1))^2 - (1 - 2^-n)^2) = 2^-n (a - 3a^2/4)
    with a = 2^-n, written in the cancellation-free polynomial form."""
    a = 2.0 ** -n
    return a * (a - 0.75 * a * a)


def eksy_window_measure(F: RectilinearDomain, N: int) -> tuple[float, float]:
    """Exact mu(W'_{2N}) and mu(W(1, h_N)), h_N = 2^-2N.

    The exponential preimage of W(1, h) is {0 < x <= -log(1-h)} times the
    union of bands |y - 2k pi| < pi h, so both measures reduce to closed
    forms over the level rows of F.  Pipes at depth N touch the half
    window only along its boundary and contribute zero to mu(W'_{2N}).
    """
    if not (1 <= N <= F.n_max):
        raise ValidationError(f"N {N} outside 1..{F.n_max}")
    h = 2.0 ** (-2 * N)
    mu_half = _band_measure(F, float(F.eps4[2 * N + 1]), float(F.eps4[2 * N]), h)
    mu_window = _band_measure(F, 0.0, float(F.eps4[2 * N]), h)
    return mu_half, mu_window


def eksy_window_table(F: RectilinearDomain):
    """Rows (N, mu_half, mu_window, index) with index = h_N^-2 mu(W(1,h_N)),
    scaled by the exact power of two 2^{4N}, where 4.0 ** (2 N) would
    overflow past N = 255.  A measure that is not a finite normal float
    (subnormal from N = 258 on) raises ``NumericIntegrityError``."""
    rows = []
    for N in range(1, F.n_max + 1):
        mu_half, mu_window = eksy_window_measure(F, N)
        if not (math.isfinite(mu_half) and math.isfinite(mu_window)
                and min(mu_half, mu_window) >= sys.float_info.min):
            raise NumericIntegrityError(
                f"window measures at N={N} are {mu_half!r} and {mu_window!r},"
                " not normal floats")
        rows.append((N, mu_half, mu_window, math.ldexp(mu_window, 4 * N)))
    return rows
