"""Carleson window measures and embedding diagnostics.

Two window types, never conflated: the disk window S(xi, h) = D(xi, h)
intersected with the unit disk, used for the cusp symbol, and the
arc-annulus window W(1, h) = {1 - h <= |z| < 1, |arg z| < pi h} with its
half-depth variant W'_n, used for the exponential image of the
rectilinear domain.  All measures are w.r.t. dA = dx dy / pi.  Both are
closed forms: the cusp window at xi = 1 over the profile's breakpoint
table, the staircase windows over the band spans of the rectangles.
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


def _window_at_one(profile, h: float) -> float:
    """(1/pi) int_0^t_hi 2 min(theta(t), r(t)) dt, r = sqrt(h^2 - t^2),
    t_hi = min(h, 1): trapezoids up to the one crossing c of the increasing
    theta^2 + t^2 with h^2 (else c = 1, and no segment), then the segment
    (1/pi)[h^2 (atan2(r_c, c) - atan2(r_t, t_hi)) + t_hi r_t - c r_c] with
    r_c = theta(c).  On the piece [k0, k1] of slope s holding c, t = k0 + u
    solves (1 + s^2) u^2 + 2 B u + C = 0 with B = t0 s + k0 >= 0 and
    C = t0^2 + k0^2 - h^2 <= 0; its larger root is written without
    cancellation.  A mass that is not a finite normal float raises
    ``NumericIntegrityError``."""
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


def window_area_cusp(profile, h: float, xi: complex = 1.0,
                     resolution: int = 800) -> float:
    """Normalized area of S(xi, h) intersected with the cusp domain.

    At xi = 1 the intersection reduces to one dimension,
    (1/pi) int_0^h 2 min(theta(t), sqrt(h^2 - t^2)) dt, evaluated in
    closed form over the profile's breakpoint table (``_window_at_one``).
    Off xi = 1 a midpoint indicator grid of the given resolution is used.
    h up to 2 is accepted so a window can cover the whole domain.
    """
    if not (0.0 < h <= 2.0):
        raise ValidationError(f"h {h} outside (0, 2]")
    xi = complex(xi)
    if abs(xi - 1.0) < 1e-15:
        return _window_at_one(profile, h)
    if resolution < 8:
        raise ValidationError("resolution must be at least 8")
    ymax = profile.sup_half_width()
    xlo, xhi = max(0.0, xi.real - h), min(1.0, xi.real + h)
    ylo, yhi = max(-ymax, xi.imag - h), min(ymax, xi.imag + h)
    if not (xlo < xhi and ylo < yhi):
        return 0.0
    xs = xlo + (xhi - xlo) * (np.arange(resolution) + 0.5) / resolution
    ys = ylo + (yhi - ylo) * (np.arange(resolution) + 0.5) / resolution
    th = np.asarray(profile.eval(1.0 - xs))
    in_win = ((xs[:, None] - xi.real) ** 2 + (ys[None, :] - xi.imag) ** 2
              < h * h)
    in_dom = np.abs(ys[None, :]) < th[:, None]
    frac = np.count_nonzero(in_win & in_dom) / (resolution * resolution)
    return frac * (xhi - xlo) * (yhi - ylo) / math.pi


def rho(profile, h: float, xis, resolution: int = 800) -> float:
    """Grid estimate of rho(h) = sup over boundary points of the window mass."""
    xis = [complex(x) for x in xis]
    if not xis:
        raise ValidationError("xi grid must be non-empty")
    if not any(abs(x - 1.0) < 1e-12 for x in xis):
        raise ValidationError("xi grid must include 1 (the mass clusters there)")
    return max(window_area_cusp(profile, h, xi, resolution) for xi in xis)


@dataclass(frozen=True)
class WindowMeasureReport:
    """rho-hat over a strictly decreasing h grid, with the scaled index
    rho/h^2 and, for anchor grids h_j = delta^j, the decay bound eps_j/delta."""

    hs: np.ndarray
    rho: np.ndarray
    index: np.ndarray
    bound: np.ndarray | None
    xis: tuple[complex, ...]
    resolution: int

    def __post_init__(self):
        if np.any(np.diff(self.hs) >= 0.0):
            raise ValidationError("h grid must be strictly decreasing")
        if np.any(self.rho < 0.0):
            raise ValidationError("window measures must be non-negative")


def window_report(profile, hs, xis=(1.0,), resolution: int = 800,
                  bound=None) -> WindowMeasureReport:
    hs = np.asarray(hs, dtype=float)
    rhos = np.array([rho(profile, float(h), xis, resolution) for h in hs])
    return WindowMeasureReport(
        hs=hs, rho=rhos, index=rhos / hs ** 2,
        bound=None if bound is None else np.asarray(bound, dtype=float),
        xis=tuple(complex(x) for x in xis), resolution=resolution)


def cusp_window_report(profile: CuspProfile, js, xis=(1.0,),
                       resolution: int = 800) -> WindowMeasureReport:
    """Report on the anchor grid h_j = delta^j with bounds eps_j / delta."""
    js = list(js)
    if any(not (1 <= j <= profile.n) for j in js):
        raise ValidationError("anchor indices must lie in 1..n")
    hs = [profile.delta ** j for j in js]
    bound = [profile.eps.values[j - 1] / profile.delta for j in js]
    return window_report(profile, hs, xis, resolution, bound=bound)


@dataclass(frozen=True)
class BoundednessSummary:
    max_index: float
    indices: np.ndarray
    strictly_decreasing: bool
    below_bound: bool | None    # None when the report carries no bounds
    bound_margins: np.ndarray | None


def boundedness_index(report: WindowMeasureReport) -> BoundednessSummary:
    """Summary of the embedding index h^-2 rho(h) over the report grid.

    Bounded index across scales witnesses boundedness; decay to zero (here:
    strict decrease under the eps_j/delta envelope) witnesses compactness.
    """
    idx = report.index
    margins = None if report.bound is None else report.bound - idx
    return BoundednessSummary(
        max_index=float(idx.max()),
        indices=idx,
        strictly_decreasing=bool(np.all(np.diff(idx) < 0.0)),
        below_bound=None if margins is None else bool(np.all(margins > 0.0)),
        bound_margins=margins)


# ---------------------------------------------------------------------------
# rectilinear windows W(1, h) and W'_n


def _band_measure(F: RectilinearDomain, xlo: float, xhi: float,
                  h: float) -> float:
    """mu of {xlo < x < xhi, |y - 2k pi| < pi h for some k} under the
    pullback of n_phi dA.

    The y-overlap with the bands comes from the structural band spans
    (lo, hi), never from the stored absolute coordinates (whose ulp
    exceeds the deep half-widths): a rectangle meets its band along
    2 pi reach with reach = max(0, min(h, hi) - lo), and its x-clipped
    part [a, b] carries (e^{-2a} - e^{-2b}) / 2 per unit of y / pi.
    """
    if not (0.0 < h <= 0.25):
        raise ValidationError(f"band half-height {h} outside (0, 1/4]")
    a, b = np.maximum(F._x1, xlo), np.minimum(F._x2, xhi)
    keep = a < b
    reach = np.maximum(0.0, np.minimum(h, F._hi[keep]) - F._lo[keep])
    return float(reach @ exp_drop(2.0, a[keep], b[keep]))


def half_window_area(n: int) -> float:
    """A(W'_n) = 2^-n ((1 - 2^-(n+1))^2 - (1 - 2^-n)^2) = 2^-n (a - 3a^2/4)
    with a = 2^-n, written in the cancellation-free polynomial form."""
    a = 2.0 ** -n
    return a * (a - 0.75 * a * a)


def eksy_window_measure(F: RectilinearDomain, N: int) -> tuple[float, float]:
    """Exact mu(W'_{2N}) and mu(W(1, h_N)), h_N = 2^-2N.

    The exponential preimage of W(1, h) is {0 < x <= -log(1-h)} times the
    union of bands |y - 2k pi| < pi h, so both measures reduce to closed
    forms over the rectangles of F.  Pipes at depth N touch the half
    window only along its boundary and contribute zero to mu(W'_{2N}).
    """
    if not (1 <= N <= F.n_max):
        raise ValidationError(f"N {N} outside 1..{F.n_max}")
    h = 2.0 ** (-2 * N)
    mu_half = _band_measure(F, float(F.eps4[2 * N + 1]), float(F.eps4[2 * N]), h)
    mu_window = _band_measure(F, 0.0, float(F.eps4[2 * N]), h)
    return mu_half, mu_window


def eksy_window_table(F: RectilinearDomain):
    """Rows (N, mu_half, mu_window, index) with index = h_N^-2 mu(W(1,h_N))."""
    rows = []
    for N in range(1, F.n_max + 1):
        mu_half, mu_window = eksy_window_measure(F, N)
        rows.append((N, mu_half, mu_window, mu_window * 4.0 ** (2 * N)))
    return rows
