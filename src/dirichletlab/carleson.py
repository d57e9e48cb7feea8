"""Carleson window measures and embedding diagnostics.

Two window types, never conflated: the disk window S(xi, h) = D(xi, h)
intersected with the unit disk, used for the cusp symbol, and the
arc-annulus window W(1, h) = {1 - h <= |z| < 1, |arg z| < pi h} with its
half-depth variant W'_n, used for the exponential image of the
rectilinear domain.  All measures are w.r.t. dA = dx dy / pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import CuspProfile, RectilinearDomain
from .quad import MOMENT_RTOL, _gl, doubling


# ---------------------------------------------------------------------------
# cusp windows S(xi, h)


def _crossing(profile, h: float, t_hi: float) -> float:
    """Unique root of theta(t)^2 + t^2 = h^2 on (0, t_hi), else t_hi."""

    def g(t):
        th = float(profile.eval(t))
        return th * th + t * t - h * h

    if g(t_hi) <= 0.0:
        return t_hi
    lo, hi = 0.0, t_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _profile_part(profile, a: float, b: float, m: int) -> float:
    """(1/pi) int_a^b 2 theta(t) dt, split at the profile knots."""
    if not a < b:
        return 0.0
    cuts = [a]
    knots = getattr(profile, "knots", None)
    if knots is not None:
        cuts += [float(t) for t in knots if a < t < b]
    cuts.append(b)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        t, wt = _gl(lo, hi, m)
        total += float(wt @ np.asarray(profile.eval(t)))
    return 2.0 * total / math.pi


def _circle_part(h: float, a: float, b: float, m: int) -> float:
    """(1/pi) int_a^b 2 sqrt(h^2 - t^2) dt via t = h sin(u)."""
    if not a < b:
        return 0.0
    u, wu = _gl(math.asin(min(a / h, 1.0)), math.asin(min(b / h, 1.0)), m)
    return float(2.0 * h * h / math.pi * (wu @ np.cos(u) ** 2))


def window_area_cusp(profile, h: float, xi: complex = 1.0,
                     resolution: int = 800) -> float:
    """Normalized area of S(xi, h) intersected with the cusp domain.

    At xi = 1 the intersection reduces to one dimension:
    (1/pi) int_0^h 2 min(theta(t), sqrt(h^2 - t^2)) dt, evaluated by
    panel-split Gauss rules with an order-doubling check.  Off xi = 1 a
    midpoint indicator grid of the given resolution is used.  h up to 2
    is accepted so a window can cover the whole domain.
    """
    if not (0.0 < h <= 2.0):
        raise ValidationError(f"h {h} outside (0, 2]")
    xi = complex(xi)
    if abs(xi - 1.0) < 1e-15:
        t_hi = min(h, 1.0)
        cross = _crossing(profile, h, t_hi)
        return doubling(lambda m: _profile_part(profile, 0.0, cross, m)
                        + _circle_part(h, cross, t_hi, m),
                        32, MOMENT_RTOL).check
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


def _exp_half_drop(a: float, b: float) -> float:
    """(e^{-2a} - e^{-2b}) / 2, stable when b - a is tiny."""
    return -0.5 * math.exp(-2.0 * a) * math.expm1(-2.0 * (b - a))


def _band_measure(F: RectilinearDomain, xlo: float, xhi: float,
                  h: float) -> float:
    """mu of {xlo < x < xhi, |y - 2k pi| < pi h for some k} under the
    pullback of n_phi dA.

    The y-overlap with the bands is resolved structurally, never from the
    stored absolute coordinates (whose ulp exceeds the deep half-widths):
    a box or tower at level m meets only its own band, with overlap
    2 pi min(2^-m, h); a pipe at depth n ends exactly at the band edges
    for h = 4^-n and contributes the two slivers 2 pi (h - 4^-n) beyond.
    """
    if not (0.0 < h <= 0.25):
        raise ValidationError(f"band half-height {h} outside (0, 1/4]")
    total = 0.0
    for r in F.rectangles:
        a, b = max(r.x1, xlo), min(r.x2, xhi)
        if not a < b:
            continue
        if r.tag == "pipe":
            ylen_pi = 2.0 * max(0.0, h - 4.0 ** -r.index)
        else:
            ylen_pi = 2.0 * min(2.0 ** -r.index, h)
        if ylen_pi > 0.0:
            total += ylen_pi * _exp_half_drop(a, b)
    return total


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
