import bisect
import math
import random

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from dirichletlab.carleson import (
    cone_constant,
    cusp_window_report,
    eksy_window_measure,
    eksy_window_table,
    half_window_area,
    window_area_cusp,
)
from dirichletlab.errors import ValidationError
from dirichletlab.geometry import eksy_build, profile_make
from dirichletlab.seqs import (DecaySequence, clamp_monotone, dyadic,
                              slow_decay)

from reference_routes import PowerProfile, cusp_area
from test_acceptance import _band_measure_by_quadrature

DELTA = 1.0 / 200.0


def test_lens_window_index_is_one_quarter():
    # for theta(t) = t the window mass splits at t = h/sqrt(2) into a
    # triangle and a circular sector whose areas sum to h^2 pi/4, so the
    # normalized mass is h^2/4 at every scale
    lens = PowerProfile()
    for h in (0.5, 0.1, 1e-3, 1e-6):
        val = window_area_cusp(lens, h)
        assert math.isclose(val, h * h / 4.0, rel_tol=1e-12)


def _window_by_quadrature(profile, h):
    """(2/pi) int_0^min(h,1) min(theta, sqrt(h^2 - t^2)) dt by mpmath at
    40 digits, split at the knots and at the crossing, which is found by
    bisection on the piece where theta^2 + t^2 - h^2 changes sign."""
    with mpmath.workdps(40):
        knots = [mpmath.mpf(float(k)) for k in profile.knots]
        thetas = [mpmath.mpf(float(t)) for t in profile.thetas]
        h = mpmath.mpf(h)
        t_hi = min(h, knots[-1])

        def theta(t):
            i = max(j for j in range(len(knots) - 1) if knots[j] <= t)
            s = (thetas[i + 1] - thetas[i]) / (knots[i + 1] - knots[i])
            return thetas[i] + s * (t - knots[i])

        cuts = [k for k in knots if k < t_hi] + [t_hi]
        for a, b in zip(cuts[:-1], cuts[1:]):
            if theta(a) ** 2 + a * a <= h * h < theta(b) ** 2 + b * b:
                lo, hi = a, b
                for _ in range(200):
                    mid = (lo + hi) / 2
                    if theta(mid) ** 2 + mid * mid > h * h:
                        hi = mid
                    else:
                        lo = mid
                cuts = sorted(cuts + [lo])
                break
        # in x = (h - t) / h: the nodes resolve the circle's edge at t = h,
        # and the integrand is O(1) against mpmath's absolute tolerance
        total = sum(mpmath.quad(
            lambda x: min(theta(h - h * x) / h, mpmath.sqrt(x * (2 - x))),
            [(h - b) / h, (h - a) / h])
            for a, b in zip(cuts[:-1], cuts[1:]) if a < b)
        return float(2 * h * h * total / mpmath.pi)


def _random_profile(rng):
    n = int(rng.integers(1, 7))
    eps = [2.0 ** -8 * rng.uniform(0.5, 1.0)]
    for _ in range(n - 1):
        eps.append(eps[-1] * rng.uniform(0.5, 1.0))
    return profile_make(DecaySequence(tuple(eps)),
                        1.0 / rng.uniform(200.0, 1000.0))


def test_window_closed_form_matches_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(6):
        prof = _random_profile(rng)
        knots = prof.knots[1:-1]
        for h in (rng.uniform(1.0, 2.0), 1.0, float(rng.choice(knots)),
                  float(knots[0] * rng.uniform(0.1, 0.9)), 2.0):
            assert math.isclose(window_area_cusp(prof, h),
                                _window_by_quadrature(prof, h),
                                rel_tol=1e-12), (prof, h)
    lens = PowerProfile(scale=0.5)
    for h in (1e-3, 0.4, 1.0, 1.1, 2.0):
        assert math.isclose(window_area_cusp(lens, h),
                            _window_by_quadrature(lens, h), rel_tol=1e-12)


def test_window_covers_whole_cusp_at_h_two():
    prof = profile_make(dyadic(4), DELTA)
    assert math.isclose(window_area_cusp(prof, 2.0), cusp_area(prof),
                        rel_tol=1e-12)


def test_window_area_validates_h():
    prof = profile_make(dyadic(2), DELTA)
    with pytest.raises(ValidationError):
        window_area_cusp(prof, 0.0)
    with pytest.raises(ValidationError):
        window_area_cusp(prof, 2.5)


def _seeded_profile(seed):
    """A profile drawn the way benchmarks/inputs.py draws a seeded cusp
    instance (delta in [0.002, 1/200], 8 strictly decreasing raw eps terms
    below the 2^-8 cap), clamped and slowed as an ``--eps file:`` input."""
    rng = random.Random(seed)
    delta = rng.uniform(0.002, 1.0 / 200.0)
    raw, v = [], 2.0 ** -8 * rng.uniform(0.5, 0.99)
    for _ in range(8):
        raw.append(v)
        v *= rng.uniform(0.3, 0.95)
    return profile_make(slow_decay(clamp_monotone(raw)), delta)


def _window_by_slices(profile, h, phi):
    """A(S(xi, h) & Omega) at xi = e^{i phi}, by scipy quad.

    In t = 1 - x = h u, y = h v the window is the unit disk about
    (cs, sig) = ((1 - cos phi) / h, sin phi / h), and the mass is
    (h^2 / pi) int len(u) du, len(u) the length of {|v| < theta(h u) / h}
    inside it.  The breakpoints are the knots, the circle's edges
    u = cs -+ 1 and the crossings of the circle with the edges
    v = +-theta(h u) / h; breakpoints closer than 1e-13 are merged, since
    len is continuous and the rounding of such slivers would dominate.
    """
    cs = 2.0 * math.sin(phi / 2.0) ** 2 / h
    sig = math.sin(phi) / h
    lo, hi = max(0.0, cs - 1.0), min(1.0 / h, cs + 1.0)
    ku, kth = list(profile.knots / h), list(profile.thetas / h)
    lines = []                  # theta(h u) / h = alpha + beta u on piece k
    cuts = [lo, hi] + [k for k in ku if lo < k < hi]
    for k in range(len(ku) - 1):
        beta = (kth[k + 1] - kth[k]) / (ku[k + 1] - ku[k])
        alpha = kth[k] - beta * ku[k]
        lines.append((alpha, beta))
        for sign in (1.0, -1.0):
            # sign (alpha + beta u) = sig +- sqrt(1 - (u - cs)^2)
            p, q = sign * alpha - sig, sign * beta
            a, b, c = q * q + 1.0, 2.0 * (p * q - cs), p * p + cs * cs - 1.0
            disc = b * b - 4.0 * a * c
            if disc > 0.0:
                cuts += [u for u in ((-b - math.sqrt(disc)) / (2.0 * a),
                                     (-b + math.sqrt(disc)) / (2.0 * a))
                         if max(lo, ku[k]) < u < min(hi, ku[k + 1])]

    def length(u):
        alpha, beta = lines[min(bisect.bisect_right(ku, u), len(lines)) - 1]
        th = alpha + beta * u
        r = math.sqrt(max(0.0, 1.0 - (u - cs) ** 2))
        return max(0.0, min(th, sig + r) - max(-th, sig - r))

    pts = [lo]
    for c in sorted(cuts):
        if c - pts[-1] > 1e-13:
            pts.append(c)
    pts[-1] = hi
    tol = 1e-15 * float(profile.eval(h)) / h
    total = sum(quad(length, a, b, epsabs=tol, epsrel=1e-13, limit=200)[0]
                for a, b in zip(pts[:-1], pts[1:]))
    return h * h * total / math.pi


@pytest.mark.parametrize("profile", [profile_make(dyadic(8), DELTA),
                                     _seeded_profile(7), _seeded_profile(29)],
                         ids=["dyadic8", "seed7", "seed29"])
def test_window_supremum_enclosure(profile):
    # A(S(1, h) & Omega) <= A(S(xi, h) & Omega) <= A(S(1, C h) & Omega)
    # fails as an equality at xi = 1 or as an enclosure off it
    C = cone_constant(profile)
    s = profile.eps.values[0]
    with mpmath.workdps(40):
        exact = mpmath.sqrt(1 + mpmath.mpf(s) ** 2) / (1 - mpmath.mpf(s))
        assert exact <= C <= exact * (1 + mpmath.mpf(2) ** -49)
    psis = [*np.linspace(-2.0, 2.0, 41), -1e-3, 1e-3]   # 42 xi != 1, xi = 1
    for j in range(1, 9):
        h = profile.delta ** j
        lower = window_area_cusp(profile, h)
        upper = window_area_cusp(profile, C * h)
        assert math.isclose(_window_by_slices(profile, h, 0.0), lower,
                            rel_tol=1e-10), j
        for psi in psis:
            assert _window_by_slices(profile, h, psi * h) <= \
                upper * (1.0 + 1e-12), (j, psi)


def test_cusp_window_report_decays_under_envelope():
    prof = profile_make(dyadic(6), DELTA)
    rep = cusp_window_report(prof)
    C = cone_constant(prof)
    assert rep.cone_constant == C
    assert np.allclose(rep.hs, [DELTA ** j for j in range(1, 7)], rtol=1e-15)
    assert np.allclose(rep.bound,
                       [2.0 ** (-7 - j) / DELTA for j in range(1, 7)],
                       rtol=1e-15)
    for h, lower, upper in zip(rep.hs, rep.lower, rep.upper):
        assert lower == window_area_cusp(prof, h)
        assert upper == window_area_cusp(prof, C * h)
    assert np.array_equal(rep.index, rep.lower / rep.hs ** 2)
    assert np.all(rep.lower < rep.upper)
    # the upper end of the enclosure stays under the envelope, and the
    # xi = 1 index decreases strictly
    assert np.all(rep.upper / rep.hs ** 2 < rep.bound)
    assert np.all(np.diff(rep.index) < 0.0)


def test_half_window_area_closed_form():
    for n in (1, 2, 5, 40, 90):
        a = 2.0 ** -n
        assert half_window_area(n) == a * (a - 0.75 * a * a)
    # against the defining difference of squares where it is computable
    for n in (1, 2, 5, 10):
        a = 2.0 ** -n
        direct = a * ((1.0 - a / 2.0) ** 2 - (1.0 - a) ** 2)
        assert math.isclose(half_window_area(n), direct, rel_tol=1e-12)


def test_eksy_half_window_oracle_13_over_256():
    F = eksy_build(lambda n: n.bit_length(), 6)
    mu_half, mu_window = eksy_window_measure(F, 1)
    assert math.isclose(mu_half, 13.0 / 256.0, rel_tol=1e-14)
    assert mu_window > mu_half


def test_eksy_measures_match_independent_quadrature():
    F = eksy_build(lambda n: n.bit_length(), 6)
    for N in range(1, F.n_max + 1):
        h = 4.0 ** -N
        mu_half, mu_window = eksy_window_measure(F, N)
        brute_half = _band_measure_by_quadrature(
            F, float(F.eps4[2 * N + 1]), float(F.eps4[2 * N]), h)
        brute_window = _band_measure_by_quadrature(
            F, 0.0, float(F.eps4[2 * N]), h)
        assert math.isclose(mu_half, brute_half, rel_tol=1e-10)
        assert math.isclose(mu_window, brute_window, rel_tol=1e-10)


def test_eksy_half_window_equals_tower_count_times_area():
    F = eksy_build(lambda n: n.bit_length(), 10)
    for N in range(1, 11):
        mu_half, _ = eksy_window_measure(F, N)
        assert math.isclose(mu_half, F.l[N - 1] * half_window_area(2 * N),
                            rel_tol=1e-13)


def test_eksy_window_table_shape_and_floor():
    F = eksy_build(lambda n: n.bit_length(), 8)
    rows = eksy_window_table(F)
    assert [r[0] for r in rows] == list(range(1, 9))
    for N, mu_half, mu_window, index in rows:
        assert mu_window >= mu_half > 0.0
        assert math.isclose(index, mu_window * 4.0 ** (2 * N), rel_tol=1e-15)
        # mu(W(1,h)) >= mu(W'_{2N}) alone gives index >= l_N (1 - 3a/4)
        a = 4.0 ** -N
        assert index >= F.l[N - 1] * (1.0 - 0.75 * a) * (1.0 - 1e-12)


def test_eksy_window_measure_validates_N():
    F = eksy_build(lambda n: 1, 3)
    with pytest.raises(ValidationError):
        eksy_window_measure(F, 0)
    with pytest.raises(ValidationError):
        eksy_window_measure(F, 4)
