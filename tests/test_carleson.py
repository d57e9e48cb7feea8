import math

import mpmath
import numpy as np
import pytest

from dirichletlab.carleson import (
    boundedness_index,
    cusp_window_report,
    eksy_window_measure,
    eksy_window_table,
    half_window_area,
    rho,
    window_area_cusp,
    window_report,
)
from dirichletlab.errors import ValidationError
from dirichletlab.geometry import PowerProfile, cusp_area, eksy_build, profile_make
from dirichletlab.seqs import DecaySequence, dyadic

from test_acceptance import _band_measure_by_quadrature

DELTA = 1.0 / 200.0


def test_lens_window_index_is_one_quarter():
    # for theta(t) = t the window mass splits at t = h/sqrt(2) into a
    # triangle and a circular sector whose areas sum to h^2 pi/4, so the
    # normalized mass is h^2/4 at every scale
    lens = PowerProfile(alpha=0.0)
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
    lens = PowerProfile(alpha=0.0, scale=0.5)
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


def test_window_area_off_center_grid():
    prof = profile_make(dyadic(2), DELTA)
    on_axis = window_area_cusp(prof, 1e-2)
    off = window_area_cusp(prof, 1e-2, xi=0.99 + 1e-4j, resolution=200)
    assert off >= 0.0
    assert on_axis > 0.0
    with pytest.raises(ValidationError):
        window_area_cusp(prof, 1e-2, xi=0.99, resolution=4)


def test_rho_requires_the_corner_point():
    prof = profile_make(dyadic(2), DELTA)
    with pytest.raises(ValidationError):
        rho(prof, 1e-2, xis=[0.99])
    with pytest.raises(ValidationError):
        rho(prof, 1e-2, xis=[])
    val = rho(prof, 1e-2, xis=[1.0], resolution=64)
    assert val == window_area_cusp(prof, 1e-2)


def test_cusp_window_report_decays_under_envelope():
    prof = profile_make(dyadic(6), DELTA)
    rep = cusp_window_report(prof, js=range(1, 5))
    assert np.allclose(rep.bound,
                       [2.0 ** (-7 - j) / DELTA for j in range(1, 5)],
                       rtol=1e-15)
    summary = boundedness_index(rep)
    assert summary.strictly_decreasing
    assert summary.below_bound
    assert np.all(summary.bound_margins > 0.0)
    assert summary.max_index == rep.index[0]


def test_cusp_window_report_validates_indices():
    prof = profile_make(dyadic(3), DELTA)
    with pytest.raises(ValidationError):
        cusp_window_report(prof, js=[0, 1])
    with pytest.raises(ValidationError):
        cusp_window_report(prof, js=[4])


def test_window_report_requires_decreasing_grid():
    prof = profile_make(dyadic(2), DELTA)
    with pytest.raises(ValidationError):
        window_report(prof, hs=[1e-3, 1e-2])


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
