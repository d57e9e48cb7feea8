"""End-to-end acceptance checks on the canonical instances.

One test per headline claim, at the stated tolerances.  The Gram
assembly (order 32 with an order-64 verification pass) is shared through
the session fixtures in conftest.py.
"""

import math
import warnings

import numpy as np

from dirichletlab import carleson, galerkin, gram, powers, quad, spectra
from dirichletlab.geometry import Rect, eksy_build

from reference_routes import (PowerProfile, growth_term_sum, integrate_rect,
                              power_norm_series, singular_values)

DELTA = 1.0 / 200.0


# -- criterion 1 -------------------------------------------------------------

def test_criterion_01_gram_inequalities_with_positive_margin(gram8):
    assert gram8.order == 32                     # stabilized without escalation
    assert gram8.doubling_residual is not None
    assert gram8.doubling_residual <= 1e-8       # order-doubling agreement
    # the witness agrees with the closed form that cusp-gram certifies; the
    # doubling residual alone cannot see two orders that alias alike
    closed = gram.closed_form_gram(gram8.family).entries
    assert np.allclose(gram8.entries, closed, rtol=1e-12, atol=0.0)
    rep = gram.tec_report(gram8)
    assert np.all(rep.diag_floor_margin > 0.0)   # m_ii above eps_i^2/32
    assert np.all(rep.diag_window_margin > 0.0)  # m_ii within the cubic window
    assert np.all(rep.offdiag_margin > 0.0)      # off-diagonal decay
    assert np.all(rep.nu_margin > 0.0)
    assert np.all(rep.row_sum_margin > 0.0)
    assert np.all(rep.col_sum_margin > 0.0)
    assert rep.all_pass


# -- criterion 2 -------------------------------------------------------------

def test_criterion_02_schur_bound_below_half_and_sound(gram8):
    nu = gram8.nu()
    beta = spectra.schur_bound(nu)
    assert beta <= 0.5
    top = float(singular_values(nu)[0])
    assert top <= beta * (1.0 + 1e-12)


# -- criterion 3 -------------------------------------------------------------

def test_criterion_03_smallest_eigenvalue_floor(gram8):
    cert = gram.bernstein_certificate(gram8)
    assert cert.applicable and cert.passed
    eps8_last = gram8.family.eps.values[7]
    assert cert.lambda_min >= eps8_last**2 / 64.0
    assert math.sqrt(cert.lambda_min) >= eps8_last / 8.0
    d = gram8.diag
    # Neumann route with q = 1/2: bottom bound is exactly min diag / 2
    assert cert.neumann.q == 0.5
    assert cert.neumann.bounds[-1] == d.min() / 2.0
    assert cert.lambda_min >= cert.neumann.bounds[-1]
    # Schur route: lambda_min >= (1 - beta_hat) min diag
    assert cert.lambda_min >= (1.0 - cert.beta_hat) * d.min()


# -- criterion 4 -------------------------------------------------------------

def test_criterion_04_window_index_decays_for_cusp_not_for_lens(profile8):
    rep = carleson.cusp_window_report(profile8)
    assert len(rep.hs) == 8
    # the upper end of the rho(h) enclosure: rho(h)/h^2 < eps_j / delta
    assert np.all(rep.upper / rep.hs ** 2 < rep.bound)
    assert np.all(np.diff(rep.index) < 0.0)    # finite form of o(h^2)
    # contrast profile theta(h) = h on the same scales: the index sits at
    # 1/4 at every scale, witnessing a measure that is NOT o(h^2)
    lens = PowerProfile()
    hs = DELTA ** np.arange(1, 9)
    lens_index = np.array([carleson.window_area_cusp(lens, h)
                           for h in hs]) / hs ** 2
    assert np.all(lens_index > 0.2)
    assert np.allclose(lens_index, 0.25, rtol=1e-10)


# -- criterion 5 -------------------------------------------------------------

def _band_measure_by_quadrature(F, xlo, xhi, h):
    """Absolute-coordinate evaluation: clip every rectangle against every
    band and integrate e^{-2x}/pi by Gauss-Legendre.  Only run on shallow
    domains, where rectangle y-extents stay far above one ulp."""
    rule = quad.gauss_nodes(48)
    kmax = max(r.k for r in F.rectangles) + 2
    total = 0.0
    for r in F.rectangles:
        a, b = max(r.x1, xlo), min(r.x2, xhi)
        if not a < b:
            continue
        ylen = 0.0
        for k in range(kmax):
            c = 2.0 * math.pi * k
            ylen += max(0.0, min(r.y2, c + math.pi * h)
                        - max(r.y1, c - math.pi * h))
        if ylen > 0.0:
            xs = a + 0.5 * (b - a) * (rule.nodes + 1.0)
            wx = 0.5 * (b - a) * rule.weights
            total += ylen / math.pi * float(wx @ np.exp(-2.0 * xs))
    return total


def test_criterion_05_half_window_closed_forms(domain24):
    F6 = eksy_build(powers.log2_targets, 6)
    # l_1 = 1: mu(W'_2) = 13/256, and the independent quadrature agrees
    mu_half, _ = carleson.eksy_window_measure(F6, 1)
    assert math.isclose(mu_half, 13.0 / 256.0, rel_tol=1e-13)
    brute = _band_measure_by_quadrature(
        F6, float(F6.eps4[3]), float(F6.eps4[2]), 0.25)
    assert math.isclose(mu_half, brute, rel_tol=1e-10)
    # general closed form and the tower-count lower bound at every depth
    for N in range(1, domain24.n_max + 1):
        mu_half, _ = carleson.eksy_window_measure(domain24, N)
        l_N = domain24.l[N - 1]
        closed = l_N * 4.0 ** (-2 * N) * (1.0 - 0.75 * 2.0 ** (-2 * N))
        assert math.isclose(mu_half, closed, rel_tol=1e-12)
        floor = l_N * carleson.half_window_area(2 * N)
        assert mu_half >= floor * (1.0 - 1e-12)


# -- criterion 6 -------------------------------------------------------------

def test_criterion_06_window_index_diverges(domain24):
    table = carleson.eksy_window_table(domain24)
    indices = [row[3] for row in table]
    assert max(indices) > 10.0
    assert any(idx > 10.0 for idx in indices[:24])
    # non-decreasing once l_N grows (first growth at N = 2); the final
    # depth is excluded: its window dips below every built rectangle, so
    # truncation bites there, as the per-N lower bound below confirms
    seg = indices[1:domain24.n_max - 1]
    assert np.all(np.diff(seg) >= 0.0)
    for N, (_, _, _, idx) in enumerate(table, start=1):
        assert idx >= domain24.l[N - 1] * (1.0 - 0.75 * 4.0**-N) * (1.0 - 1e-12)


# -- criterion 7 -------------------------------------------------------------

def test_criterion_07_power_norms_grow_like_targets(domain24):
    rep = powers.eksy_growth_report(domain24, powers.log2_targets, 1 << 20)
    double = powers.eksy_growth_report(domain24, powers.log2_targets, 1 << 21)
    assert rep.sup_ratio < 1.0                       # the constant C
    assert abs(double.sup_ratio - rep.sup_ratio) <= 0.05 * rep.sup_ratio
    # closed-form route vs adaptive quadrature, on a shallow instance
    # where the absolute coordinates are numerically meaningful
    F6 = eksy_build(powers.log2_targets, 6)
    for p in (1, 2, 7, 32):
        byquad = 0.0
        for r in F6.rectangles:
            val = integrate_rect(
                lambda z: np.exp(-2.0 * p * z.real), r, 24, tol=1e-12)
            byquad += val.real / math.pi
        byquad *= float(p) * float(p)
        closed = powers.power_norm_region(F6, p)
        assert math.isclose(closed, byquad, rel_tol=1e-10)
    # constant targets l == 1: power norms stay uniformly bounded
    F1 = eksy_build(lambda n: 1, 24)
    rep1 = powers.eksy_growth_report(F1, lambda p: 1, 1 << 20)
    assert float(np.max(rep1.norm)) < 1.0


# -- criterion 8 -------------------------------------------------------------

def test_criterion_08_calibrations(profile8, domain24):
    # ||z^p||_D = sqrt(p): series route is bit-exact, the strip image
    # route agrees to rounding
    strip = [Rect(0.0, 400.0, -math.pi, math.pi, "base", 0, 0)]
    for p in (1, 2, 3, 10, 64, 333):
        assert power_norm_series([0.0, 1.0], p) == math.sqrt(p)
        assert math.isclose(powers.power_norm_region(strip, p), float(p),
                            rel_tol=1e-12)
    # full-disk moment matrix is the identity
    M = galerkin.moment_matrix(None, 128)
    assert float(np.max(np.abs(M.entries - np.eye(128)))) <= 1e-10
    # Gauss rules are exact through degree 2m - 1
    for m in (1, 2, 3, 4, 8, 16, 32):
        rule = quad.gauss_nodes(m)
        for k in range(2 * m):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(float(rule.weights @ rule.nodes**k) - exact) <= 1e-12
    # Jensen lower bound never exceeds the region route
    for p in range(1, 65):
        lo, hi = powers.jensen_lower(profile8, p)
        assert lo <= hi * (1.0 + 1e-12)
    for p in list(range(1, 65)) + [128, 512, 4096]:
        lo, hi = powers.jensen_lower(domain24, p)
        assert lo <= hi * (1.0 + 1e-12)


# -- criterion 9 -------------------------------------------------------------

def test_criterion_09_compressions_increase_toward_floors(profile8, eps8):
    scan = galerkin.compression_scan(profile8, [32, 64, 128])
    slack = 1e-12 * scan.matrix.trace
    for n in range(1, 9):
        vals = [scan.eigenvalue(n, K) for K in (32, 64, 128)]
        assert vals[1] >= vals[0] - slack
        assert vals[2] >= vals[1] - slack
    lam = scan.spectrum_by_K[128]
    trace = scan.matrix.trace
    assert abs(float(lam.sum()) - trace) <= 1e-10 * abs(trace)
    # crossings of the eps_n/8 floors are reported; convergence is from
    # below, so a None entry would be a report, not a failure
    crossings = galerkin.floor_crossings(scan, [e / 8.0 for e in eps8])
    assert [n for n, _ in crossings] == list(range(1, 9))


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_majorant_term_facts():
    xs = np.linspace(1e-9, 1.0, 1000)
    vals = powers.growth_term(xs)
    assert np.all(np.diff(vals) > 0.0)
    wide = np.geomspace(1e-9, 1e4, 4000)
    assert np.all(powers.growth_term(wide)
                  <= np.minimum(wide**2, 1.35 / wide))
    ps = np.geomspace(1.0, 1e6, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")           # no silent accuracy loss
        s40 = np.array([growth_term_sum(p, 40) for p in ps])
        s80 = np.array([growth_term_sum(p, 80) for p in ps])
    assert np.all(np.isfinite(s40))
    assert float(np.max(np.abs(s80 - s40))) <= 1e-14 * float(np.max(s80))
    assert float(np.max(s80)) < 2.0
