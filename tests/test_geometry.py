import math

import numpy as np
import pytest

from dirichletlab.errors import ConstructionError, ValidationError
from dirichletlab.geometry import (
    PowerProfile,
    count_preimages,
    cusp_area,
    cusp_contains,
    disk_family,
    eksy_build,
    eksy_contains,
    eps_exp,
    profile_make,
)
from dirichletlab.seqs import dyadic

DELTA = 1.0 / 200.0


def test_profile_anchors():
    prof = profile_make(dyadic(3), DELTA)
    anchors = prof.anchors
    assert len(anchors) == 3
    for j, (h, th) in enumerate(anchors, start=1):
        assert math.isclose(h, DELTA**j, rel_tol=1e-15)
        assert math.isclose(th, 2.0 ** (-7 - j) * DELTA**j, rel_tol=1e-15)
    # interpolation hits the anchors exactly
    for h, th in anchors:
        assert prof.eval(h) == th


def test_profile_is_sublinear():
    prof = profile_make(dyadic(8), DELTA)
    hs = np.linspace(1e-6, 1.0 - 1e-6, 500)
    vals = prof.eval(hs)
    # theta(h) = eps_1 h exactly on the outermost piece, so allow an ulp
    assert np.all(vals <= 2.0**-8 * hs * (1.0 + 1e-12))
    assert np.all(np.diff(vals) >= 0.0)
    assert prof.sup_half_width() == 2.0**-8


def test_profile_make_validates_delta():
    with pytest.raises(ValidationError):
        profile_make(dyadic(2), 0.01)
    with pytest.raises(ValidationError):
        profile_make(dyadic(2), 0.0)


def test_cusp_area_trapezoid_oracle():
    # One anchor: knots 0 < delta < 1, thetas 0, e1*delta, e1.  The exact
    # trapezoid sum is written out by hand here.
    e1 = 2.0**-8
    prof = profile_make(dyadic(1), DELTA)
    expected = (2.0 / math.pi) * (
        DELTA * (e1 * DELTA) / 2.0 + (1.0 - DELTA) * (e1 * DELTA + e1) / 2.0
    )
    assert math.isclose(cusp_area(prof), expected, rel_tol=1e-15)


def test_cusp_containment():
    prof = profile_make(dyadic(4), DELTA)
    assert cusp_contains(prof, complex(0.5, 0.0))
    # theta(1/2) = e1 / 2 = 2^-9 exactly; just below is in, the boundary is not
    assert cusp_contains(prof, complex(0.5, 0.999 * 2.0**-9))
    assert not cusp_contains(prof, complex(0.5, 2.0**-9))
    assert not cusp_contains(prof, complex(0.5, 2.0**-8))
    assert not cusp_contains(prof, complex(-0.1, 0.0))
    assert not cusp_contains(prof, complex(1.5, 0.0))


def test_disk_family_closed_forms():
    fam = disk_family(dyadic(8), DELTA, 8)
    for j in range(1, 9):
        assert math.isclose(fam.centers[j - 1], 1.0 - 2.0 * DELTA**j, rel_tol=1e-15)
        assert math.isclose(fam.radii[j - 1], 2.0 ** (-7 - j) * DELTA**j,
                            rel_tol=1e-14)
        # exact identities against the stored powers
        assert fam.centers[j - 1] == 1.0 - 2.0 * fam.delta_pows[j - 1]
        assert fam.radii[j - 1] == 2.0 ** (-7 - j) * fam.delta_pows[j - 1]
    # gap between consecutive centers, exact form: 2 (1 - delta) delta^j
    assert math.isclose(fam.centers[1] - fam.centers[0], 9.95e-3, rel_tol=1e-12)
    assert fam.radii[0] + fam.radii[1] < 9.95e-3


def test_disk_family_s_oracle():
    fam = disk_family(dyadic(8), DELTA, 8)
    # s_12 = 2 delta + (1 - 2 delta) 2 delta^2 = 0.0100495, by hand
    assert math.isclose(fam.s(1, 2), 0.0100495, rel_tol=1e-15)
    assert math.isclose(fam.s(1, 1), 2.0 * DELTA + (1.0 - 2.0 * DELTA) * 2.0 * DELTA,
                        rel_tol=1e-15)
    # agreement with the naive form; 1 - c_i c_j itself loses ~1 ulp of 1,
    # which is ~2e-10 relative to s_33, so the tolerance is loose here
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            naive = 1.0 - fam.centers[i - 1] * fam.centers[j - 1]
            assert math.isclose(fam.s(i, j), naive, rel_tol=1e-9)


def test_disk_family_eps_prime_bracket():
    fam = disk_family(dyadic(8), DELTA, 8)
    ep = fam.eps_prime
    ev = np.array(list(fam.eps))
    # delta^8 is below one ulp of 1, so eps'_8 == eps_8 / 4 in floats
    assert np.all(ep >= ev / 4.0)
    assert np.all(ep < ev / 2.0)
    assert math.isclose(ep[0], 2.0**-8 / (4.0 * (1.0 - DELTA)), rel_tol=1e-15)


def test_eps_prime_uses_first_n_terms():
    # a family shorter than its eps sequence pairs eps_i with delta^i only
    fam = disk_family(dyadic(8), DELTA, 2)
    assert fam.eps_prime.shape == (2,)
    assert fam.eps_prime[1] == 2.0**-9 / (4.0 * (1.0 - fam.delta_pows[1]))


def test_disks_inside_cusp_sampled():
    fam = disk_family(dyadic(6), DELTA, 6)
    prof = profile_make(dyadic(6), DELTA)
    rng = np.random.default_rng(11)
    for j in range(6):
        c, r = fam.centers[j], fam.radii[j]
        for _ in range(50):
            rho = r * math.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2.0 * math.pi)
            z = complex(c + rho * math.cos(ang), rho * math.sin(ang))
            assert cusp_contains(prof, z)


def test_disk_family_validates_n():
    with pytest.raises(ValidationError):
        disk_family(dyadic(4), DELTA, 5)
    with pytest.raises(ValidationError):
        disk_family(dyadic(4), DELTA, 0)


def test_power_profile_lens():
    lens = PowerProfile(alpha=0.0)
    assert lens.eval(0.25) == 0.25
    assert lens.sup_half_width() == 1.0
    assert list(lens.knots) == [0.0, 1.0]
    assert list(lens.thetas) == [0.0, 1.0]
    for alpha in (-0.5, 0.5):
        with pytest.raises(ValidationError):
            PowerProfile(alpha=alpha)


def test_eps_exp_values():
    vals = eps_exp([0, 1, 2])
    assert vals[0] == math.inf
    assert math.isclose(vals[1], math.log(2.0), rel_tol=1e-15)
    assert math.isclose(vals[2], -math.log(0.75), rel_tol=1e-15)
    # log1p keeps digits where naive log(1 - 2^-m) would not
    assert math.isclose(float(eps_exp(50)), 2.0**-50, rel_tol=1e-14)


def test_eksy_build_structure():
    F = eksy_build(lambda n: n.bit_length(), 6)
    assert F.l == (1, 2, 3, 4, 5, 6)
    base = [r for r in F.rectangles if r.tag == "base"]
    towers = [r for r in F.rectangles if r.tag == "tower"]
    pipes = [r for r in F.rectangles if r.tag == "pipe"]
    assert len(base) == 12           # m = 2 .. 13
    assert len(towers) == 15         # sum (l_n - 1)
    assert len(pipes) == 15
    assert sorted(r.index for r in base) == list(range(2, 14))
    for r in towers:
        assert r.index % 2 == 0 and 1 <= r.k < F.l[r.index // 2 - 1]
    for r in pipes:
        assert math.isclose(r.x2 - r.x1, 16.0 ** -r.index, rel_tol=1e-9)


def test_eksy_dy_over_pi_structural():
    F = eksy_build(lambda n: n.bit_length(), 30)
    for r in F.rectangles:
        if r.tag == "pipe":
            assert r.dy_over_pi == 2.0 - 2.0 * 4.0 ** -r.index
        else:
            assert r.dy_over_pi == 2.0 * 2.0 ** -r.index
    # deep towers: absolute y coordinates are useless, the structural
    # extent is still exact
    deep = [r for r in F.rectangles if r.tag == "tower" and r.index == 60]
    assert deep and all(r.dy_over_pi == 2.0 * 2.0**-60 for r in deep)


def test_eksy_area_oracle():
    F = eksy_build(lambda n: 1, 3)          # l = (1, 1, 1): no towers, no pipes
    exp_area = 0.0
    for m in range(2, 8):
        em = -math.log1p(-(2.0**-m))
        em1 = -math.log1p(-(2.0 ** -(m + 1)))
        exp_area += (em - em1) * 2.0 * math.pi * 2.0**-m
    assert math.isclose(F.area(), exp_area, rel_tol=1e-13)
    assert len(F.rectangles) == 6


def test_eksy_validates_targets():
    with pytest.raises(ValidationError):
        eksy_build([3, 2, 1], 3)            # decreasing
    with pytest.raises(ValidationError):
        eksy_build(lambda n: 0, 3)
    with pytest.raises(ValidationError):
        eksy_build([1, 1], 3)               # too short for levels 1..3
    with pytest.raises(ValidationError):
        eksy_build(lambda n: 1.5, 3)
    with pytest.raises(ValidationError):
        eksy_build(lambda n: 1, 0)


def test_eksy_contains_points():
    F = eksy_build(lambda n: n.bit_length(), 4)
    e2 = float(F.eps4[2])
    e3 = float(F.eps4[3])
    mid = 0.5 * (e2 + e3)
    assert eksy_contains(F, complex(mid, 0.0))
    assert eksy_contains(F, complex(mid, math.pi * 2.0**-2))  # closed edge
    assert not eksy_contains(F, complex(mid, 1.0))
    assert not eksy_contains(F, complex(100.0, 0.0))
    assert not eksy_contains(F, complex(-1.0, 0.0))


def test_count_preimages_matches_tower_count():
    F = eksy_build(lambda n: n.bit_length(), 12)
    for N in (1, 2, 3, 8, 12):
        x0 = 0.5 * float(F.eps4[2 * N + 1] + F.eps4[2 * N])
        w = math.exp(-x0)
        assert count_preimages(F, complex(w, 0.0)) == F.l[N - 1]
    # negative real axis lands mid-pipe: one hit per pipe at that depth
    for N in (2, 3):
        x0 = 0.5 * float(F.eps4[2 * N + 1] + F.eps4[2 * N])
        w = -math.exp(-x0)
        assert count_preimages(F, complex(w, 0.0)) == F.l[N - 1] - 1


def test_count_preimages_validates_modulus():
    F = eksy_build(lambda n: 1, 2)
    with pytest.raises(ValidationError):
        count_preimages(F, 0.0 + 0.0j)
    with pytest.raises(ValidationError):
        count_preimages(F, 2.0 + 0.0j)
