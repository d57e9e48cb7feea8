import dataclasses
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dirichletlab import powers
from dirichletlab.errors import ValidationError
from dirichletlab.galerkin import moment_matrix
from dirichletlab.geometry import eksy_build, profile_make
from dirichletlab.powers import (
    eksy_growth_report,
    growth_grid,
    growth_majorant,
    growth_term,
    jensen_lower,
    log2_targets,
    power_norm_region,
    region_moment,
)
from dirichletlab.quad import ORDER_CAP, _gl
from dirichletlab.seqs import clamp_monotone, dyadic, slow_decay

from cusp_oracles import cusp_moment, fan_moment
from reference_routes import (PowerProfile, cusp_area, growth_term_sum, norms,
                              one_row_domain, power_coeffs, power_norm_series)

DELTA = 1.0 / 200.0

STRIP = one_row_domain(0.0, 400.0)      # x in (0, 400), |y| < pi


def _frac_norm_sq(coeffs):
    # exact rational Dirichlet square: |c_0|^2 + sum n |c_n|^2
    return coeffs[0] ** 2 + sum(n * c * c for n, c in enumerate(coeffs))


def test_cube_oracle_45_over_32():
    # ((z + z^2)/2)^3, worked in exact rationals alongside
    c = [Fraction(0), Fraction(1, 2), Fraction(1, 2)]
    cube = [Fraction(0)] * 7
    for i, a in enumerate(c):
        for j, b in enumerate(c):
            for k, d in enumerate(c):
                cube[i + j + k] += a * b * d
    exact = _frac_norm_sq(cube)
    assert exact == Fraction(45, 32)
    val = power_norm_series([0.0, 0.5, 0.5], 3)
    assert math.isclose(val * val, float(exact), rel_tol=1e-14)


def test_identity_power_norm_is_sqrt_p():
    for p in (1, 2, 3, 10, 37, 100):
        # z^p has a single coefficient at degree p, so the squared norm
        # is exactly p and the norm is bit-identical to sqrt(p)
        assert power_norm_series([0.0, 1.0], p) == math.sqrt(p)


def test_power_coeffs_binomial():
    got = power_coeffs([1.0, 1.0], 3)
    assert np.allclose(got.real, [1.0, 3.0, 3.0, 1.0], rtol=0.0, atol=1e-14)
    assert np.all(got.imag == 0.0)


def test_power_coeffs_validations():
    with pytest.raises(ValidationError):
        power_coeffs([1.0, 1.0], 0)
    with pytest.raises(ValidationError):
        power_coeffs([], 2)
    with pytest.raises(ValidationError):
        power_coeffs(np.ones(3), 1 << 20)


def test_norms_ordering_and_constants():
    d, b, h = norms([0.5 + 0.0j])
    assert d == b == h == 0.5
    rng = np.random.default_rng(13)
    for _ in range(25):
        c = rng.standard_normal(int(rng.integers(1, 30)))
        d, b, h = norms(c)
        assert b <= h * (1.0 + 1e-14)
        # Hardy <= Dirichlet can fail for constants only if c_0
        # dominates; with the |c_0|^2 term included it never does
        assert h <= d * (1.0 + 1e-14) or c.size == 1


def test_strip_region_route_equals_series_route():
    # the strip x in (0, 400), |y| < pi is the exponential preimage of a
    # punctured disk; both routes give ||z^p||^2 = p
    for p in (1, 2, 3, 17, 64):
        reg = power_norm_region(STRIP, p)
        ser = power_norm_series([0.0, 1.0], p) ** 2
        assert math.isclose(reg, ser, rel_tol=1e-13)
        assert math.isclose(reg, float(p), rel_tol=1e-13)


def test_region_moment_narrow_rectangle_stability():
    # a rectangle one ulp wide at x = 50: the naive difference of
    # exponentials keeps two digits at best, expm1 keeps them all
    x2 = np.nextafter(50.0, 51.0)
    w = x2 - 50.0
    narrow = one_row_domain(50.0, x2, hi=0.5)      # |y| < pi/2
    val = region_moment(narrow, 0)
    assert val > 0.0
    assert math.isclose(val, w * math.exp(-100.0), rel_tol=1e-10)


def test_region_moment_validations():
    with pytest.raises(ValidationError):
        region_moment(STRIP, -1)
    with pytest.raises(ValidationError):
        region_moment([], 0)
    with pytest.raises(ValidationError):
        power_norm_region(STRIP, 0)
    # unsupported regions: the lens and a list that holds no rectangles
    with pytest.raises(ValidationError):
        region_moment(PowerProfile(), 1)
    with pytest.raises(ValidationError):
        region_moment([1, 2], 0)
    with pytest.raises(ValidationError):
        jensen_lower([STRIP, "box"], 2)
    # arrays of exponents: integers in range, and on a cusp not at all
    with pytest.raises(ValidationError):
        region_moment(STRIP, np.array([0, -1]))
    with pytest.raises(ValidationError):
        power_norm_region(STRIP, np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        region_moment(profile_make(dyadic(4), DELTA), np.array([1, 2]))


def _random_profile(seed):
    # delta and raw targets drawn as in the benchmark inputs, then
    # regularized the way --eps file: input is
    rng = random.Random(seed)
    delta = rng.uniform(0.002, DELTA)
    raw, v = [], 2.0 ** -8 * rng.uniform(0.5, 0.99)
    for _ in range(rng.randint(3, 12)):
        raw.append(v)
        v *= rng.uniform(0.3, 0.95)
    return profile_make(slow_decay(clamp_monotone(raw)), delta)


CUSP_PROFILES = {
    "canonical": profile_make(dyadic(8), DELTA),
    "dyadic:20": profile_make(dyadic(20), DELTA),
    **{f"seed {k}": _random_profile(k) for k in (1, 2, 3)},
}


@pytest.mark.parametrize("name", CUSP_PROFILES)
def test_cusp_moment_matches_fan_integral(name):
    profile = CUSP_PROFILES[name]
    # every block edge m/2 and m - 1 of the doubling blocks, where the
    # order-m rule is exact with no degree to spare (q = m - 1) or with
    # the most (q = m/2)
    for q in (0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 32, 63, 64, 100, 127, 128,
              255, 256, 300, 511):
        assert math.isclose(region_moment(profile, q),
                            fan_moment(profile, q, q), rel_tol=1e-12), q


@pytest.mark.parametrize("name", ["canonical", "seed 1"])
def test_cusp_moment_matches_tensor_oracle(name):
    # the edge rule against the tensor grid over the whole domain
    profile = CUSP_PROFILES[name]
    for q in (0, 1, 2, 3, 7, 16, 29, 40):
        assert math.isclose(region_moment(profile, q),
                            cusp_moment(profile, q, q).real, rel_tol=1e-12), q


def test_cusp_moment_matches_galerkin_diagonal():
    # two independent routes to int |w|^2q dA/pi: the real flux of the
    # edge rule, and the diagonal of the complex Green sum that builds the
    # Galerkin table; both sit on the leggauss floor (about 1.5e-12).  The
    # loop over q is outermost, so that each Gauss order is built once.
    diags = {K: {name: np.diag(moment_matrix(profile, K).moments)
                 for name, profile in CUSP_PROFILES.items()}
             for K in (32, 128)}
    for q in range(128):
        for name, profile in CUSP_PROFILES.items():
            want = region_moment(profile, q)
            for K, diag in diags.items():
                if q < K:
                    assert math.isclose(diag[name][q], want,
                                        rel_tol=5e-12), (name, K, q)


def test_cusp_moment_top_of_range():
    # the order-(q + 1) edge rule is exact, so it runs once, without an
    # AccuracyWarning, up to q + 1 = ORDER_CAP; q = 512 is out of range
    # and the error names q, not the Gauss order behind it
    profile = CUSP_PROFILES["canonical"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        region_moment(profile, 300)
        top = region_moment(profile, 511)
    assert math.isclose(top, fan_moment(profile, 511, 511), rel_tol=1e-12)
    with pytest.raises(ValidationError, match=r"^q 512 "):
        region_moment(profile, 512)


def _counting_boundary_moments(monkeypatch):
    calls = []
    fresh = powers._boundary_moments

    def counting(profile, m):
        calls.append(m)
        return fresh(profile, m)

    monkeypatch.setattr(powers, "_boundary_moments", counting)
    return calls


BLOCKS = [1 << k for k in range(ORDER_CAP.bit_length())]     # 1, 2, .., 512


@pytest.mark.parametrize("name", ["canonical", "dyadic:20", "seed 1"])
def test_memoised_moment_is_the_fresh_sum(name):
    # the memo hands back the value of a fresh block sum at the block's
    # order m = 2^bit_length(q), bit for bit, on the first call and on the
    # next, for every q < ORDER_CAP.  The first call in a block fills the
    # whole block, whichever q it asks for, so a second profile asked in
    # the reverse order holds the same memo.  q = ORDER_CAP is refused
    # before it adds an entry.
    profile = dataclasses.replace(CUSP_PROFILES[name])
    for m in BLOCKS:
        fresh = powers._boundary_moments(profile, m)
        assert list(fresh) == list(range(m // 2, m))
        for q in range(m // 2, m):
            assert region_moment(profile, q) == fresh[q], q
            assert region_moment(profile, q) == fresh[q], q
    assert sorted(profile.moment_memo) == list(range(ORDER_CAP))
    with pytest.raises(ValidationError):
        region_moment(profile, ORDER_CAP)
    assert len(profile.moment_memo) == ORDER_CAP
    backwards = dataclasses.replace(profile)
    for q in reversed(range(ORDER_CAP)):
        region_moment(backwards, q)
    assert backwards.moment_memo == profile.moment_memo


def test_jensen_loop_sums_each_moment_once(monkeypatch):
    # p = 1..64 asks for q = 0 and 1 (mu(D) and m2) and q = p - 1 at every
    # p, 192 moments in all, of which q = 0..63 are distinct: 7 block sums,
    # at orders 1, 2, .., 64, cover each of them once
    calls = _counting_boundary_moments(monkeypatch)
    profile = profile_make(dyadic(8), DELTA)
    for p in range(1, 65):
        jensen_lower(profile, p)
    assert calls == BLOCKS[:7]
    covered = [q for m in calls for q in range(m // 2, m)]
    assert covered == list(range(64))
    assert list(profile.moment_memo) == covered


def test_replaced_profile_starts_with_an_empty_memo():
    profile = profile_make(dyadic(8), DELTA)
    region_moment(profile, 3)
    for other in (dataclasses.replace(profile),
                  dataclasses.replace(profile, delta=profile.delta / 2)):
        assert other.moment_memo == {}
        assert other.moment_memo is not profile.moment_memo
    assert list(profile.moment_memo) == [2, 3]


def test_integer_types_share_one_memo_entry(monkeypatch):
    calls = _counting_boundary_moments(monkeypatch)
    profile = profile_make(dyadic(8), DELTA)
    first = region_moment(profile, np.int64(5))
    assert region_moment(profile, 5) == first
    assert region_moment(profile, np.int32(5)) == first
    assert region_moment(profile, np.int32(6)) == profile.moment_memo[6]
    assert calls == [8]
    assert [type(q) for q in profile.moment_memo] == [int] * 4


def test_block_sum_temporaries_are_bounded():
    # the top block q = 256..511 is summed in chunks of at most 2^16
    # floats (512 KB); held whole it traces at 9.6 MB on these 9 pieces
    _gl(ORDER_CAP)
    profile = profile_make(dyadic(8), DELTA)
    tracemalloc.start()
    try:
        region_moment(profile, ORDER_CAP - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(profile.moment_memo) == ORDER_CAP // 2
    assert peak <= 1_000_000, peak


def test_cusp_moment_at_zero_is_the_area():
    for profile in CUSP_PROFILES.values():
        assert math.isclose(region_moment(profile, 0), cusp_area(profile),
                            rel_tol=1e-14)


def test_jensen_equality_at_p_one():
    prof = profile_make(dyadic(4), DELTA)
    lower, actual = jensen_lower(prof, 1)
    assert lower == actual
    F = eksy_build(lambda n: n.bit_length(), 6)
    lower, actual = jensen_lower(F, 1)
    assert lower == actual


def test_jensen_lower_bounds_region_route():
    prof = profile_make(dyadic(4), DELTA)
    F = eksy_build(lambda n: n.bit_length(), 6)
    for region in (prof, F):
        for p in (2, 3, 5, 11):
            lower, actual = jensen_lower(region, p)
            assert lower <= actual * (1.0 + 1e-12)
            assert lower > 0.0


def test_growth_term_shape():
    assert growth_term(2.0) == 4.0 * math.exp(-2.0)
    xs = np.linspace(1e-6, 1.0, 1000)
    assert np.all(np.diff(growth_term(xs)) > 0.0)
    wide = np.concatenate([xs, np.linspace(1.0, 500.0, 2000)])
    vals = growth_term(wide)
    assert np.all(vals <= np.minimum(wide**2, 1.35 / wide))


def test_growth_term_sum_truncation_stable():
    for p in (1.0, 7.0, 1e3, 1e6):
        a = growth_term_sum(p, 40)
        b = growth_term_sum(p, 80)
        assert abs(a - b) <= 1e-14 * b + 1e-30
    with pytest.raises(ValidationError):
        growth_term_sum(2.0, 0)


def test_log2_targets_values():
    assert [log2_targets(p) for p in (1, 2, 3, 4, 127, 128)] == [1, 2, 2, 3, 7, 8]
    with pytest.raises(ValidationError):
        log2_targets(0)


def test_growth_grid_structure():
    g = growth_grid(1000)
    assert list(g[:128]) == list(range(1, 129))
    assert 256 in g and 512 in g
    assert g[-1] == 1000
    assert np.all(np.diff(g) > 0)
    assert list(growth_grid(5)) == [1, 2, 3, 4, 5]
    with pytest.raises(ValidationError):
        growth_grid(0)


def test_growth_majorant_dominates_single_level():
    F = eksy_build(lambda n: n.bit_length(), 8)
    for p in (4, 16, 256):
        maj = growth_majorant(F, p)
        for N in range(1, 9):
            assert maj >= F.l[N - 1] * float(growth_term(p * 4.0**-N))


@pytest.mark.parametrize("targets, p_max", [
    (log2_targets, 1 << 20),
    (lambda n: 1, 4096),
])
def test_growth_report_matches_the_per_p_routes(targets, p_max):
    # one broadcast over the p grid against one scalar call per p: each
    # value is one dot product over the levels or rows either way, so they
    # agree bit for bit
    F = eksy_build(targets, 24)
    rep = eksy_growth_report(F, targets, p_max)
    sq = [power_norm_region(F, int(p)) for p in rep.ps]
    assert list(power_norm_region(F, rep.ps)) == sq
    assert list(rep.norm) == [math.sqrt(v) for v in sq]
    assert list(rep.majorant) == [growth_majorant(F, int(p)) for p in rep.ps]


def test_growth_report_memory_stays_small():
    # one (P x rows) broadcast over 141 exponents and 480 level rows; on
    # the 14,520 per-copy rectangles of this domain it peaked at 49.3 MB
    F = eksy_build(lambda n: 100, 120)
    tracemalloc.start()
    try:
        eksy_growth_report(F, lambda p: 100, 1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_growth_report_consistency():
    F = eksy_build(lambda n: n.bit_length(), 8)
    rep = eksy_growth_report(F, lambda p: log2_targets(p), 300)
    assert rep.ps[-1] == 300
    assert np.allclose(rep.ratio, rep.norm / rep.mp, rtol=1e-15)
    assert math.isclose(rep.sup_ratio, float(np.max(rep.ratio)), rel_tol=1e-15)
    assert math.isclose(rep.k_const,
                        float(np.max(rep.norm**2 / rep.majorant)), rel_tol=1e-12)
    assert rep.tail == F.tail_bound()
    with pytest.raises(ValidationError):
        eksy_growth_report(F, [1, 2, 3], 300)   # indexable but too short
