import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichletlab import carleson, geometry, powers
from dirichletlab.errors import ConstructionError, ValidationError
from dirichletlab.geometry import disk_family, eksy_build, eps_exp, profile_make
from dirichletlab.seqs import dyadic

from reference_routes import (PowerProfile, cusp_area, cusp_contains,
                              one_row_domain)

DELTA = 1.0 / 200.0


def test_profile_anchors():
    prof = profile_make(dyadic(3), DELTA)
    hs, thetas = prof.anchors
    assert len(hs) == len(thetas) == 3
    # views of the breakpoint table, j = 1..n, not copies
    assert np.shares_memory(hs, prof.knots)
    assert np.shares_memory(thetas, prof.thetas)
    assert np.array_equal(hs, prof.knots[-2:0:-1])
    for j, (h, th) in enumerate(zip(hs, thetas), start=1):
        assert math.isclose(h, DELTA**j, rel_tol=1e-15)
        assert th == 2.0 ** (-7 - j) * h
    # interpolation hits the anchors exactly
    assert np.array_equal(prof.eval(hs), thetas)


def test_piece_table_holds_the_breakpoint_differences():
    # formed once per profile, bit for bit the per-piece formulas its
    # readers used to form on every call
    prof = profile_make(dyadic(8), DELTA)
    t, th = prof.knots, prof.thetas
    p = prof.pieces
    assert np.array_equal(p.t0, t[:-1]) and np.array_equal(p.theta0, th[:-1])
    assert np.array_equal(p.dt, t[1:] - t[:-1])
    assert np.array_equal(p.dtheta, th[1:] - th[:-1])
    assert np.array_equal(
        p.cross, (1.0 - t[:-1]) * (th[1:] - th[:-1]) + th[:-1] * (t[1:] - t[:-1]))
    assert np.array_equal(p.trap, (th[1:] + th[:-1]) * (t[1:] - t[:-1]))
    assert np.array_equal(p.radius2, t * t + th * th)


def test_profile_arrays_are_read_only():
    # memoised moments and the piece table are formed from the breakpoint
    # table once, so no array of the profile may change after it
    prof = profile_make(dyadic(3), DELTA)
    for a in (prof.knots, prof.thetas, *prof.anchors, *prof.pieces):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_array_holding_regions_compare_by_identity():
    # equality on their array fields would be ambiguous and their hash would
    # fail, so the profile, the disk family and the staircase domain compare
    # and hash as objects; a replaced profile is a new object with a new,
    # empty memo
    builds = [lambda: profile_make(dyadic(8), 1.0 / 200.0),
              lambda: disk_family(dyadic(8), 1.0 / 200.0, 8),
              lambda: eksy_build(lambda n: n.bit_length(), 6)]
    for build in builds:
        a, b = build(), build()
        assert a == a and not (a == b) and a != b
        assert len({a, b, a}) == 2
        assert hash(a) == hash(a)
    profile = builds[0]()
    powers.region_moment(profile, 3)
    other = dataclasses.replace(profile)
    assert other != profile and other.moment_memo == {}
    assert list(profile.moment_memo) == [2, 3]


def test_disk_family_reads_the_profile_scales():
    # the chain's powers and radii are the profile's knots and heights,
    # bit for bit, at every n
    prof = profile_make(dyadic(8), DELTA)
    hs, thetas = prof.anchors
    for n in range(1, 9):
        fam = disk_family(dyadic(8), DELTA, n)
        assert np.array_equal(fam.delta_pows, hs[:n])
        assert np.array_equal(fam.radii, thetas[:n])


def test_profile_is_sublinear():
    prof = profile_make(dyadic(8), DELTA)
    hs = np.linspace(1e-6, 1.0 - 1e-6, 500)
    vals = prof.eval(hs)
    # theta(h) = eps_1 h exactly on the outermost piece, so allow an ulp
    assert np.all(vals <= 2.0**-8 * hs * (1.0 + 1e-12))
    assert np.all(np.diff(vals) >= 0.0)
    assert prof.eval(1.0) == 2.0**-8


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
    lens = PowerProfile()
    assert lens.eval(0.25) == 0.25
    assert list(lens.knots) == [0.0, 1.0]
    assert list(lens.thetas) == [0.0, 1.0]
    half = PowerProfile(scale=0.5)
    assert half.eval(0.25) == 0.125
    assert list(half.thetas) == [0.0, 0.5]
    for scale in (0.0, -0.5, 1.5):
        with pytest.raises(ValidationError):
            PowerProfile(scale=scale)


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
    m, n = np.arange(2, 62), np.arange(1, 31)
    # rows: base boxes m = 2..61, towers at m = 2n, pipes at depth n
    box = np.concatenate((2.0 * 2.0 ** -m, 2.0 * 2.0 ** (-2 * n)))
    pipe = 2.0 - 2.0 * 4.0 ** -n
    dy_over_pi = 2.0 * (F.hi - F.lo)
    assert list(dy_over_pi) == list(box) + list(pipe)
    assert list(F.pipe) == [False] * 90 + [True] * 30
    # deep towers: the absolute y coordinates have lost the extent, the
    # row span is still exact
    assert dy_over_pi[60 + 29] == 2.0 * 2.0**-60
    deep = [r for r in F.rectangles if r.tag == "tower" and r.index == 60]
    assert deep and all(r.y2 - r.y1 == 0.0 for r in deep)


def test_eksy_area_oracle():
    F = eksy_build(lambda n: 1, 3)          # l = (1, 1, 1): no towers, no pipes
    exp_area = 0.0
    for m in range(2, 8):
        em = -math.log1p(-(2.0**-m))
        em1 = -math.log1p(-(2.0 ** -(m + 1)))
        exp_area += (em - em1) * 2.0 * math.pi * 2.0**-m
    assert math.isclose(F.area(), exp_area, rel_tol=1e-13)
    assert len(F.rectangles) == 6


def _drop(s, a, b):
    # e^{-s a} - e^{-s b}, by hand
    return math.exp(-s * a) - math.exp(-s * b)


def test_pullback_mass_clips_the_x_range():
    # the row [1, 2] x |y| < pi carries (2/s)(e^{-s a} - e^{-s b}) on its
    # x-clip [a, b], and nothing outside (xlo, xhi)
    F = one_row_domain(1.0, 2.0)
    assert math.isclose(F.pullback_mass(2), _drop(2, 1.0, 2.0), rel_tol=1e-14)
    assert math.isclose(F.pullback_mass(2, 1.5, 1.75), _drop(2, 1.5, 1.75),
                        rel_tol=1e-14)
    for xlo, xhi in ((3.0, math.inf), (2.0, 5.0), (0.0, 0.5), (0.0, 1.0)):
        assert F.pullback_mass(2, xlo, xhi) == 0.0, (xlo, xhi)


def test_pullback_mass_of_a_pipe_reaches_from_lo():
    # a pipe covers the band span (1/4, 1): a band of half-height h <= 1/4
    # misses it, and one of 1/4 < h < 1 meets each copy along 2 pi (h - 1/4)
    F = one_row_domain(1.0, 2.0, lo=0.25, hi=1.0, first=1, pipe=True)
    assert F.pullback_mass(2, h=0.25) == 0.0
    assert F.pullback_mass(2, h=0.1) == 0.0
    assert math.isclose(F.pullback_mass(2, h=0.5), 0.25 * _drop(2, 1.0, 2.0),
                        rel_tol=1e-14)
    assert math.isclose(F.pullback_mass(6, h=0.5),
                        2.0 / 6.0 * 0.25 * _drop(6, 1.0, 2.0), rel_tol=1e-14)
    assert math.isclose(F.pullback_mass(2), 0.75 * _drop(2, 1.0, 2.0),
                        rel_tol=1e-14)


def test_pullback_mass_counts_copies():
    # five copies of a box with band span (0, 1/4): five times one copy
    F = one_row_domain(0.5, 0.75, hi=0.25, count=5)
    for s in (2, 4, 10):
        assert math.isclose(F.pullback_mass(s),
                            2.0 / s * 5 * 0.25 * _drop(s, 0.5, 0.75),
                            rel_tol=1e-14)
    assert math.isclose(F.pullback_mass(2, h=0.125),
                        5 * 0.125 * _drop(2, 0.5, 0.75), rel_tol=1e-14)


def test_pullback_mass_takes_an_array_of_s():
    s = np.array([2, 4, 6, 100])
    F = one_row_domain(1.0, 2.0, lo=0.25, hi=1.0, count=3, first=1, pipe=True)
    masses = F.pullback_mass(s, 1.25, 1.5, 0.5)
    assert list(masses) == [F.pullback_mass(int(v), 1.25, 1.5, 0.5) for v in s]
    for v, m in zip(s, masses):
        assert math.isclose(m, 2.0 / v * 3 * 0.25 * _drop(v, 1.25, 1.5),
                            rel_tol=1e-13)
    F = eksy_build(lambda n: n.bit_length(), 12)
    assert list(F.pullback_mass(s)) == [F.pullback_mass(int(v)) for v in s]
    for h in (0.0, -1.0, 1.5):
        with pytest.raises(ValidationError):
            F.pullback_mass(2, h=h)


def test_pullback_mass_broadcasts_xlo_xhi_and_h():
    # k pairs of windows, rows on the last axis: xlo (k, 2, 1), xhi
    # (k, 1, 1), h (k, 1, 1).  Each pair is the (2, 1)-column call bit for
    # bit, and each entry the scalar call: one dot product over the rows
    # per window, whatever the call's shape
    F = eksy_build(lambda n: n.bit_length(), 12)
    xlo = np.array([[0.0, 0.01], [0.05, 0.0], [0.3, 1e-4]])[..., None]
    xhi = np.array([0.5, 1.0, math.inf])[:, None, None]
    h = np.array([1.0, 0.25, 2.0 ** -9])[:, None, None]
    for s in (2.0, 6.0):
        m = F.pullback_mass(s, xlo, xhi, h)
        assert m.shape == (3, 2)
        for k in range(3):
            pair = F.pullback_mass(s, xlo[k], float(xhi[k, 0, 0]),
                                   float(h[k, 0, 0]))
            assert list(m[k]) == list(pair), (s, k)
            for j in range(2):
                assert m[k, j] == F.pullback_mass(
                    s, float(xlo[k, j, 0]), float(xhi[k, 0, 0]),
                    float(h[k, 0, 0])), (s, k, j)
    # h alone as a column: one mass per band
    assert list(F.pullback_mass(2.0, h=h[:, 0])) == [
        F.pullback_mass(2.0, h=float(v)) for v in h[:, 0, 0]]
    # one bad entry anywhere is refused
    for bad in (0.0, -1.0, 1.5, math.nan):
        hb = h.copy()
        hb[1, 0, 0] = bad
        with pytest.raises(ValidationError):
            F.pullback_mass(2.0, xlo, xhi, hb)


@pytest.mark.parametrize("k", [2, 3])
def test_pullback_mass_refuses_misaligned_windows(k):
    # h as (k, 1) beside xlo (k, 2, 1) pairs bands across windows: at k = 2
    # numpy broadcasts it to wrong masses, at k = 3 it fails to broadcast;
    # both are refused, as is a window array that puts its windows on the
    # rows' axis, while the documented layouts agree with the scalar calls
    F = eksy_build(lambda n: n.bit_length(), 12)
    xlo = np.array([[0.0, 0.01], [0.05, 0.0], [0.3, 1e-4]])[:k, :, None]
    xhi = np.array([0.5, 1.0, math.inf])[:k, None, None]
    h = np.array([1.0, 0.25, 2.0 ** -9])[:k]
    for bad in ((xlo, xhi, h[:, None]), (xlo, xhi[:, 0], h[:, None, None]),
                (xlo[..., 0], 1.0, 1.0), (0.0, 1.0, h)):
        with pytest.raises(ValidationError, match="line"):
            F.pullback_mass(2.0, *bad)
    m = F.pullback_mass(2.0, xlo, xhi, h[:, None, None])
    assert m.tolist() == [[F.pullback_mass(2.0, float(xlo[i, j, 0]),
                                           float(xhi[i, 0, 0]), float(h[i]))
                           for j in range(2)] for i in range(k)]
    assert F.pullback_mass(2.0, xlo[:, 0], xhi[:, 0], h[:, None]).tolist() == \
        m[:, 0].tolist()


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


_ROWS = ("x1", "x2", "lo", "hi", "first", "count", "pipe")


def _absolute(F, **rows):
    """(x1, x2, y1, y2) arrays of the copies of F with its rows replaced,
    expanded without the row check."""
    with mock.patch.object(geometry, "_first_overlap", lambda *a: None):
        rects = dataclasses.replace(F, **rows).rectangles
    return np.array([(r.x1, r.x2, r.y1, r.y2) for r in rects]).reshape(-1, 4).T


def _rows_overlap(F, **rows):
    """Whether the row check refuses F with its rows replaced."""
    try:
        dataclasses.replace(F, **rows)
    except ConstructionError:
        return True
    return False


def test_eksy_build_rejects_overlapping_rectangles():
    # the level-2 towers (row 13) started at copy 0 land on their base box
    # B(0, 4) (row 2); expanded, that copy is rectangle 12.  Band
    # coordinates hold no 2 pi, so the rows are mutated, not the period
    F = eksy_build(lambda n: n, 6)
    first = F.first.copy()
    first[13] = 0
    with pytest.raises(ConstructionError, match="rows 2 and 13 overlap"):
        dataclasses.replace(F, first=first)
    assert geometry._first_overlap(*_absolute(F, first=first)) == (2, 12)


def test_row_check_catches_a_duplicated_deep_level():
    # the towers B(k, 60) of level 30 twice: pi 2^-60 lies below one ulp
    # of 2 k pi, so every expanded copy has y1 == y2 and the absolute
    # check passes the same mutant; the band spans keep the overlap
    F = eksy_build(lambda n: n.bit_length(), 40)
    row = 2 * 40 + 29
    dup = {f: np.insert(getattr(F, f), row, getattr(F, f)[row])
           for f in _ROWS}
    with pytest.raises(ConstructionError,
                       match=f"rows {row} and {row + 1} overlap"):
        dataclasses.replace(F, **dup)
    assert geometry._first_overlap(*_absolute(F, **dup)) is None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_row_check_agrees_with_the_absolute_check(data):
    # shallow staircases, where absolute coordinates resolve every span;
    # box spans widen up to 1/2, because at a box span of 1 the ends
    # 2 k pi + pi and 2 (k + 1) pi - pi may round apart by an ulp, and the
    # absolute check would see that ulp
    n_max = data.draw(st.integers(1, 6))
    top = data.draw(st.integers(1, 3))
    F = eksy_build(lambda n: max(top, n.bit_length()), n_max)
    rows = {f: getattr(F, f).copy() for f in _ROWS}
    ends = sorted(set(F.x1) | set(F.x2))
    for _ in range(data.draw(st.integers(1, 3))):
        r = data.draw(st.integers(0, len(rows["x1"]) - 1))
        how = data.draw(st.sampled_from(["x-end", "span", "first", "dup"]))
        if how == "x-end":
            end = data.draw(st.sampled_from(["x1", "x2"]))
            rows[end][r] = data.draw(st.sampled_from(ends))
        elif how == "span" and rows["pipe"][r]:
            rows["lo"][r] /= 2 ** data.draw(st.integers(1, 12))
        elif how == "span":
            rows["hi"][r] = min(0.5, rows["hi"][r] * 2 ** data.draw(
                st.integers(1, 12)))
        elif how == "first":
            rows["first"][r] = data.draw(st.integers(0, rows["first"][r]))
        else:
            rows = {f: np.insert(a, r, a[r]) for f, a in rows.items()}
    absolute = geometry._first_overlap(*_absolute(F, **rows))
    assert _rows_overlap(F, **rows) == (absolute is not None)


def _first_overlap_brute(x1, x2, y1, y2):
    """Reference for geometry._first_overlap: every one of the R x R pairs
    tested, on row blocks of about 2^18 pairs; the first hit in row-major
    order is the lexicographically smallest overlapping pair."""
    n = len(x1)
    rows = max(1, (1 << 18) // n)
    for a in range(0, n, rows):
        b = slice(a, a + rows)
        xov = np.minimum(x2[b, None], x2) - np.maximum(x1[b, None], x1)
        yov = np.minimum(y2[b, None], y2) - np.maximum(y1[b, None], y1)
        bad = (xov > 0.0) & (yov > 0.0)
        np.fill_diagonal(bad[:, a:], False)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            return a + int(i), int(j)
    return None


# boxes on a 6 x 6 integer grid, so that shared edges, equal x1, zero-width
# and inverted boxes are common
_GRID = st.integers(0, 5)
_BOXES = st.lists(st.tuples(_GRID, _GRID, _GRID, _GRID), min_size=1,
                  max_size=14)


@pytest.mark.parametrize("scale", [3, 65536])
@settings(max_examples=300, deadline=None)
@given(boxes=_BOXES)
def test_first_overlap_matches_all_pairs(scale, boxes):
    # the same grid boxes at two integer scales, both exact in binary: the
    # answer depends on the order of the corners, not on their size
    x1, x2, y1, y2 = scale * np.array(boxes, dtype=float).reshape(-1, 4).T
    got = geometry._first_overlap(x1, x2, y1, y2)
    assert got == _first_overlap_brute(x1, x2, y1, y2)


def test_deep_staircase_overlap_check_stays_small():
    # the deepest staircase eksy_build accepts: R = 2,148 rows and 1,612
    # candidate pairs.  The build's traced peak (0.37 MB) stays below
    # 1 MB, where an R x R mask of bools alone would take 4.6 MB
    tracemalloc.start()
    try:
        F = eksy_build(lambda n: 100, 537)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(F.x1) == 2148
    assert sum(F.count) == 288906
    assert peak <= 1.0e6


def test_too_deep_staircase_fails_before_reading_targets():
    # from depth 538 on, pipe and box widths both round to 0; the depth
    # is refused before the targets of 100,000 levels are read
    calls = []

    def M(n):
        calls.append(n)
        return 100

    with pytest.raises(ConstructionError,
                       match="pipe at depth 538 wider than its box"):
        eksy_build(M, 100_000)
    assert len(calls) <= 538
    with pytest.raises(ConstructionError,
                       match="pipe at depth 538 wider than its box"):
        eksy_build(M, 538)


def test_deep_staircase_holds_one_row_per_level():
    F = eksy_build(powers.log2_targets, 200)
    assert len(F.x1) == 800
    assert len(F.rectangles) == 18850
    table = np.array(carleson.eksy_window_table(F))
    assert np.all(np.isfinite(table)) and np.all(table > 0.0)
    rep = powers.eksy_growth_report(F, powers.log2_targets, 1 << 20)
    for a in (rep.norm, rep.majorant, rep.ratio):
        assert np.all(np.isfinite(a)) and np.all(a > 0.0)


def eksy_contains(F, u):
    """Membership in the closed union of F's rectangles, in absolute
    coordinates."""
    x, y = u.real, u.imag
    return any(r.x1 <= x <= r.x2 and r.y1 <= y <= r.y2 for r in F.rectangles)


def count_preimages(F, w):
    """#{k : 0 <= k <= l_{n_max}, -Log w + 2k pi i in F} for 0 < |w| < 1."""
    r = abs(w)
    if not (0.0 < r < 1.0):
        raise ValidationError("w must satisfy 0 < |w| < 1")
    x0 = -math.log(r)
    y0 = -math.atan2(w.imag, w.real)
    return sum(eksy_contains(F, complex(x0, y0 + 2.0 * math.pi * k))
               for k in range(F.l[-1] + 1))


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


def _rows_on_one_x_range(R):
    """(x1, x2, lo, hi, band start, band stop) of R rows over one x-range
    with span (0, 1/2), row i on the half-bands [2i, 2i + 2): every pair
    of rows is a candidate of the sweep, and none overlaps."""
    band = 2 * np.arange(R)
    return (np.full(R, 0.1), np.full(R, 0.2), np.zeros(R), np.full(R, 0.5),
            band, band + 2)


def test_overlap_check_of_rows_on_one_x_range_stays_small():
    # 2,000 rows, 1,999,000 candidate pairs: all at once they took 130 MB
    # traced; tested in blocks of _PAIR_BLOCK pairs they stay below 16 MB
    rows = _rows_on_one_x_range(2000)
    tracemalloc.start()
    try:
        pair = geometry._first_overlap(*rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair is None
    assert peak <= 16e6, peak


def test_overlap_in_the_last_block_is_still_the_first_pair():
    # x1 falling with the row index ranks the rows backwards: the pair
    # (0, 1) is the sweep's last candidate, in its last block, and the
    # larger pair (1998, 1999) is met first, in the first block
    x1, x2, lo, hi, start, stop = _rows_on_one_x_range(2000)
    x1 = x1 - 1e-9 * np.arange(2000)
    for i in (1, 1999):
        start[i], stop[i] = start[i - 1], stop[i - 1]
    assert geometry._first_overlap(x1, x2, lo, hi, start, stop) == (0, 1)
