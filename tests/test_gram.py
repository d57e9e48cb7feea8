import dataclasses
import math

import numpy as np
import pytest

from dirichletlab import gram
from dirichletlab.errors import NumericIntegrityError, ValidationError
from dirichletlab.geometry import DiskFamily, disk_family
from dirichletlab.gram import (
    GramMatrix,
    bernstein_certificate,
    build_gram,
    closed_form_gram,
    kernel_centered,
    nu_bound,
    tec_report,
)
from dirichletlab.seqs import dyadic
from dirichletlab.spectra import eigh

DELTA = 1.0 / 200.0


@pytest.fixture(scope="module")
def small_gram():
    fam = disk_family(dyadic(4), DELTA, 4)
    return build_gram(fam, m=8)


def test_entries_match_closed_form(small_gram):
    # the kernel is holomorphic in one slot and anti-holomorphic in the
    # other, so both disk averages collapse to the center value and
    # m_ij = r_i r_j / s_ij^2 exactly
    fam = small_gram.family
    for i in range(1, 5):
        for j in range(1, 5):
            expected = fam.radii[i - 1] * fam.radii[j - 1] / fam.s(i, j) ** 2
            got = small_gram.entries[i - 1, j - 1]
            assert math.isclose(got, expected, rel_tol=1e-10)


def test_gram_symmetry_and_psd(small_gram):
    E = small_gram.entries
    assert np.array_equal(E, E.T)
    assert np.all(small_gram.diag > 0.0)
    lam = eigh(E)
    assert lam[-1] >= -1e-14 * np.trace(E)


def test_gram_diag_matches_eps_prime(small_gram):
    ep = small_gram.family.eps_prime
    assert np.allclose(small_gram.diag, ep**2, rtol=1e-10, atol=0.0)


def test_gram_doubling_residual_recorded(small_gram):
    assert small_gram.order == 8
    assert small_gram.doubling_residual is not None
    assert small_gram.doubling_residual <= 1e-8


def test_nu_is_row_scaled_offdiagonal(small_gram):
    nu = small_gram.nu
    d = small_gram.diag
    assert np.all(np.diag(nu) == 0.0)
    for i in range(4):
        for j in range(4):
            if i != j:
                assert nu[i, j] == small_gram.entries[i, j] / d[i]


def test_nu_bound_values():
    fam = disk_family(dyadic(4), DELTA, 4)
    pows = fam.delta_pows
    bound = nu_bound(fam)
    assert bound.shape == (4, 4)
    assert np.all(np.diag(bound) == 0.0)
    assert bound[0, 2] == 32.0 * pows[1]            # 32 delta^2 above
    assert bound[2, 0] == 32.0 * 4.0 * pows[1]      # 32 (2 delta)^2 below
    assert bound[1, 2] == 32.0 * pows[0]
    assert math.isclose(bound[3, 0], 32.0 * (2.0 * DELTA) ** 3, rel_tol=1e-15)
    # formed once with the Gram matrix, which reads the same array
    assert np.array_equal(closed_form_gram(fam).nu_bound, bound)


TEC_LINES = tuple(f"gram_{name}_min_margin" for name in (
    "diag_floor", "diag_window", "offdiag_decay", "nu_decay", "nu_row_sums",
    "nu_col_sums"))


def test_tec_report_all_margins_positive(small_gram):
    lines = tec_report(small_gram)
    assert tuple(c.name for c in lines) == TEC_LINES
    assert all(c.op == ">=" and c.bound == 0.0 and c.margin > 0.0
               and c.source == "gram inequalities" for c in lines)
    # each line is the smallest margin of its inequality
    eps = np.array(small_gram.family.eps.values[:4])
    assert lines[0].value == float(np.min(small_gram.diag - eps ** 2 / 32.0))
    row_sums = np.abs(small_gram.nu).sum(axis=1)
    assert lines[4].value == float(0.5 - row_sums.max())


def test_nu_row_sums_below_hand_bound(small_gram):
    # sum of the decay bounds over a row is at most
    # 32 (delta/(1-delta) + 2 delta/(1-2 delta)) <= 32 * 3 delta / (1-2 delta)
    # = 96/198 < 1/2 at delta = 1/200
    hand = 96.0 / 198.0
    assert hand < 0.5
    sums = np.abs(small_gram.nu).sum(axis=1)
    assert np.all(sums <= hand)


def test_certificate_chain(small_gram):
    rep = bernstein_certificate(small_gram)
    assert rep.passed
    eps4 = small_gram.family.eps.values[3]
    assert rep.target_sq == eps4**2 / 64.0
    assert rep.target == eps4 / 8.0
    d = small_gram.diag
    assert rep.certified_lower == (1.0 - rep.beta_hat) * d.min()
    assert rep.certified_lower <= rep.lambda_min <= d.min() * (1.0 + 1e-12)
    assert rep.lambda_min >= rep.target_sq
    assert rep.beta_hat <= 0.5
    # q = max(1/2, beta) with beta below 1/2 here, so the Neumann floor
    # is exactly half the smallest diagonal entry
    assert rep.neumann_floor == d.min() / 2.0
    assert rep.lambda_min >= rep.neumann_floor
    names = [c.name for c in rep.checks]
    assert len(names) == 7 and len(set(names)) == 7
    assert all(c.passed for c in rep.checks)


def test_certificate_diagonal_matrix_is_tight():
    # with nu = 0 the Schur bound vanishes and the certified floor equals
    # the smallest diagonal entry exactly
    fam = disk_family(dyadic(3), DELTA, 3)
    entries = np.diag(fam.eps_prime**2)
    M = GramMatrix(n=3, entries=entries, family=fam, order=1,
                   doubling_residual=None)
    rep = bernstein_certificate(M)
    assert rep.beta_hat == 0.0
    assert rep.certified_lower == rep.lambda_min == float(np.diag(entries).min())
    assert rep.passed


def test_certificate_fails_when_the_schur_bound_reaches_one():
    # the all-ones matrix has beta = 1 exactly: the contraction line must
    # fail, not read 1 <= 1
    fam = disk_family(dyadic(2), DELTA, 2)
    M = GramMatrix(n=2, entries=np.ones((2, 2)), family=fam, order=None,
                   doubling_residual=None)
    rep = bernstein_certificate(M)
    assert rep.beta_hat == 1.0
    assert [c.name for c in rep.checks] == ["schur_contraction"]
    assert not rep.checks[0].passed
    assert not rep.passed
    assert rep.neumann_floor is None and rep.certified_lower is None


def test_tec_report_family_shorter_than_eps():
    # n = 2 disks from an 8-term sequence, and a lone disk, which has no
    # off-diagonal part and so only the two diagonal lines
    for n, names in ((2, TEC_LINES), (1, TEC_LINES[:2])):
        fam = disk_family(dyadic(8), DELTA, n)
        lines = tec_report(closed_form_gram(fam))
        assert tuple(c.name for c in lines) == names
        assert all(c.margin > 0.0 for c in lines)


def test_build_gram_validations():
    fam = disk_family(dyadic(2), DELTA, 2)
    with pytest.raises(ValidationError):
        build_gram(fam, m=0)
    big = disk_family(dyadic(13), DELTA, 13)
    with pytest.raises(ValidationError):
        build_gram(big, m=4)


def _stub_assemble(monkeypatch, fam, drift):
    """Replace the quadrature by the closed form times 1 + drift(m), and
    record the orders assembled."""
    closed = closed_form_gram(fam).entries
    orders = []

    def assemble(family, m):
        orders.append(m)
        return closed * (1.0 + drift(m))

    monkeypatch.setattr(gram, "_assemble", assemble)
    return orders


def test_witness_raises_when_orders_disagree(monkeypatch):
    # entries that move by 1e-6 / m: orders 8 and 16 differ by about
    # 6.2e-8 relative, above DOUBLING_RTOL, and no higher order is tried
    fam = disk_family(dyadic(2), DELTA, 2)
    orders = _stub_assemble(monkeypatch, fam, lambda m: 1e-6 / m)
    with pytest.raises(NumericIntegrityError,
                       match=r"orders 8 and 16 disagree: residual 6\.250e-08"):
        build_gram(fam, m=8)
    assert orders == [8, 16]


def test_witness_keeps_order_m_and_its_residual(monkeypatch):
    fam = disk_family(dyadic(2), DELTA, 2)
    orders = _stub_assemble(monkeypatch, fam, lambda m: 1e-12 / m)
    M = build_gram(fam, m=8)
    assert orders == [8, 16]
    assert M.order == 8
    E8, E16 = (closed_form_gram(fam).entries * (1.0 + 1e-12 / m)
               for m in (8, 16))
    assert np.array_equal(M.entries, E8)
    assert M.doubling_residual == float(np.max(np.abs(E16 - E8) / np.abs(E16)))


def test_witness_order_range(monkeypatch):
    # m = 256 is checked against ORDER_CAP = 512; above it no doubling fits
    fam = disk_family(dyadic(2), DELTA, 2)
    orders = _stub_assemble(monkeypatch, fam, lambda m: 0.0)
    for m in (0, 257):
        with pytest.raises(ValidationError, match=r"1\.\.256"):
            build_gram(fam, m=m)
    assert orders == []
    M = build_gram(fam, m=256)
    assert orders == [256, 512]
    assert (M.order, M.doubling_residual) == (256, 0.0)


@pytest.mark.parametrize("delta", [1e-6, 1e-12])
def test_witness_in_range_at_max_n(delta):
    # the kernel is evaluated over delta^i, so deep disks neither underflow
    # nor overflow: every one of the n(n+1)/2 entries matches r_i r_j / s_ij^2
    fam = disk_family(dyadic(gram.MAX_N), delta, gram.MAX_N)
    E = build_gram(fam, m=8).entries
    assert np.all(np.isfinite(E))
    for i in range(1, fam.n + 1):
        for j in range(i, fam.n + 1):
            expected = fam.radii[i - 1] * fam.radii[j - 1] / fam.s(i, j) ** 2
            assert math.isclose(E[i - 1, j - 1], expected, rel_tol=1e-13)


def test_build_gram_floor_guard_trips_on_corrupted_s(monkeypatch):
    # s_ij is about 4 delta^i on the diagonal; a tenth of it drives the
    # denominator below its floor delta^i
    s = DiskFamily.s
    monkeypatch.setattr(DiskFamily, "s", lambda self, i, j: 0.1 * s(self, i, j))
    fam = disk_family(dyadic(2), DELTA, 2)
    with pytest.raises(NumericIntegrityError, match="floor"):
        build_gram(fam, m=4)


def test_build_gram_imag_check_trips_on_asymmetric_rule(monkeypatch):
    # dropping the node at angle 2 pi / 16 breaks the conjugation symmetry
    # of the rule, so the order-m entries keep an imaginary part
    rule = gram._disk_rule

    def lopsided(m):
        pts, wts = rule(m)
        return np.delete(pts, 1), np.delete(wts, 1)

    monkeypatch.setattr(gram, "_disk_rule", lopsided)
    fam = disk_family(dyadic(2), DELTA, 2)
    with pytest.raises(NumericIntegrityError, match="imaginary residue"):
        build_gram(fam, m=4)


def test_build_gram_kernel_calls_stay_within_the_block(monkeypatch):
    # order 64 has 1024 disk points, so one entry is 1024^2 kernel points,
    # more than a block; the verification pass at order 128 has 2048^2
    sizes = []
    kernel = gram.kernel_centered

    def recording(i, j, xi, zeta, family):
        sizes.append(np.broadcast(xi, zeta).size)
        return kernel(i, j, xi, zeta, family)

    monkeypatch.setattr(gram, "kernel_centered", recording)
    fam = disk_family(dyadic(1), DELTA, 1)
    M = build_gram(fam, m=64)
    assert M.order == 64
    assert sum(sizes) == 1024 ** 2 + 2048 ** 2
    assert max(sizes) <= gram._BLOCK_POINTS < 1024 ** 2


# ---------------------------------------------------------------------------
# witness kernel


def test_kernel_center_value():
    fam = disk_family(dyadic(8), DELTA, 8)
    for (i, j) in ((1, 1), (1, 2), (2, 5), (8, 8)):
        val = kernel_centered(i, j, np.array([0.0j]), np.array([0.0j]), fam)
        assert math.isclose(val[0].real, 1.0 / fam.s(i, j) ** 2, rel_tol=1e-13)
        assert abs(val[0].imag) < 1e-16 / fam.s(i, j) ** 2


def test_kernel_matches_naive_where_naive_survives():
    # the direct 1/(1 - w conj z)^2 loses ~1 ulp of 1, i.e. ~2e-14
    # relative at s_11 ~ 0.02; the centered form should agree to that level
    fam = disk_family(dyadic(8), DELTA, 8)
    rng = np.random.default_rng(5)
    for _ in range(40):
        i = int(rng.integers(1, 3))
        j = int(rng.integers(i, 4))
        xi = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        zeta = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        xi /= max(1.0, abs(xi))
        zeta /= max(1.0, abs(zeta))
        z = fam.centers[i - 1] + fam.radii[i - 1] * xi
        w = fam.centers[j - 1] + fam.radii[j - 1] * zeta
        naive = 1.0 / (1.0 - w * np.conj(z)) ** 2
        val = kernel_centered(i, j, np.array([xi]), np.array([zeta]), fam)[0]
        assert abs(val - naive) <= 1e-9 * abs(val)


def test_kernel_finite_at_depth():
    fam = disk_family(dyadic(8), DELTA, 8)
    val = kernel_centered(8, 8, np.array([1.0 + 0.0j]), np.array([1.0 + 0.0j]), fam)
    assert np.isfinite(val[0])
    assert val[0].real > 0.0


def test_kernel_validates_arguments():
    fam = disk_family(dyadic(4), DELTA, 4)
    with pytest.raises(ValidationError):
        kernel_centered(2, 1, np.array([0.0j]), np.array([0.0j]), fam)
    with pytest.raises(ValidationError):
        kernel_centered(1, 1, np.array([1.5 + 0.0j]), np.array([0.0j]), fam)


# ---------------------------------------------------------------------------
# closed-form product path


def _naive(fam):
    """r_i r_j / s_ij^2 as written; it underflows past n of about 40."""
    n = fam.n
    r = fam.radii
    return np.array([[r[i] * r[j] / fam.s(min(i, j) + 1, max(i, j) + 1) ** 2
                      for j in range(n)] for i in range(n)])


def test_closed_form_matches_quadrature_witness(small_gram, gram8):
    # order 8 at n = 4, and order 32 (checked against 64) at n = 8, whose
    # leading 2 x 2 block is the n = 2 instance
    for W, rtol in ((small_gram, 1e-14), (gram8, 1e-13)):
        C = closed_form_gram(W.family)
        assert C.order is None and C.doubling_residual is None
        assert np.allclose(C.entries, W.entries, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 12, 40])
def test_closed_form_matches_naive_form_to_ulps(n):
    fam = disk_family(dyadic(n), DELTA, n)
    E = closed_form_gram(fam).entries
    naive = _naive(fam)
    assert np.all(np.abs(E - naive) <= 8 * np.spacing(naive))
    assert np.array_equal(E, E.T)


def test_closed_form_has_no_size_cap():
    # delta = 1/200 admits families up to n = 123; past n = 117 the corner
    # entries are subnormal but still positive
    fam = disk_family(dyadic(123), DELTA, 123)
    E = closed_form_gram(fam).entries
    assert np.all(np.isfinite(E)) and np.all(E > 0.0)
    assert np.array_equal(E, E.T)


@pytest.mark.parametrize("bad", [math.nan, -0.5])
def test_closed_form_guard_trips_on_corrupted_powers(bad):
    # a NaN power makes entries NaN; a negative delta^1 makes the entries
    # one step off the diagonal negative
    fam = disk_family(dyadic(3), DELTA, 3)
    pows = fam.delta_pows.copy()
    pows[0] = bad
    fam = dataclasses.replace(fam, delta_pows=pows)
    with pytest.raises(NumericIntegrityError, match="closed-form Gram entry"):
        closed_form_gram(fam)


def test_tec_report_margins_at_n100():
    # r_i^3 and delta^3i underflow here; the window bound 4 eps_i^3 does not
    fam = disk_family(dyadic(100), DELTA, 100)
    lines = tec_report(closed_form_gram(fam))
    assert tuple(c.name for c in lines) == TEC_LINES
    assert all(math.isfinite(c.value) and c.margin > 0.0 for c in lines)
