import math
import warnings

import numpy as np
import pytest

from dirichletlab.errors import ValidationError
from dirichletlab.geometry import disk_family
from dirichletlab.gram import GramMatrix, bernstein_certificate
from dirichletlab.seqs import dyadic
from dirichletlab.spectra import eigh, schur_bound

from reference_routes import singular_values


def test_eigh_hand_matrix():
    # [[2, 1], [1, 2]] has eigenvalues 3 and 1
    vals = eigh([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(vals, [3.0, 1.0], rtol=0.0, atol=1e-14)


def test_eigh_diagonal_sorted_descending():
    vals = eigh(np.diag([1e-12, 5.0, 3e-4]))
    assert list(vals) == [5.0, 3e-4, 1e-12]


def test_eigh_graded_diagonal_relative_accuracy():
    # graded matrix with a tiny coupled block; Jacobi keeps the small
    # eigenvalues to relative precision
    d = np.array([1.0, 1e-8, 1e-16])
    A = np.diag(d)
    A[1, 2] = A[2, 1] = 1e-13
    vals = eigh(A)
    # 2x2 block [[1e-8, 1e-13], [1e-13, 1e-16]]: char poly roots by hand,
    # with the small root taken as det / hi to dodge cancellation
    tr, det = 1e-8 + 1e-16, 1e-8 * 1e-16 - 1e-26
    disc = math.sqrt(tr * tr - 4.0 * det)
    hi = (tr + disc) / 2.0
    lo = det / hi
    assert math.isclose(vals[1], hi, rel_tol=1e-12)
    assert math.isclose(vals[2], lo, rel_tol=1e-10)


def test_eigh_entries_below_the_squaring_underflow():
    # squaring 1e-300 underflows to 0, so an unscaled Frobenius norm of
    # this matrix is 0 and would pass it off as the zero matrix
    vals = eigh([[0.0, 1e-300], [1e-300, 0.0]])
    assert list(vals) == [1e-300, -1e-300]


def test_eigh_entries_above_the_squaring_overflow():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6))
    A = A + A.T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = eigh(1e200 * A)
    assert np.allclose(vals, 1e200 * np.linalg.eigvalsh(A)[::-1],
                       rtol=1e-12, atol=0.0)


def test_eigh_random_properties():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        B = rng.standard_normal((n, n))
        A = B + B.T
        vals = eigh(A)
        assert np.all(np.diff(vals) <= 1e-12)
        assert math.isclose(float(vals.sum()), float(np.trace(A)),
                            rel_tol=1e-11, abs_tol=1e-11)
        assert math.isclose(float((vals * vals).sum()),
                            float(np.linalg.norm(A) ** 2), rel_tol=1e-11)


def test_eigh_validates_input():
    with pytest.raises(ValidationError):
        eigh([[1.0, 2.0], [0.0, 1.0]])        # not symmetric
    with pytest.raises(ValidationError):
        eigh(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        eigh([[1.0, 1.0j], [-1.0j, 1.0]])     # genuinely complex
    with pytest.raises(ValidationError):
        eigh(np.eye(2, dtype=complex))        # complex dtype, real values


def test_singular_values_hand_matrix():
    sv = singular_values([[3.0, 0.0], [4.0, 0.0]])
    assert math.isclose(sv[0], 5.0, rel_tol=1e-13)
    assert abs(sv[1]) < 1e-12


def test_singular_values_validates_input():
    with pytest.raises(ValidationError):
        singular_values(np.ones(3))
    with pytest.raises(ValidationError):
        singular_values([[1.0, 1.0j], [-1.0j, 1.0]])
    with pytest.raises(ValidationError):
        singular_values(np.eye(2, dtype=complex))


def test_singular_values_match_frobenius():
    rng = np.random.default_rng(23)
    for _ in range(10):
        A = rng.standard_normal((5, 5))
        sv = singular_values(A)
        assert math.isclose(float((sv * sv).sum()),
                            float(np.linalg.norm(A) ** 2), rel_tol=1e-11)
        assert np.all(sv >= 0.0)


def test_schur_bound_oracle():
    # rows sums (0.1, 0.2), column sums (0.2, 0.1):
    # bound = sqrt(0.2 * 0.2) = 0.2
    assert math.isclose(schur_bound([[0.0, 0.1], [0.2, 0.0]]), 0.2, rel_tol=1e-15)
    assert math.isclose(schur_bound([[1.0, 2.0], [3.0, 4.0]]),
                        math.sqrt(7.0 * 6.0), rel_tol=1e-15)


def test_schur_bound_dominates_spectral_norm():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        A = rng.uniform(-1.0, 1.0, size=(n, n))
        top = float(singular_values(A)[0])
        assert top <= schur_bound(A) * (1.0 + 1e-12)


def _certificate(entries):
    """bernstein_certificate on a hand-made Gram matrix; the disk family
    supplies only the targets eps_n."""
    n = len(entries)
    fam = disk_family(dyadic(n), 1.0 / 200.0, n)
    return bernstein_certificate(GramMatrix(
        n=n, entries=np.asarray(entries, dtype=float), family=fam,
        order=None, doubling_residual=None))


def test_neumann_lower_oracle():
    # N = 0: q = max(1/2, 0) = 1/2, so the floor is half the smallest entry
    cert = _certificate(np.diag([4.0, 1.0, 9.0]))
    assert cert.beta_hat == 0.0
    assert cert.neumann_floor == 0.5


def test_neumann_lower_soundness():
    # symmetric M = D (I + N) with random N of Schur bound below 1: the
    # Neumann floor never exceeds LAPACK's smallest eigenvalue
    rng = np.random.default_rng(41)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        d = np.exp(rng.uniform(-6.0, 2.0, size=n))
        S = rng.uniform(-1.0, 1.0, size=(n, n))
        S = np.sqrt(np.outer(d, d)) * (S + S.T)
        np.fill_diagonal(S, 0.0)
        S *= rng.uniform(0.05, 0.95) / schur_bound(S / d[:, None])
        M = np.diag(d) + S
        assert schur_bound(S / d[:, None]) < 1.0
        cert = _certificate(M)
        assert cert.neumann_floor is not None
        assert cert.neumann_floor <= np.linalg.eigvalsh(M)[0] * (1.0 + 1e-10)


def test_neumann_lower_inapplicable_and_validation():
    # beta > 1: no Neumann floor, and the one line the certificate reports
    # fails
    cert = _certificate([[1.0, 2.0], [2.0, 1.0]])
    assert cert.beta_hat == 2.0
    assert cert.neumann_floor is None and cert.certified_lower is None
    assert [c.name for c in cert.checks] == ["schur_contraction"]
    assert not cert.checks[0].passed and not cert.passed
    with pytest.raises(ValidationError):
        _certificate([[0.0, 0.0], [0.0, 1.0]])


def test_eigh_cusp_moment_matrix_matches_lapack():
    # the K = 128 moment matrix of criterion 9: the eigenvalues that
    # cusp-galerkin prints (the top 8) agree with LAPACK
    from dirichletlab.galerkin import moment_matrix
    from dirichletlab.geometry import profile_make
    from dirichletlab.seqs import dyadic
    M = moment_matrix(profile_make(dyadic(8), 1.0 / 200.0), 128)
    ref = np.linalg.eigvalsh(M.entries)[::-1]
    lam = M.spectrum_by_K[128]
    assert np.all(np.abs(lam[:8] - ref[:8]) <= 1e-10 * ref[:8])


def _rotations_per_step(app, aqq, apq):
    """The rotation as it was when each call entered its own np.errstate."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        theta = 0.5 * (aqq - app) / apq
        at = np.abs(theta)
        t = np.where(at > 1e150, 0.5 / theta,
                     np.sign(theta) / (at + np.hypot(1.0, theta)))
    t[theta == 0.0] = 1.0
    t[apq == 0.0] = 0.0
    c = 1.0 / np.hypot(1.0, t)
    return t, c, t * c


def test_eigh_errstate_once_per_call_is_bit_identical(monkeypatch):
    # the floating-point state is entered once per eigh call, not once per
    # rotation step; the K = 128 cusp moment matrix's eigenvalues are the
    # same bits either way, and no warning escapes
    from dirichletlab import spectra
    from dirichletlab.galerkin import moment_matrix
    from dirichletlab.geometry import profile_make
    from dirichletlab.seqs import dyadic
    A = moment_matrix(profile_make(dyadic(8), 1.0 / 200.0), 128).entries
    A[3, 4] = A[4, 3] = 0.0             # a pair with apq == 0 in sweep one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        once = eigh(A)
    monkeypatch.setattr(spectra, "_rotations", _rotations_per_step)
    assert once.tobytes() == eigh(A).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 9, 13, 31])
def test_eigh_matches_lapack_at_any_size(n):
    # odd n leaves one index idle in every step of a sweep
    rng = np.random.default_rng(300 + n)
    B = rng.standard_normal((n, n))
    A = B + B.T
    vals = eigh(A)
    ref = np.linalg.eigvalsh(A)[::-1]
    assert vals.shape == (n,)
    assert np.all(np.abs(vals - ref) <= 1e-13 * np.linalg.norm(A))


def _single_rotation(A):
    """Eigenvalues of a 2x2 matrix by the one Jacobi rotation of the
    original cyclic solver, sorted non-increasing."""
    app, aqq, apq = A[0, 0], A[1, 1], A[0, 1]
    if apq != 0.0:
        theta = 0.5 * (aqq - app) / apq
        if abs(theta) > 1e150:
            t = 0.5 / theta
        else:
            t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
            if theta == 0.0:
                t = 1.0
        app, aqq = app - t * apq, aqq + t * apq
    return np.array([app, aqq]) if aqq <= app else np.array([aqq, app])


def test_eigh_2x2_is_the_single_rotation_bit_for_bit():
    # a 2-disk Gram matrix (cusp-gram --eps dyadic:2) keeps its lambda_min
    from dirichletlab.geometry import disk_family
    from dirichletlab.gram import build_gram
    from dirichletlab.seqs import dyadic
    gram2 = build_gram(disk_family(dyadic(2), 1.0 / 200.0, 2), m=4).entries
    cases = [gram2,
             np.array([[2.0, 1.0], [1.0, 2.0]]),          # theta = 0
             np.array([[2.0, -1.0], [-1.0, 2.0]]),
             np.array([[1e-8, 1e-13], [1e-13, 1e-16]]),   # graded
             np.array([[1.0, 1e-160], [1e-160, 0.0]]),    # theta > 1e150
             np.array([[3.0, 0.0], [0.0, 5.0]])]          # a_pq = 0
    rng = np.random.default_rng(7)
    for _ in range(200):
        B = rng.standard_normal((2, 2)) * 10.0 ** rng.integers(-30, 30, (2, 2))
        cases.append(B + B.T)
    for A in cases:
        assert np.array_equal(eigh(A), _single_rotation(A)), A


def test_eigh_graded_smallest_eigenvalue_against_mpmath():
    # D B D with B well conditioned: the smallest eigenvalue (~1e-22 next
    # to 1) is determined to about cond(B) * 2^-53 relative, and Jacobi
    # must deliver that, not just 1e-16 * ||A|| absolute
    mpmath = pytest.importorskip("mpmath")
    n = 12
    rng = np.random.default_rng(12)
    C = rng.standard_normal((n, n))
    B = np.eye(n) + 0.1 * (C + C.T)
    for d in (10.0 ** -np.arange(n), 10.0 ** -np.arange(n)[::-1]):
        A = d[:, None] * B * d[None, :]
        with mpmath.workdps(50):
            ref = min(mpmath.eigsy(mpmath.matrix(A.tolist()),
                                   eigvals_only=True))
            rel = abs((mpmath.mpf(float(eigh(A)[-1])) - ref) / ref)
        assert rel <= 1e-12, (d[0], float(rel))


def _padded(blocks):
    """The square matrices in blocks as one stack, zero-padded to the
    largest."""
    n = max(len(B) for B in blocks)
    stack = np.zeros((len(blocks), n, n))
    for S, B in zip(stack, blocks):
        S[:len(B), :len(B)] = B
    return stack


def test_eigh_stack_of_mixed_sizes(monkeypatch):
    # matrices of 1 to 9 rows zero-padded into one stack: a rotation with
    # a_pq = 0 is an exact swap, so after the run every matrix still has
    # n - r zero rows and columns, its row of eigenvalues holds n - r
    # exact zeros, and the rest lie within n 2^-53 |lambda|_max of the
    # eigenvalues of that matrix alone
    from dirichletlab import spectra
    rng = np.random.default_rng(11)
    blocks = []
    for r in (9, 1, 4, 7, 2, 9, 8):
        B = rng.standard_normal((r, r)) * 10.0 ** rng.integers(-8, 8)
        blocks.append(B + B.T)
    alone = [eigh(B) for B in blocks]
    stacks = []
    plan = spectra._plan

    def recorded(S, R, o):
        stacks.append(S)
        return plan(S, R, o)
    monkeypatch.setattr(spectra, "_plan", recorded)
    vals = eigh(_padded(blocks))
    assert vals.shape == (7, 9) and all(S is stacks[0] for S in stacks)
    for row, M, B, ref in zip(vals, stacks[0], blocks, alone):
        n, r = row.size, len(B)
        assert np.count_nonzero(~M.any(axis=0)) == n - r
        assert np.count_nonzero(~M.any(axis=1)) == n - r
        assert np.count_nonzero(row == 0.0) == n - r
        assert np.all(np.diff(row) <= 0.0)
        got = row[row != 0.0]
        allow = n * 2.0 ** -53 * np.max(np.abs(ref))
        assert np.all(np.abs(got - ref) <= allow), r


def test_eigh_graded_stack_against_mpmath():
    # the two graded D B D matrices of the test above and an 8 x 8 matrix
    # twenty orders of magnitude smaller, in one run: the stopping tests
    # are per matrix, so every eigenvalue of each keeps its relative
    # accuracy against 50-digit values
    mpmath = pytest.importorskip("mpmath")
    n = 12
    rng = np.random.default_rng(12)
    C = rng.standard_normal((n, n))
    B = np.eye(n) + 0.1 * (C + C.T)
    blocks = [d[:, None] * B * d[None, :]
              for d in (10.0 ** -np.arange(n), 10.0 ** -np.arange(n)[::-1])]
    E = rng.standard_normal((8, 8))
    blocks.append(1e-20 * (E @ E.T + 8.0 * np.eye(8)))
    for row, A in zip(eigh(_padded(blocks)), blocks):
        with mpmath.workdps(50):
            ref = sorted(mpmath.eigsy(mpmath.matrix(A.tolist()),
                                      eigvals_only=True), reverse=True)
            rel = max(abs((mpmath.mpf(float(x)) - y) / y)
                      for x, y in zip(row[:len(A)], ref))
        assert rel <= 1e-12, (len(A), float(rel))


def _cusp_profile():
    from dirichletlab.geometry import profile_make
    from dirichletlab.seqs import dyadic
    return profile_make(dyadic(8), 1.0 / 200.0)


def test_galerkin_ritz_values_within_the_weyl_allowance():
    # the top 8 Ritz values that cusp-galerkin prints agree with LAPACK and
    # with Jacobi on the whole truncation to K 2^-53 lambda_1, the Weyl
    # allowance of a backward-stable solve that tests/test_golden.py
    # applies; every Ritz value is a lower bound (interlacing) to that
    # allowance
    from dirichletlab.galerkin import moment_matrix
    from test_carleson import _seeded_profile
    for profile in (_cusp_profile(), _seeded_profile(3), _seeded_profile(7),
                    _seeded_profile(29)):
        M = moment_matrix(profile, (32, 64, 128))
        for K, ritz in M.spectrum_by_K.items():
            A = M.entries[:K, :K]
            lapack = np.linalg.eigvalsh(A)[::-1]
            allow = K * 2.0 ** -53 * lapack[0]
            assert np.all(np.abs(ritz[:8] - lapack[:8]) <= allow), K
            assert np.all(np.abs(ritz[:8] - eigh(A)[:8]) <= allow), K
            assert np.all(ritz <= lapack[:ritz.size] + allow), K


def test_galerkin_eigensolves_are_at_most_32_by_32(monkeypatch):
    # the Ritz matrices at K = 32, 64 and 128 are r x r (r = 18, 20 and 23
    # on the default profile), solved in one call on a stack of depth 3
    # zero-padded to the largest r: Jacobi never sees a full truncation
    from dirichletlab import spectra
    from dirichletlab.galerkin import moment_matrix
    calls = []
    eigh_ = spectra.eigh

    def recorded(A):
        calls.append((A.shape[0] if np.ndim(A) == 3 else 1, A.shape[-1]))
        return eigh_(A)
    monkeypatch.setattr(spectra, "eigh", recorded)
    moment_matrix(_cusp_profile(), (32, 64, 128))
    assert len(calls) == 1 and calls[0][0] == 3 and calls[0][1] <= 32, calls
