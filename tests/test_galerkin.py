import math

import numpy as np
import pytest

from dirichletlab import cli, galerkin
from dirichletlab.errors import NumericIntegrityError, ValidationError
from dirichletlab.galerkin import (
    TRIANGLE_RTOL,
    floor_crossings,
    moment_matrix,
)
from dirichletlab.geometry import profile_make
from dirichletlab.seqs import dyadic

from cusp_oracles import cusp_moment, cusp_nodes, fan_moment, tensor_table
from reference_routes import one_shot_table
from test_carleson import _seeded_profile

DELTA = 1.0 / 200.0


def test_disk_calibration_is_identity():
    # on the unit disk the normalized monomials are orthonormal, so the
    # moment matrix is the K x K identity up to rounding; the table runs
    # the cusp's boundary route, on the exact trapezoid rule of the circle
    for K in (1, 2, 7, 16, 128):
        M = moment_matrix(None, K)
        assert M.Ks == (K,)
        assert np.max(np.abs(M.entries - np.eye(K))) < 1e-14
        assert np.all(np.abs(M.spectrum_by_K[K] - 1.0) < 1e-14)


def test_moment_matrix_matches_direct_moments():
    prof = profile_make(dyadic(3), DELTA)
    M = moment_matrix(prof, 6)
    for j in range(6):
        for k in range(6):
            direct = cusp_moment(prof, j, k).real
            scaled = math.sqrt((j + 1.0) * (k + 1.0)) * direct
            assert math.isclose(M.moments[j, k], direct,
                                rel_tol=1e-9, abs_tol=1e-18)
            assert math.isclose(M.entries[j, k], scaled,
                                rel_tol=1e-9, abs_tol=1e-18)


def test_moment_matrix_trace_identity():
    prof = profile_make(dyadic(3), DELTA)
    M = moment_matrix(prof, 8)
    direct = sum((k + 1.0) * cusp_moment(prof, k, k).real for k in range(8))
    trace = M.trace_by_K[8]
    assert math.isclose(trace, direct, rel_tol=1e-10)
    assert math.isclose(float(M.spectrum_by_K[8].sum()), trace, rel_tol=1e-10)


def test_moment_matrix_psd_and_symmetric():
    prof = profile_make(dyadic(4), DELTA)
    M = moment_matrix(prof, 12)
    # the diagonal scaling (a m) b vs (b m) a differs by at most an ulp
    asym = np.max(np.abs(M.entries - M.entries.T))
    assert asym <= 1e-15 * np.max(np.abs(M.entries))
    assert np.array_equal(M.moments, M.moments.T)
    assert M.spectrum_by_K[12][-1] >= -1e-12 * M.trace_by_K[12]


def test_moment_matrix_validates_K():
    with pytest.raises(ValidationError):
        moment_matrix(None, 0)
    with pytest.raises(ValidationError):
        moment_matrix(None, 401)
    with pytest.raises(ValidationError):
        moment_matrix(object(), 4)


def test_compression_scan_interlaces_exactly():
    prof = profile_make(dyadic(4), DELTA)
    M = moment_matrix(prof, [4, 8, 16, 32])
    assert M.Ks == (4, 8, 16, 32)
    # nested principal submatrices: lambda_n non-decreasing in K, up to
    # eigensolver noise scaled by the trace
    slack = 1e-12 * M.trace_by_K[32]
    for n in range(1, 5):
        vals = [M.eigenvalue(n, K) for K in M.Ks if K >= n]
        assert all(b >= a - slack for a, b in zip(vals, vals[1:]))


def test_compression_scan_single_assembly():
    prof = profile_make(dyadic(3), DELTA)
    M = moment_matrix(prof, [3, 6])
    sub = M.entries[:3, :3]
    from dirichletlab.spectra import eigh
    assert np.allclose(sorted(M.spectrum_by_K[3]), sorted(eigh(sub)),
                       rtol=0.0, atol=1e-15)
    with pytest.raises(ValidationError):
        moment_matrix(prof, [])
    with pytest.raises(ValidationError):
        moment_matrix(prof, [0, 4])


def test_floor_crossings_structure():
    prof = profile_make(dyadic(4), DELTA)
    M = moment_matrix(prof, [4, 16, 32])
    floors = [1e-12, 1e-12, 1e-12, 1.0]
    out = floor_crossings(M, floors)
    assert [n for n, _ in out] == [1, 2, 3, 4]
    # tiny floors are crossed at the smallest truncation already
    assert out[0][1] == 4
    # an unreachable floor reports None instead of failing
    assert out[3][1] is None


def test_floor_crossings_skip_eigenvalues_below_the_noise_floor():
    # with zero floors every resolved eigenvalue crosses, so a crossing is
    # the first K where lambda_n clears TRIANGLE_RTOL * trace of that
    # truncation; lambda_32 at K = 32 is noise and never crosses
    M = moment_matrix(profile_make(dyadic(20), DELTA), [16, 32])
    for K in M.Ks:
        diag = np.diag(M.entries)[:K]
        assert M.noise_floor(K) == TRIANGLE_RTOL * math.fsum(diag)
    out = floor_crossings(M, [0.0] * 32)
    for n, hit in out:
        clear = [K for K in M.Ks
                 if K >= n and M.eigenvalue(n, K) >= M.noise_floor(K)]
        assert hit == (clear[0] if clear else None), n
    assert out[-1] == (32, None)
    assert out[0] == (1, 16)


def test_edge_table_matches_tensor_oracle():
    # the moments from the profile edges against the tensor grid over the
    # whole domain, entry by entry
    for prof in (profile_make(dyadic(8), DELTA),
                 profile_make(dyadic(3), 0.003)):
        for K in (16, 64):
            got = moment_matrix(prof, K).moments
            want = tensor_table(prof, K)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), K


# (j, k) at K = 128: the diagonal, and the corners where the two triangles
# of the edge table differ most
SAMPLES = [(0, 0), (1, 1), (5, 5), (31, 31), (64, 64), (127, 127),
           (1, 0), (127, 0), (126, 0), (127, 1), (100, 3), (127, 126)]


def test_edge_table_matches_mpmath_at_K128():
    # at least as close to 40-digit moments as the order-128 tensor grid,
    # over the sampled entries
    prof = profile_make(dyadic(8), DELTA)
    M = moment_matrix(prof, 128).moments
    pts, wts = cusp_nodes(prof, 128, 128)
    edge, tensor = [], []
    for j, k in SAMPLES:
        ref = fan_moment(prof, j, k)
        tens = (wts @ (pts ** k * np.conj(pts) ** j)).real
        edge.append(abs(M[j, k] - ref) / ref)
        tensor.append(abs(tens - ref) / ref)
    assert max(edge) <= max(tensor)
    assert max(edge) <= 2e-13


@pytest.mark.parametrize("seed", [None, 7, 29])
def test_piecewise_table_matches_the_one_shot_product(monkeypatch, seed):
    # the table summed edge piece by edge piece, each as a real GEMM, is
    # the one complex product over all 9K nodes in another order: within
    # 1e-14 of sqrt(mu_jj mu_kk) (3.0e-15 at K = 128 on the default
    # profile); the closing edge's gathered powers of eps_1 are the K x K
    # power eps_1 ** (j + k + 2) bit for bit
    prof = (profile_make(dyadic(8), DELTA) if seed is None
            else _seeded_profile(seed))
    calls = []
    table = galerkin._boundary_table

    def recorded(*args):
        calls.append(args)
        return table(*args)
    monkeypatch.setattr(galerkin, "_boundary_table", recorded)
    for K in (16, 128, 400):
        got = galerkin._edge_table(prof, K)
        z, c, _, close = calls[-1]
        assert z.shape == c.shape == (prof.knots.size - 1, K)
        want = one_shot_table(z, c, K, close)
        d = np.sqrt(np.abs(np.diag(want)))
        assert np.max(np.abs(got - want) / (d[:, None] * d[None, :])) <= 1e-14
        j, k = np.arange(K)[:, None], np.arange(K)[None, :]
        sign = 1.0 - 2.0 * ((k - j - 1) // 2 % 2)
        assert np.array_equal(close, np.where(
            (j + k) % 2 == 1, -sign * prof.thetas[-1] ** (j + k + 2.0)
            / ((j + 1.0) * (j + k + 2.0)), 0.0)), K


def test_disk_calibration_at_K128():
    # the unit disk's K + 1 trapezoid nodes are one piece; the largest
    # error, 2.0e-15 at (0, 0), is that 129-term sum in one GEMM chain
    M = moment_matrix(None, 128)
    assert np.max(np.abs(M.entries - np.eye(128))) <= 2.0e-15


def test_edge_table_peak_memory():
    # two K x K complex work arrays (the conjugate powers and A) and the
    # K x K sums, reused for every piece: 1.12 MB traced at K = 128 and
    # 9.30 MB at K = 400, where a third work array took 1.64 and 14.3 MB,
    # and one power table over all 9K nodes 7.2 MB at K = 128
    import tracemalloc
    prof = profile_make(dyadic(8), DELTA)
    for K, bound in ((128, 1.2e6), (400, 9.8e6)):
        galerkin._edge_table(prof, K)   # the Gauss rule is cached
        tracemalloc.start()
        try:
            galerkin._edge_table(prof, K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (K, peak)


def test_stacked_ritz_solve_matches_solo_solves():
    # the Ritz matrices of K = 32, 64 and 128 (r = 18, 20 and 23) in one
    # Jacobi run, padded to the largest r: each truncation keeps r values,
    # its padding zeros dropped, within r 2^-53 lambda_1 of the solve of
    # its own Ritz matrix alone
    M = moment_matrix(profile_make(dyadic(8), DELTA), (32, 64, 128))
    for K, stacked in M.spectrum_by_K.items():
        (alone,) = galerkin._ritz(M.entries, {K: M.trace_by_K[K]})
        assert stacked.shape == alone.shape, K
        allow = alone.size * 2.0 ** -53 * alone[0]
        assert np.all(np.abs(stacked - alone) <= allow), K


def _mutated_table(monkeypatch, mutate):
    table = galerkin._edge_table

    def mutated(profile, K):
        out = table(profile, K).copy()
        mutate(out)
        return out

    monkeypatch.setattr(galerkin, "_edge_table", mutated)


def test_triangle_residual_refuses_asymmetric_tables(tmp_path, monkeypatch):
    # an upper-triangle entry moved by 1e-8 of itself is far outside the
    # triangles' agreement (about 1e-13 at K = 128); exit 3 from the CLI
    prof = profile_make(dyadic(3), DELTA)
    moment_matrix(prof, 8)              # the unmutated table passes

    def skew(t):
        t[0, 5] *= 1.0 + 1e-8

    _mutated_table(monkeypatch, skew)
    with pytest.raises(NumericIntegrityError, match="triangles disagree"):
        moment_matrix(prof, 8)
    assert cli.main(["cusp-galerkin", "--Ks", "8",
                     "--out", str(tmp_path)]) == 3


def test_psd_guard_refuses_indefinite_tables(tmp_path, monkeypatch):
    # a symmetric table that no measure has: the last diagonal moment
    # negated passes the triangle residual and trips the PSD guard
    prof = profile_make(dyadic(3), DELTA)

    def negate(t):
        t[-1, -1] = -t[-1, -1]

    _mutated_table(monkeypatch, negate)
    with pytest.raises(NumericIntegrityError, match="semidefinite"):
        moment_matrix(prof, 8)
    assert cli.main(["cusp-galerkin", "--Ks", "8",
                     "--out", str(tmp_path)]) == 3


def test_psd_guard_refuses_a_slightly_indefinite_matrix():
    # lowering the K = 32 cusp matrix's 16th diagonal entry by 1.25e-11 of
    # the trace drives its smallest eigenvalue to about -1e-11 trace, ten
    # times past PSD_RTOL: the Ritz solve must refuse it
    M = moment_matrix(profile_make(dyadic(8), DELTA), 32)
    trace = M.trace_by_K[32]
    galerkin._ritz(M.entries, {32: trace})      # the unperturbed matrix passes
    A = M.entries.copy()
    A[15, 15] -= 1.25e-11 * trace
    assert -2e-11 < np.linalg.eigvalsh(A)[0] / trace < -0.5e-11
    with pytest.raises(NumericIntegrityError, match="semidefinite"):
        galerkin._ritz(A, {32: math.fsum(np.diag(A))})


def _pivoted_cholesky(M):
    """The rows of L^T from the diagonal-pivoted Cholesky M = L L^T + S
    that stops once no pivot left exceeds 2^-53 times the trace."""
    d, tol = np.diag(M).copy(), 2.0 ** -53 * math.fsum(np.diag(M))
    rows = []
    while len(rows) < len(d) and d.max() > tol:
        p = int(np.argmax(d))
        L = np.array(rows).reshape(-1, len(d))
        rows.append((M[p] - L[:, p] @ L) / math.sqrt(d[p]))
        d -= rows[-1] ** 2
        d[p] = 0.0
    return np.array(rows)


@pytest.mark.parametrize("m", [8, 20])
def test_ritz_values_match_a_householder_basis(m):
    # the span of L's columns orthonormalized by LAPACK's Householder QR
    # instead of by Gram-Schmidt: the Ritz values of Q^T M Q agree within
    # r 2^-53 lambda_1, and the ranks are those of the default profile
    entries = moment_matrix(profile_make(dyadic(m), DELTA), 128).entries
    Ks = (32, 64, 128)
    ranks = []
    traces = {K: math.fsum(np.diag(entries)[:K]) for K in Ks}
    for K, ritz in zip(Ks, galerkin._ritz(entries, traces)):
        M = entries[:K, :K]
        Q = np.linalg.qr(_pivoted_cholesky(M).T)[0]
        ref = np.linalg.eigvalsh(Q.T @ M @ Q)[::-1]
        ranks.append(ritz.size)
        assert ritz.shape == ref.shape, K
        allow = ref.size * 2.0 ** -53 * ref[0]
        assert np.all(np.abs(ritz - ref) <= allow), (K, np.abs(ritz - ref).max() / ref[0])
    assert ranks == [18, 20, 23]
