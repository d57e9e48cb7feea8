import math

import numpy as np
import pytest

from dirichletlab import cli, galerkin
from dirichletlab.errors import NumericIntegrityError, ValidationError
from dirichletlab.galerkin import (
    TRIANGLE_RTOL,
    compression_scan,
    floor_crossings,
    moment_matrix,
)
from dirichletlab.geometry import profile_make
from dirichletlab.seqs import dyadic

from cusp_oracles import cusp_moment, cusp_nodes, fan_moment, tensor_table

DELTA = 1.0 / 200.0


def test_disk_calibration_is_identity():
    # on the unit disk the normalized monomials are orthonormal, so the
    # moment matrix is the K x K identity up to rounding; the table runs
    # the cusp's boundary route, on the exact trapezoid rule of the circle
    for K in (1, 2, 7, 16, 128):
        M = moment_matrix(None, K)
        assert M.K == K
        assert np.max(np.abs(M.entries - np.eye(K))) < 1e-14
        assert np.all(np.abs(M.spectrum - 1.0) < 1e-14)


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
    assert math.isclose(M.trace, direct, rel_tol=1e-10)
    assert math.isclose(float(M.spectrum.sum()), M.trace, rel_tol=1e-10)


def test_moment_matrix_psd_and_symmetric():
    prof = profile_make(dyadic(4), DELTA)
    M = moment_matrix(prof, 12)
    # the diagonal scaling (a m) b vs (b m) a differs by at most an ulp
    asym = np.max(np.abs(M.entries - M.entries.T))
    assert asym <= 1e-15 * np.max(np.abs(M.entries))
    assert np.array_equal(M.moments, M.moments.T)
    assert M.spectrum[-1] >= -1e-12 * M.trace


def test_moment_matrix_validates_K():
    with pytest.raises(ValidationError):
        moment_matrix(None, 0)
    with pytest.raises(ValidationError):
        moment_matrix(None, 401)
    with pytest.raises(ValidationError):
        moment_matrix(object(), 4)


def test_compression_scan_interlaces_exactly():
    prof = profile_make(dyadic(4), DELTA)
    scan = compression_scan(prof, [4, 8, 16, 32])
    assert scan.Ks == (4, 8, 16, 32)
    # nested principal submatrices: lambda_n non-decreasing in K, up to
    # eigensolver noise scaled by the trace
    slack = 1e-12 * scan.matrix.trace
    for n in range(1, 5):
        vals = [scan.eigenvalue(n, K) for K in scan.Ks if K >= n]
        assert all(b >= a - slack for a, b in zip(vals, vals[1:]))


def test_compression_scan_single_assembly():
    prof = profile_make(dyadic(3), DELTA)
    scan = compression_scan(prof, [3, 6])
    sub = scan.matrix.entries[:3, :3]
    from dirichletlab.spectra import eigh
    assert np.allclose(sorted(scan.spectrum_by_K[3]), sorted(eigh(sub)),
                       rtol=0.0, atol=1e-15)
    with pytest.raises(ValidationError):
        compression_scan(prof, [])
    with pytest.raises(ValidationError):
        compression_scan(prof, [0, 4])


def test_floor_crossings_structure():
    prof = profile_make(dyadic(4), DELTA)
    scan = compression_scan(prof, [4, 16, 32])
    floors = [1e-12, 1e-12, 1e-12, 1.0]
    out = floor_crossings(scan, floors)
    assert [n for n, _ in out] == [1, 2, 3, 4]
    # tiny floors are crossed at the smallest truncation already
    assert out[0][1] == 4
    # an unreachable floor reports None instead of failing
    assert out[3][1] is None


def test_floor_crossings_skip_eigenvalues_below_the_noise_floor():
    # with zero floors every resolved eigenvalue crosses, so a crossing is
    # the first K where lambda_n clears TRIANGLE_RTOL * trace of that
    # truncation; lambda_32 at K = 32 is noise and never crosses
    scan = compression_scan(profile_make(dyadic(20), DELTA), [16, 32])
    for K in scan.Ks:
        diag = np.diag(scan.matrix.entries)[:K]
        assert scan.noise_floor(K) == TRIANGLE_RTOL * math.fsum(diag)
    out = floor_crossings(scan, [0.0] * 32)
    for n, hit in out:
        clear = [K for K in scan.Ks
                 if K >= n and scan.eigenvalue(n, K) >= scan.noise_floor(K)]
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
    galerkin._ritz(M.entries)           # the unperturbed matrix passes
    A = M.entries.copy()
    A[15, 15] -= 1.25e-11 * M.trace
    assert -2e-11 < np.linalg.eigvalsh(A)[0] / M.trace < -0.5e-11
    with pytest.raises(NumericIntegrityError, match="semidefinite"):
        galerkin._ritz(A)
