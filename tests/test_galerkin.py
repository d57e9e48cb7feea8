import math

import numpy as np
import pytest

from dirichletlab import galerkin
from dirichletlab.errors import NumericIntegrityError, ValidationError
from dirichletlab.galerkin import compression_scan, floor_crossings, moment_matrix
from dirichletlab.geometry import profile_make
from dirichletlab.quad import _cusp_nodes, cusp_moment
from dirichletlab.seqs import dyadic

DELTA = 1.0 / 200.0


def test_disk_calibration_is_identity():
    # on the unit disk the normalized monomials are orthonormal, so the
    # moment matrix is the K x K identity up to quadrature rounding
    M = moment_matrix(None, 16)
    assert M.K == 16
    assert np.max(np.abs(M.entries - np.eye(16))) < 1e-10
    assert np.all(np.abs(M.spectrum - 1.0) < 1e-10)


def test_disk_calibration_order_floor():
    with pytest.raises(ValidationError):
        moment_matrix(None, 16, m=4)    # 2m < K cannot be exact


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


def test_moment_table_matches_complex_formula():
    # the real SYRK table against the complex Vandermonde product it
    # replaced, H_jk = sum_i w_i conj(z_i)^j z_i^k; without one node of a
    # conjugate pair the imaginary part is no longer rounding noise
    prof = profile_make(dyadic(8), DELTA)
    pts, wts = _cusp_nodes(prof, 16, 16)
    drop = int(np.argmax(wts))
    for z, w in ((pts, wts), (np.delete(pts, drop), np.delete(wts, drop))):
        re, im = galerkin._moment_table(z, w, 16)
        V = np.vander(z, 16, increasing=True)
        H = (V.conj() * w[:, None]).T @ V
        assert np.all(np.abs(re - H.real) <= 1e-14 * np.abs(H.real))
        assert np.max(np.abs(im - H.imag)) <= 1e-14 * np.max(np.abs(H))


def test_moment_table_blocks_and_weights(monkeypatch):
    # a table built over several node blocks equals the one-block table;
    # a negative weight has no square root and is refused
    prof = profile_make(dyadic(3), DELTA)
    pts, wts = _cusp_nodes(prof, 8, 8)           # 256 nodes
    whole = galerkin._moment_table(pts, wts, 8)
    monkeypatch.setattr(galerkin, "_TABLE_BYTES", 16 * 8 * 100)
    blocked = galerkin._moment_table(pts, wts, 8)  # 100, 100, 56 nodes
    scale = np.max(np.abs(whole[0]))
    for a, b in zip(whole, blocked):
        assert np.allclose(a, b, rtol=1e-13, atol=1e-13 * scale)
    bad = wts.copy()
    bad[3] = -bad[3]
    with pytest.raises(NumericIntegrityError):
        galerkin._moment_table(pts, bad, 8)


def test_imaginary_residue_trips_without_conjugate_pairs(monkeypatch):
    # drop one node of a conjugate pair: the table keeps an imaginary part
    prof = profile_make(dyadic(3), DELTA)
    pts, wts = _cusp_nodes(prof, 8, 8)
    drop = int(np.argmax(wts))
    assert pts[drop].imag != 0.0
    monkeypatch.setattr(galerkin, "_cusp_nodes", lambda *args: (
        np.delete(pts, drop), np.delete(wts, drop)))
    with pytest.raises(NumericIntegrityError, match="imaginary residue"):
        moment_matrix(prof, 8)
