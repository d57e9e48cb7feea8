import math

import numpy as np
import pytest

from dirichletlab import cli, galerkin
from dirichletlab.errors import NumericIntegrityError, ValidationError
from dirichletlab.galerkin import compression_scan, floor_crossings, moment_matrix
from dirichletlab.geometry import profile_make
from dirichletlab.quad import _cusp_nodes, cusp_moment
from dirichletlab.seqs import dyadic

DELTA = 1.0 / 200.0


def test_disk_calibration_is_identity():
    # on the unit disk the normalized monomials are orthonormal, so the
    # moment matrix is the K x K identity up to quadrature rounding; the
    # table runs on the conjugation-folded disk rule
    for K in (1, 2, 7, 16):
        M = moment_matrix(None, K)
        assert M.K == K
        assert np.max(np.abs(M.entries - np.eye(K))) < 1e-13
        assert np.all(np.abs(M.spectrum - 1.0) < 1e-13)


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
    # the table on the folded half grid against the real part of the
    # complex Vandermonde product over the full grid,
    # H_jk = sum_i w_i conj(z_i)^j z_i^k; odd my has a self-conjugate
    # middle column
    prof = profile_make(dyadic(8), DELTA)
    for my in (16, 17):
        pts, wts = _cusp_nodes(prof, my, my)
        half, hw = galerkin._conjugate_half(pts, wts, my)
        assert half.shape == (pts.size // my, (my + 1) // 2)
        re = galerkin._moment_table(half, hw, 16)
        V = np.vander(pts, 16, increasing=True)
        H = (V.conj() * wts[:, None]).T @ V
        assert np.all(np.abs(re - H.real) <= 1e-14 * np.abs(H.real))


def test_moment_table_blocks_and_weights(monkeypatch):
    # a table built over several blocks of node rows equals the one-block
    # table; a negative weight has no square root and is refused
    prof = profile_make(dyadic(3), DELTA)
    # 32 rows of 4
    pts, wts = galerkin._conjugate_half(*_cusp_nodes(prof, 8, 8), 8)
    whole = galerkin._moment_table(pts, wts, 8)
    monkeypatch.setattr(galerkin, "_TABLE_BYTES", 16 * 8 * 4 * 10)
    blocked = galerkin._moment_table(pts, wts, 8)  # 10, 10, 10, 2 rows
    scale = np.max(np.abs(whole))
    assert np.allclose(whole, blocked, rtol=1e-13, atol=1e-13 * scale)
    bad = wts.copy()
    bad[3, 1] = -bad[3, 1]
    with pytest.raises(NumericIntegrityError):
        galerkin._moment_table(pts, bad, 8)


def test_symmetry_guard_refuses_asymmetric_grids(tmp_path, monkeypatch):
    # the fold is exact only on an exactly conjugation-symmetric grid: a
    # dropped node, or a node or weight moved by one ulp, is refused (exit
    # 3 from the CLI, not a reshape error)
    prof = profile_make(dyadic(3), DELTA)
    pts, wts = _cusp_nodes(prof, 8, 8)
    i = int(np.argmax(wts))
    assert pts[i].imag != 0.0
    moved = pts.copy()
    moved[i] = complex(moved[i].real, np.nextafter(moved[i].imag, np.inf))
    heavier = wts.copy()
    heavier[i] = np.nextafter(heavier[i], np.inf)
    dropped = (np.delete(pts, i), np.delete(wts, i))
    for grid in (dropped, (moved, wts), (pts, heavier)):
        monkeypatch.setattr(galerkin, "_cusp_nodes", lambda *args: grid)
        with pytest.raises(NumericIntegrityError, match="cusp grid"):
            moment_matrix(prof, 8)
    monkeypatch.setattr(galerkin, "_cusp_nodes", lambda *args: dropped)
    assert cli.main(["cusp-galerkin", "--Ks", "8",
                     "--out", str(tmp_path)]) == 3
