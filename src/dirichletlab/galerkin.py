"""Finite compressions of the Toeplitz operator of the counting measure.

In the normalized monomial basis e_k = sqrt(k+1) z^k of the Bergman
space, the operator has matrix t_jk = sqrt((j+1)(k+1)) mu_hat_jk with
mu_hat_jk = int w^k conj(w)^j dmu.  Truncations are Gram matrices of the
e_k in L^2(mu), hence PSD, and their eigenvalues grow with the
truncation size by Cauchy interlacing, approaching the operator's
singular values from below.  Quadrature orders are chosen so every
moment is integrated exactly.  The regions are symmetric under
conjugation, so the moments are real: the table is assembled in real
arithmetic from one node of each conjugate pair, as one symmetric product
(see _conjugate_half and _moment_table).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectra
from .errors import NumericIntegrityError, ValidationError
from .geometry import CuspProfile
from .quad import _cusp_nodes, _disk_rule

K_CAP = 400
PSD_RTOL = 1e-12
_TABLE_BYTES = 1 << 24


@dataclass(frozen=True)
class MomentMatrix:
    K: int
    entries: np.ndarray             # sqrt((j+1)(k+1)) mu_hat_jk, symmetric
    moments: np.ndarray             # mu_hat_jk itself
    order: int
    spectrum: np.ndarray            # eigenvalues, non-increasing

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries))


def _region_nodes(region, K: int):
    """Conjugation-folded nodes and weights, as 2-D arrays (rows of nodes)."""
    if region is None:
        # unit disk calibration: radial degree K-1 needs order >= K/2,
        # and 4m angular points alias only differences >= 4m > K-1
        order = (K + 1) // 2
        pts, wts = _disk_rule(order, half=True)
        return pts.reshape(order, -1), wts.reshape(order, -1), order
    if isinstance(region, CuspProfile):
        # monomial total degree reaches 2K - 2; mt = my = K is exact
        order = max(K, 8)
        pts, wts = _conjugate_half(*_cusp_nodes(region, order, order), order)
        return pts, wts, order
    raise ValidationError("region must be a cusp profile or None (unit disk)")


def _conjugate_half(pts, wts, my: int):
    """The u >= 0 half of a cusp tensor grid, with doubled weights.

    The grid is rows of my nodes x + i theta u_l at the Gauss nodes u_l,
    which leggauss makes symmetric, so a mirrored row is the conjugate row
    with the same weights.  The fold is exact only if that holds bit for
    bit, so it is checked here.  For odd my the middle column (u = 0) is
    its own conjugate and keeps its weight.  The nodes are a view.
    """
    if pts.size % my:
        raise NumericIntegrityError(
            f"cusp grid of {pts.size} nodes is not made of rows of {my}")
    P, W = pts.reshape(-1, my), wts.reshape(-1, my)
    if not (np.array_equal(P.real[:, ::-1], P.real)
            and np.array_equal(P.imag[:, ::-1], -P.imag)
            and np.array_equal(W[:, ::-1], W)):
        raise NumericIntegrityError(
            "cusp grid lost its conjugate symmetry; the moment table needs"
            " every node's mirror to be its exact conjugate")
    mult = np.full(my - my // 2, 2.0)
    if my % 2:
        mult[0] = 1.0
    return P[:, my // 2:], W[:, my // 2:] * mult


def _moment_table(pts, wts, K: int):
    """Re H for H_jk = sum_i w_i conj(z_i)^j z_i^k on the full grid.

    ``pts``, ``wts`` hold one node of each conjugate pair, in rows, with
    the pair's weight.  The full grid's H is real (a pair's terms are
    conjugates), so only Re H is formed: with u_k = sqrt(w) z^k =
    a_k + i b_k, built row by row as u_(k+1) = u_k z, Re H = A A^T + B B^T,
    one real product X X^T of X = [A B], which BLAS forms as a SYRK.
    X holds a block of node rows at a time (16 MB).
    """
    if np.any(wts < 0.0):
        raise NumericIntegrityError("negative quadrature weight; the moment"
                                    " table needs sqrt(w)")
    rows = max(1, _TABLE_BYTES // (16 * K * pts.shape[1]))
    n = min(rows, pts.shape[0]) * pts.shape[1]
    X = np.empty((K, 2 * n))
    tmp = np.empty(n)
    H = np.zeros((K, K))
    for lo in range(0, pts.shape[0], rows):
        z = pts[lo:lo + rows]
        x, y = z.real.ravel(), z.imag.ravel()
        nb = x.size
        a, b, tz = X[:, :nb], X[:, nb:2 * nb], tmp[:nb]
        np.sqrt(wts[lo:lo + rows].ravel(), out=a[0])
        b[0] = 0.0
        for k in range(K - 1):
            np.multiply(a[k], x, out=a[k + 1])
            a[k + 1] -= np.multiply(b[k], y, out=tz)
            np.multiply(a[k], y, out=b[k + 1])
            b[k + 1] += np.multiply(b[k], x, out=tz)
        Xb = X[:, :2 * nb]
        H += Xb @ Xb.T
    return 0.5 * (H + H.T)


def moment_matrix(region, K: int) -> MomentMatrix:
    """Moment matrix of the region's counting measure, truncation K.

    ``region`` is a cusp profile, or None for the unit disk itself, where
    monomial orthogonality makes the matrix the identity (calibration).
    """
    if not (1 <= K <= K_CAP):
        raise ValidationError(f"K must lie in 1..{K_CAP}")
    pts, wts, order = _region_nodes(region, K)
    moments = _moment_table(pts, wts, K)
    root = np.sqrt(np.arange(1, K + 1, dtype=float))
    entries = root[:, None] * moments * root[None, :]
    spectrum = spectra.eigh(entries)
    if spectrum[-1] < -PSD_RTOL * np.trace(entries):
        raise NumericIntegrityError(
            f"moment matrix lost positive semidefiniteness: {spectrum[-1]:.3e}")
    return MomentMatrix(K=K, entries=entries, moments=moments, order=order,
                        spectrum=spectrum)


@dataclass(frozen=True)
class CompressionScan:
    """Eigenvalues of nested truncations of one moment matrix.

    All truncations are principal submatrices of the same assembled
    matrix, so lambda_n is non-decreasing in K exactly, not merely up to
    re-quadrature noise.
    """

    Ks: tuple[int, ...]
    matrix: MomentMatrix
    spectrum_by_K: dict

    def eigenvalue(self, n: int, K: int) -> float:
        return float(self.spectrum_by_K[K][n - 1])


def compression_scan(region, Ks) -> CompressionScan:
    Ks = sorted({int(K) for K in Ks})
    if not Ks or Ks[0] < 1:
        raise ValidationError("truncation sizes must be positive")
    M = moment_matrix(region, Ks[-1])
    by_K = {}
    for K in Ks:
        by_K[K] = M.spectrum if K == M.K else spectra.eigh(M.entries[:K, :K])
    return CompressionScan(Ks=tuple(Ks), matrix=M, spectrum_by_K=by_K)


def floor_crossings(scan: CompressionScan, floors) -> list:
    """Per index n: smallest K in the scan with sqrt(lambda_n^(K)) at or
    above floors[n-1], or None.  Convergence is from below, so a missing
    crossing is a report, not a failure."""
    floors = np.asarray(floors, dtype=float)
    out = []
    for n in range(1, len(floors) + 1):
        hit = None
        for K in scan.Ks:
            if K >= n and np.sqrt(max(scan.eigenvalue(n, K), 0.0)) >= floors[n - 1]:
                hit = K
                break
        out.append((n, hit))
    return out
