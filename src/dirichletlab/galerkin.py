"""Finite compressions of the Toeplitz operator of the counting measure.

In the normalized monomial basis e_k = sqrt(k+1) z^k of the Bergman
space, the operator has matrix t_jk = sqrt((j+1)(k+1)) mu_hat_jk with
mu_hat_jk = int w^k conj(w)^j dmu.  Truncations are Gram matrices of the
e_k in L^2(mu), hence PSD, and their eigenvalues grow with the
truncation size by Cauchy interlacing, approaching the operator's
singular values from below.  Every rule here integrates the moments
exactly.  On a cusp profile the moments are sums over the profile edges
(Green's theorem, see _edge_table); the unit-disk calibration sums its
polar rule directly.  Either table is formed in both triangles; the one
where the conjugate power j is the larger index is kept and mirrored,
and the other one's disagreement is a checked residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectra
from .errors import NumericIntegrityError, ValidationError
from .geometry import CuspProfile
from .quad import _disk_rule, gauss_nodes

K_CAP = 400
PSD_RTOL = 1e-12
TRIANGLE_RTOL = 1e-10


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


def _power_sums(z, c, K: int):
    """S_jk = sum_l c_l conj(z_l)^j z_l^k for j, k < K: one complex product
    of the power table z^k, built by the recurrence z^(k+1) = z^k z."""
    P = np.empty((K, z.size), dtype=complex)
    P[0] = 1.0
    np.cumprod(np.broadcast_to(z, (K - 1, z.size)), axis=0, out=P[1:])
    return (P.conj() * c) @ P.T


def _disk_table(K: int):
    """Moments of the unit disk from its polar rule, and the rule's order.

    Radial degree K-1 needs order >= K/2, and 4m angular points alias only
    differences >= 4m > K-1.  The folded rule holds one node of each
    conjugate pair, so the real part of its sum is the full sum.  One
    radial ring at a time keeps the power table at K x (2 order + 1).
    """
    order = (K + 1) // 2
    pts, wts = _disk_rule(order, half=True)
    rings = zip(pts.reshape(order, -1), wts.reshape(order, -1))
    return sum(_power_sums(z, w, K) for z, w in rings).real, order


def _edge_table(profile: CuspProfile, K: int):
    """mu_hat_jk for j, k < K from the profile edges, in both triangles.

    Green's theorem gives int z^k conj(z)^j dA/pi = (1/(2 pi i (j+1)))
    times the contour integral of z^k conj(z)^(j+1) dz.  The upper edges
    P(s) = P0 + s (P1 - P0), P = (1 - t, theta), run counterclockwise as t
    grows; on each the integrand has degree j + k + 1 <= 2K - 1 in s, so
    the order-K Gauss rule is exact, and the upper edges give T_jk =
    sum_l c_l conj(z_l)^j z_l^k with c_l = w_l (P1 - P0) conj(z_l).  The
    mirrored lower edges, run the other way, add -conj(T), so both halves
    give 2i Im T.  The closing edge z = iy, y from eps_1 down to -eps_1,
    gives -(-1)^((k-j-1)/2) eps_1^(j+k+2) / (pi (j+1)(j+k+2)) for odd
    j + k and 0 for even j + k.  Edge points are rounded once from their
    own t, as in powers._boundary_moment.
    """
    t, th = profile.knots, profile.thetas
    t0, t1, th0, th1 = t[:-1], t[1:], th[:-1], th[1:]
    rule = gauss_nodes(K)
    s, ws = 0.5 * (rule.nodes + 1.0), 0.5 * rule.weights
    z = (1.0 - (t0[:, None] + (t1 - t0)[:, None] * s)
         + 1j * (th0[:, None] + (th1 - th0)[:, None] * s)).ravel()
    dz = (t0 - t1) + 1j * (th1 - th0)
    T = _power_sums(z, (dz[:, None] * ws).ravel() * z.conj(), K)
    j, k = np.arange(K)[:, None], np.arange(K)[None, :]
    sign = 1.0 - 2.0 * ((k - j - 1) // 2 % 2)
    close = np.where((j + k) % 2 == 1, -sign * th[-1] ** (j + k + 2.0)
                     / ((j + 1.0) * (j + k + 2.0)), 0.0)
    return (T.imag / (j + 1.0) + close) / math.pi


def moment_matrix(region, K: int) -> MomentMatrix:
    """Moment matrix of the region's counting measure, truncation K.

    ``region`` is a cusp profile, or None for the unit disk itself, where
    monomial orthogonality makes the matrix the identity (calibration).

    The table's lower triangle (conjugate power j >= k) is kept; on the
    cusp it is the more accurate one (the upper reaches 2.7e-12 relative
    at (0, 127) for K = 128, the lower stays within 1.8e-13 of 40-digit
    values).  The upper triangle must agree to TRIANGLE_RTOL sqrt(mu_jj
    mu_kk) entry by entry, which bounds the Frobenius norm of the
    disagreement, and so its effect on any eigenvalue, by TRIANGLE_RTOL
    times the trace.  A boundary sum, unlike a weighted sum of squares, is
    not PSD by construction, so the PSD_RTOL guard on the smallest
    eigenvalue is a live check.  Either failure raises
    NumericIntegrityError.
    """
    if not (1 <= K <= K_CAP):
        raise ValidationError(f"K must lie in 1..{K_CAP}")
    if region is None:
        table, order = _disk_table(K)
    elif isinstance(region, CuspProfile):
        table, order = _edge_table(region, K), K
    else:
        raise ValidationError("region must be a cusp profile or None (unit disk)")
    moments = np.tril(table) + np.tril(table, -1).T
    d = np.sqrt(np.abs(np.diag(moments)))
    residual = float(np.max(np.abs(table - table.T) / (d[:, None] * d[None, :])))
    if not residual <= TRIANGLE_RTOL:
        raise NumericIntegrityError(
            f"moment table triangles disagree by {residual:.3e} of"
            f" sqrt(mu_jj mu_kk), above {TRIANGLE_RTOL:.0e}")
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
