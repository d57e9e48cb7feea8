"""Finite compressions of the Toeplitz operator of the counting measure.

In the normalized monomial basis e_k = sqrt(k+1) z^k of the Bergman
space, the operator has matrix t_jk = sqrt((j+1)(k+1)) mu_hat_jk with
mu_hat_jk = int w^k conj(w)^j dmu.  Truncations are Gram matrices of the
e_k in L^2(mu), hence PSD, and their eigenvalues grow with the
truncation size by Cauchy interlacing, approaching the operator's
singular values from below.  Every moment is a sum over the region's
boundary (Green's theorem, see _boundary_table) by an exact rule: Gauss
on the cusp profile's edges, the trapezoid on the unit circle for the
disk calibration.  The table is formed in both triangles; the one where
the conjugate power j is the larger index is kept and mirrored, and the
other one's disagreement is a checked residual.  Eigenvalues are Ritz
values on the numerical range, found by a pivoted Cholesky (_ritz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectra
from .errors import NumericIntegrityError, ValidationError
from .geometry import CuspProfile

K_CAP = 400
PSD_RTOL = 1e-12
TRIANGLE_RTOL = 1e-10


@dataclass(frozen=True)
class MomentMatrix:
    """The moment matrix of truncation max(Ks) and the Ritz values of
    every truncation K in Ks.  All truncations are principal submatrices
    of the one assembled matrix, so lambda_n is non-decreasing in K
    exactly, not merely up to re-quadrature noise."""

    Ks: tuple[int, ...]
    entries: np.ndarray             # sqrt((j+1)(k+1)) mu_hat_jk, symmetric
    moments: np.ndarray             # mu_hat_jk itself
    spectrum_by_K: dict             # the r_K Ritz values, non-increasing
    trace_by_K: dict                # fsum trace of each truncation

    def eigenvalue(self, n: int, K: int) -> float:
        """lambda_n of truncation K; 0.0 past its numerical rank, where
        every eigenvalue lies within +-||S||_F, under the noise floor."""
        spectrum = self.spectrum_by_K[K]
        return float(spectrum[n - 1]) if n <= spectrum.size else 0.0

    def noise_floor(self, K: int) -> float:
        """TRIANGLE_RTOL times the fsum trace of truncation K in Ks: the
        accuracy that moment_matrix's triangle check proves for its
        eigenvalues."""
        return TRIANGLE_RTOL * self.trace_by_K[K]

    def resolved(self, K: int) -> int:
        """The number of Ritz values of truncation K at or above its noise
        floor, which are the leading ones, as the spectrum is
        non-increasing: lambda_n is resolved exactly when n <= resolved(K).
        This is the one place where an eigenvalue meets the floor."""
        return int(np.count_nonzero(
            self.spectrum_by_K[K] >= self.noise_floor(K)))


def _boundary_table(z, c, K: int, close=0.0):
    """mu_hat_jk for j, k < K, in both triangles, from a rule on the upper
    half of a boundary that is symmetric about the real axis; z and c hold
    one row of nodes per piece of that half.

    Green's theorem gives int z^k conj(z)^j dA/pi = (1/(2 pi i (j+1)))
    times the contour integral of z^k conj(z)^(j+1) dz.  With nodes z_l
    on the upper half, run counterclockwise, and c_l = w_l (dz/ds)_l
    conj(z_l), the upper half gives T_jk = sum_l c_l conj(z_l)^j z_l^k
    (exact when the rule is exact for the integrand).  The mirrored lower
    half, run the other way, adds -conj(T), so both halves give 2i Im T.
    Only Im T is formed, piece by piece, in two K x m work arrays: the
    conjugate power table C = conj(z)^k of the piece's m nodes, built by
    halves (C[h] = C[h-1] conj(z), then C[h+1:2h] = C[1:h] C[h]), which
    forms each power in k - 1 multiplications as the chain z^(k+1) = z^k z
    does, so its error bound is the chain's (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 3), and A = C (-i c).
    Im(c conj(z)^j z^k) = Re(-i c conj(z)^j conj(conj(z)^k)) is the
    interleaved dot of A[j] with C[k] on their float views, so Im T is one
    real GEMM per piece, [Re A | Im A] [Re C | Im C]^T.  ``close`` is
    pi (j + 1) times the moment of any part of the boundary outside that
    pair (the cusp's closing edge).
    """
    m = z.shape[1]
    C, A = np.empty((2, K, m), dtype=complex)
    T, piece = np.zeros((K, K)), np.empty((K, K))
    C[0] = 1.0
    for zp, cp in zip(z, c):
        w, h = zp.conj(), 1
        while h < K:
            np.multiply(C[h - 1], w, out=C[h])
            top = min(2 * h, K)
            np.multiply(C[1:top - h], C[h], out=C[h + 1:top])
            h *= 2
        np.multiply(C, -1j * cp, out=A)
        T += np.matmul(A.view(float), C.view(float).T, out=piece)
    T /= np.arange(1.0, K + 1)[:, None]
    T += close
    T /= math.pi
    return T


def _disk_table(K: int):
    """Moments of the unit disk from the trapezoid rule on the upper unit
    semicircle: K intervals, nodes z = e^(i pi l / K), end weights halved,
    and dz/dphi = i z.  With its mirror this is the 2K-point trapezoid on
    the circle, where the integrand i e^(i (k - j) phi) has |k - j| <= K - 1
    < 2K, so the rule is exact (Trefethen & Weideman, SIAM Review 56,
    2014)."""
    z = np.exp(1j * math.pi * np.arange(K + 1) / K)
    w = np.full(K + 1, math.pi / K)
    w[[0, -1]] *= 0.5
    return _boundary_table(z[None], (w * (1j * z) * z.conj())[None], K)


def _edge_table(profile: CuspProfile, K: int):
    """mu_hat_jk for j, k < K from the profile edges, in both triangles.

    The upper edges P(s) = P0 + s (P1 - P0), P = (1 - t, theta), run
    counterclockwise as t grows, and dz/ds = P1 - P0; on each the
    integrand of _boundary_table has degree j + k + 1 <= 2K - 1 in s, so
    the order-K Gauss rule is exact.  The closing edge z = iy, y from
    eps_1 down to -eps_1, gives -(-1)^((k-j-1)/2) eps_1^(j+k+2) /
    (pi (j+1)(j+k+2)) for odd j + k and 0 for even j + k.  Along the
    anti-diagonals n = j + k that is s_n / ((-1)^j (j+1)(n+2)), s_n =
    -(-1)^((n-1)/2) eps_1^(n+2) for odd n and 0 for even n: the vector s
    and the n + 2 of length 2K - 1 expand into Hankel views, and one
    division forms the term; the sign flips and the integer product
    (j+1)(n+2) are exact, so it equals the entrywise formula exactly (a
    zero may carry a minus sign).
    """
    x, y, ws = profile.edge_points(K)
    z = x + 1j * y
    dz = -profile.pieces.dt + 1j * profile.pieces.dtheta
    hankel = np.lib.stride_tricks.sliding_window_view
    n2 = np.arange(2.0, 2 * K + 1)                  # n + 2, n = 0..2K-2
    s = profile.thetas[-1] ** n2 * np.resize([0.0, -1.0, 0.0, 1.0], n2.size)
    j = np.arange(K)
    signed = (j + 1.0) * (1 - 2 * (j % 2))         # (-1)^j (j + 1)
    close = hankel(s, K) / (signed[:, None] * hankel(n2, K))
    return _boundary_table(z, dz[:, None] * ws * z.conj(), K, close)


def _ritz(entries, traces: dict) -> list:
    """Ritz values, non-increasing, on their numerical ranges, of the
    leading K x K truncations M of a moment matrix, one array per K in
    ``traces``, which maps K to the fsum trace of truncation K.

    Per truncation, a diagonal-pivoted Cholesky M = L L^T + S stops once
    no pivot left exceeds 2^-53 times the trace, at the numerical rank r
    (18, 20 and 23 at K = 32, 64 and 128 on the default profile; Higham
    1990).  Q spans L's columns: each column, as soon as it is made, is
    orthogonalized against the rows of Q so far by classical Gram-Schmidt
    run twice, which leaves it as orthogonal as modified Gram-Schmidt run
    twice (Giraud, Langou, Rozloznik & van den Eshof, Numer. Math. 101,
    2005), and normalized.  The eigenvalues of the r x r matrix Q^T M Q
    are lower bounds for the top r of M by interlacing, off by second
    order in ||S|| (Harbrecht, Peters & Schneider, Appl. Numer. Math. 62,
    2012); the other K - r lie within +-||S||_F.  One Jacobi run solves
    the Ritz matrices of all truncations, zero-padded to the largest r;
    each row drops its padding zeros.  A boundary sum is not PSD by
    construction, so the PSD guard is live: ||S||_F, and minus the
    smallest Ritz value, must stay within PSD_RTOL times the trace of
    their truncation."""
    blocks = []
    for K, trace in traces.items():
        M = entries[:K, :K]
        d = np.diag(M).copy()
        L, Q = np.zeros_like(M), np.zeros_like(M)   # row i: column i of each
        r, tol = 0, 2.0 ** -53 * trace
        while r < d.size:
            p = int(d.argmax())
            if not d[p] > tol:
                break
            l = L[r]
            l[:] = (M[p] - L[:r, p] @ L[:r]) / math.sqrt(d[p])
            d -= l ** 2
            d[p] = 0.0                  # its residual, 0 in exact arithmetic
            Qr = Q[:r]
            v = l - (Qr @ l) @ Qr
            v -= (Qr @ v) @ Qr
            Q[r] = v / math.sqrt(v @ v)
            r += 1
        residual = float(np.linalg.norm(M - L[:r].T @ L[:r]))
        if not residual <= PSD_RTOL * trace:
            raise NumericIntegrityError(
                "moment matrix lost positive semidefiniteness:"
                f" ||M - LL^T||_F = {residual:.3e}, trace {trace:.3e}")
        B = Q[:r] @ M @ Q[:r].T
        blocks.append((0.5 * (B + B.T), trace))
    stack = np.zeros((len(blocks),) + (max(len(B) for B, _ in blocks),) * 2)
    for S, (B, _) in zip(stack, blocks):
        S[:len(B), :len(B)] = B
    out = []
    for row, (B, trace) in zip(spectra.eigh(stack), blocks):
        ritz = np.delete(row, np.flatnonzero(row == 0.0)[:row.size - len(B)])
        if ritz[-1] < -PSD_RTOL * trace:
            raise NumericIntegrityError(
                "moment matrix lost positive semidefiniteness:"
                f" Ritz value {ritz[-1]:.3e}, trace {trace:.3e}")
        out.append(ritz)
    return out


def moment_matrix(region, Ks) -> MomentMatrix:
    """Moment matrix of the region's counting measure, truncation max(Ks),
    and the Ritz values of every truncation in Ks (one K, or several, in
    1..K_CAP), from one _ritz call.

    ``region`` is a cusp profile, or None for the unit disk itself, where
    monomial orthogonality makes the matrix the identity (calibration).

    The table's lower triangle (conjugate power j >= k) is kept; on the
    cusp it is the more accurate one (the upper reaches 2.7e-12 relative
    at (0, 127) for K = 128, the lower stays within 1.8e-13 of 40-digit
    values).  The upper triangle must agree to TRIANGLE_RTOL sqrt(mu_jj
    mu_kk) entry by entry, which bounds the Frobenius norm of the
    disagreement, and so its effect on any eigenvalue, by TRIANGLE_RTOL
    times the trace.  This check, and the PSD guard of _ritz, which gives
    each truncation's r Ritz values, raise NumericIntegrityError."""
    Ks = sorted({int(K) for K in np.ravel(Ks)})
    if not Ks or not 1 <= Ks[0] <= Ks[-1] <= K_CAP:
        raise ValidationError(f"truncation sizes must lie in 1..{K_CAP}")
    K = Ks[-1]
    if region is None:
        table = _disk_table(K)
    elif isinstance(region, CuspProfile):
        table = _edge_table(region, K)
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
    traces = {K: math.fsum(np.diag(entries)[:K]) for K in Ks}
    return MomentMatrix(Ks=tuple(Ks), entries=entries, moments=moments,
                        spectrum_by_K=dict(zip(Ks, _ritz(entries, traces))),
                        trace_by_K=traces)


def floor_crossings(M: MomentMatrix, floors) -> list:
    """Per index n: smallest K in M.Ks with lambda_n^(K) resolved and
    sqrt(lambda_n^(K)) at or above floors[n-1], or None.  Convergence is
    from below, so a missing crossing is a report, not a failure."""
    floors = np.asarray(floors, dtype=float)

    def crossed(n, K):
        return (n <= M.resolved(K)
                and math.sqrt(M.eigenvalue(n, K)) >= floors[n - 1])
    return [(n, next((K for K in M.Ks if crossed(n, K)), None))
            for n in range(1, len(floors) + 1)]
