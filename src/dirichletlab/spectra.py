"""Dense symmetric eigenvalues and the Schur bound, on which the Gram
certificate builds its floors; the singular values that criterion 2 holds
that bound against are a test oracle (``tests/reference_routes.py``).

The eigensolver is a parallel (round-robin) Jacobi iteration.  The Gram
and moment matrices here are graded (diagonals spanning many orders of
magnitude), where Jacobi keeps small eigenvalues to high relative
accuracy while a tridiagonalization-based solver would only be
absolutely accurate (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13,
1992); LAPACK appears only in the tests, as an oracle.  That accuracy
needs their relative stopping test |a_pq| <= tol sqrt(|a_pp a_qq|) as
well as the absolute one on the off-diagonal norm.

A step rotates the disjoint pairs (o, o+1), (o+2, o+3), ... at once, o
alternating between 1 and 0, and each rotated pair trades places, so a
pair always sits on adjacent rows and one batched 2x2 product on a
(k, 2, n) view rotates them all: rotate the rows, transpose, rotate the
rows again.  In n steps, one sweep, every pair of indices meets once
(odd-even transposition order); an index left without a partner at an
end sits the step out.  Matrices are plain numpy arrays; validation
happens at operation entry.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericIntegrityError, ValidationError

# off-diagonal target, relative to ||A||_F in norm and to sqrt(|a_pp a_qq|)
# entry by entry
OFF_RTOL = 1e-13
MAX_SWEEPS = 60


def _as_real(A) -> np.ndarray:
    """A as a float array; complex input is rejected whatever its imaginary
    part, since no construction here produces it."""
    A = np.asarray(A)
    if np.iscomplexobj(A):
        raise ValidationError("only real matrices are supported")
    return np.array(A, dtype=float)


def _as_real_symmetric(A) -> np.ndarray:
    A = _as_real(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError("matrix must be square")
    if not np.all(np.isfinite(A)):
        raise ValidationError("matrix entries must be finite")
    scale = np.max(np.abs(A)) if A.size else 0.0
    if A.size and np.max(np.abs(A - A.T)) > 1e-12 * max(scale, 1e-300):
        raise ValidationError("matrix is not symmetric")
    return A


def _rotations(app, aqq, apq):
    """Per pair, the Jacobi rotation (t = tan, c = cos, s = sin) that
    annihilates apq; t = 0 (no rotation) where apq == 0.  The divisions
    by apq == 0 and the overflows of theta are masked here, so ``eigh``
    runs its sweeps with those floating-point warnings off."""
    theta = 0.5 * (aqq - app) / apq
    at = np.abs(theta)
    t = np.where(at > 1e150, 0.5 / theta,
                 np.sign(theta) / (at + np.hypot(1.0, theta)))
    t[theta == 0.0] = 1.0
    t[apq == 0.0] = 0.0
    c = 1.0 / np.hypot(1.0, t)
    return t, c, t * c


def _step(S, R, o: int):
    """Rotate the pairs (o, o+1), (o+2, o+3), ... of S in place, each
    pair trading places; R is scratch space of S's shape."""
    n = S.shape[0]
    k = (n - o) // 2
    if k == 0:
        return
    flat = S.reshape(-1)
    diag, upper, lower = flat[::n + 1], flat[1::n + 1], flat[n::n + 1]
    rows, p, q = (slice(o, o + 2 * k), slice(o, o + 2 * k, 2),
                  slice(o + 1, o + 2 * k, 2))
    app, aqq, apq = diag[p].copy(), diag[q].copy(), upper[p].copy()
    t, c, s = _rotations(app, aqq, apq)
    # rows (p, q) become (s p + c q, c p - s q): rotated, then swapped
    G = np.empty((k, 2, 2))
    G[:, 0, 0], G[:, 0, 1], G[:, 1, 0], G[:, 1, 1] = s, c, c, -s
    for src, dst in ((S, R), (R.T, S)):
        np.matmul(G, src[rows].reshape(k, 2, n),
                  out=dst[rows].reshape(k, 2, n))
        dst[:o] = src[:o]
        dst[o + 2 * k:] = src[o + 2 * k:]
    diag[p] = aqq + t * apq
    diag[q] = app - t * apq
    upper[p] = 0.0
    lower[p] = 0.0


def _frobenius(A, unit: float) -> float:
    """||A||_F computed on A / unit, so that squaring the entries neither
    underflows (entries below about 1e-154) nor overflows (above 1e154);
    ``unit`` is a power of two near max |a_ij|, which keeps the scaling exact."""
    return unit * float(np.linalg.norm(A / unit))


def eigh(A) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, sorted non-increasing.

    Round-robin Jacobi sweeps until the off-diagonal Frobenius norm drops
    below 1e-13 times the Frobenius norm of the input and every
    off-diagonal entry below 1e-13 sqrt(|a_pp a_qq|).  Both norms are
    taken on the matrix scaled by a power of two near its largest entry.
    """
    S = _as_real_symmetric(A).copy()    # C order: views below write to it
    n = S.shape[0]
    if n == 1:
        return S[0, :1].copy()
    amax = float(np.max(np.abs(S)))
    if amax == 0.0:
        return np.zeros(n)
    unit = math.ldexp(1.0, math.frexp(amax)[1] - 1)   # unit <= amax < 2 unit
    frob = _frobenius(S, unit)
    trace = float(np.trace(S))
    threshold = OFF_RTOL * frob
    diag = S.reshape(-1)[::n + 1]
    R = np.empty_like(S)
    o = 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAX_SWEEPS):
            off = S - np.diag(diag)
            root = np.sqrt(np.abs(diag))
            if (_frobenius(off, unit) <= threshold and np.all(
                    np.abs(off) <= OFF_RTOL * (root[:, None] * root[None, :]))):
                break
            for _ in range(n):
                _step(S, R, o)
                o ^= 1
        else:
            raise NumericIntegrityError("Jacobi iteration failed to converge")
    if abs(diag.sum() - trace) > 1e-12 * max(abs(trace), frob):
        raise NumericIntegrityError("eigenvalue sum drifted from the trace")
    return np.sort(diag)[::-1]


def schur_bound(A) -> float:
    """sqrt(max row abs sum * max column abs sum) >= spectral norm."""
    A = np.abs(np.asarray(A, dtype=float))
    if A.ndim != 2 or A.size == 0:
        raise ValidationError("matrix must be 2-dimensional and non-empty")
    alpha = float(A.sum(axis=1).max())
    beta = float(A.sum(axis=0).max())
    return float(np.sqrt(alpha * beta))
