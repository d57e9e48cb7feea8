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
(b, k, 2, n) view rotates them all: rotate the rows, transpose, rotate
the rows again.  In n steps, one sweep, every pair of indices meets once
(odd-even transposition order); an index left without a partner at an
end sits the step out.  The b matrices of a stack (b, n, n) run the same
steps together, so independent solves share one run; a matrix is a
stack of one.  A solve plans the step of each parity once (_plan): a
closure over the views and buffers it needs, so that a step is
arithmetic only: one gather of the pairs' entries, the rotations, two
batched products and the diagonal update.  Matrices are plain numpy
arrays; validation happens at operation entry.
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


def _symmetric_stack(A):
    """A as a C-ordered float stack (b, n, n) and the largest |a_ij| of
    each matrix, checked square, finite and symmetric."""
    A = _as_real(A)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValidationError("matrix must be square")
    S = np.ascontiguousarray(A.reshape(-1, *A.shape[-2:]))
    if not np.isfinite(S).all():
        raise ValidationError("matrix entries must be finite")
    amax = np.abs(S).max(axis=(1, 2))
    asym = np.abs(S - S.transpose(0, 2, 1)).max(axis=(1, 2))
    if (asym > 1e-12 * np.maximum(amax, 1e-300)).any():
        raise ValidationError("matrix is not symmetric")
    return S, amax


# 0.5, 1 and 0 as 0-d arrays: numpy converts a Python float operand on
# every call, which costs more than the arithmetic on a step's (b, k) pairs
_HALF, _ONE, _ZERO = np.array(0.5), np.array(1.0), np.array(0.0)


def _rotations(app, aqq, apq):
    """Per pair, the Jacobi rotation (t = tan, c = cos, s = sin) that
    annihilates apq; t = 0 (no rotation) where apq == 0.  The divisions
    by apq == 0 and the overflows of theta are masked here, so ``eigh``
    runs its sweeps with those floating-point warnings off.

    t = sign(theta) / (|theta| + hypot(1, theta)) is evaluated with both
    terms of the denominator halved, which is exact and keeps it finite
    up to |theta| = max float; from |theta| = 2^53 on the denominator is
    2 |theta|, so t equals 0.5 / theta there."""
    theta = (aqq - app) * _HALF / apq
    at = abs(theta)
    t = np.copysign(_HALF / (np.hypot(_ONE, at) * _HALF + at * _HALF), theta)
    t[theta == _ZERO] = _ONE
    t[apq == _ZERO] = _ZERO
    c = _ONE / np.hypot(_ONE, t)
    return t, c, t * c


def _plan(S, R, o: int):
    """The step that rotates the pairs (o, o+1), (o+2, o+3), ... of the
    stack S (b, n, n) in place, each pair trading places, as a closure
    over views and buffers built once per solve (every array shares
    memory with S, its scratch R, or the buffers the step reuses); None
    where there is no pair.  A half step multiplies the (b, k, 2, n) rows
    of src by G into dst and copies the idle head or tail row of src there
    unchanged; the first runs S into R^T, so that the second reads
    contiguous rows when it runs R back into S."""
    b, n = S.shape[:2]
    k = (n - o) // 2
    if k == 0:
        return None
    diag, upper, lower = (S.reshape(b, -1)[:, i::n + 1] for i in (0, 1, n))
    rows, p, q = (slice(o, o + 2 * k), slice(o, o + 2 * k, 2),
                  slice(o + 1, o + 2 * k, 2))
    # the flat position of a_pp per matrix and pair; a_qq and a_pq lie
    # n + 1 and 1 places further on
    pos = (np.arange(0, b * n * n, n * n)[:, None]
           + np.arange(o * (n + 1), (o + 2 * k) * (n + 1), 2 * (n + 1)))
    flat, index = S.reshape(-1), pos + np.array([0, n + 1, 1])[:, None, None]
    gathered, G = np.empty((3, b, k)), np.empty((b, k, 2, 2))
    app, aqq, apq = gathered
    g00, g01, g10, g11 = G.reshape(b, k, 4).transpose(2, 0, 1)
    passes = tuple(
        (src[:, rows].reshape(b, k, 2, n), dst[:, rows].reshape(b, k, 2, n),
         tuple((src[:, idle], dst[:, idle])
               for idle in (slice(0, o), slice(o + 2 * k, n))
               if idle.start < idle.stop))
        for src, dst in ((S, R.transpose(0, 2, 1)), (R, S)))
    dp, dq, off = diag[:, p], diag[:, q], (upper[:, p], lower[:, p])

    def step():
        flat.take(index, out=gathered)
        t, c, s = _rotations(app, aqq, apq)
        # rows (p, q) become (s p + c q, c p - s q): rotated, then swapped
        g00[...], g01[...], g10[...], g11[...] = s, c, c, -s
        for src, dst, idle in passes:
            np.matmul(G, src, out=dst)
            for row, to in idle:
                to[...] = row
        tapq = t * apq
        np.add(aqq, tapq, out=dp)
        np.subtract(app, tapq, out=dq)
        for entry in off:
            entry[...] = 0.0
    return step


def _frobenius(A, unit) -> np.ndarray:
    """||A||_F of each matrix of the stack A, computed on A / unit, so that
    squaring the entries neither underflows (entries below about 1e-154)
    nor overflows (above 1e154); ``unit`` holds a power of two near max
    |a_ij| per matrix, which keeps the scaling exact."""
    X = (A / unit[:, None, None]).reshape(len(A), -1)
    return unit * np.sqrt([x @ x for x in X])


def eigh(A) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, sorted non-increasing; of a
    stack (b, n, n), one such row per matrix, all from one run.

    Round-robin Jacobi sweeps until, in every matrix, the off-diagonal
    Frobenius norm is at most 1e-13 times the Frobenius norm of the input
    and every off-diagonal entry at most 1e-13 sqrt(|a_pp a_qq|).  Both
    norms are taken on each matrix scaled by a power of two near its
    largest entry.  A rotation with a_pq = 0 is an exact swap, so zero
    rows and columns that pad a smaller matrix into a stack stay exactly
    zero, and come out as exact zero eigenvalues.
    """
    S, amax = _symmetric_stack(A)
    b, n = S.shape[:2]
    unit = np.array([math.ldexp(1.0, math.frexp(a)[1] - 1)    # unit <= a
                     for a in amax.tolist()])                  # < 2 unit
    frob = _frobenius(S, unit)
    diag = S.reshape(b, -1)[:, ::n + 1]
    trace = diag.sum(axis=1)
    threshold = OFF_RTOL * frob
    R = np.empty_like(S)
    steps = [_plan(S, R, o) for o in (0, 1)]
    o = 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAX_SWEEPS):
            off = S.copy()
            off.reshape(b, -1)[:, ::n + 1] = 0.0
            root = np.sqrt(np.abs(diag))
            if (np.abs(off) <= OFF_RTOL * (root[:, :, None]
                                           * root[:, None, :])).all() and (
                    _frobenius(off, unit) <= threshold).all():
                break
            for _ in range(n):
                if steps[o] is not None:
                    steps[o]()
                o ^= 1
        else:
            raise NumericIntegrityError("Jacobi iteration failed to converge")
    if (np.abs(diag.sum(axis=1) - trace)
            > 1e-12 * np.maximum(np.abs(trace), frob)).any():
        raise NumericIntegrityError("eigenvalue sum drifted from the trace")
    vals = np.sort(diag, axis=1)[:, ::-1]
    return vals[0] if np.ndim(A) == 2 else vals


def schur_bound(A) -> float:
    """sqrt(max row abs sum * max column abs sum) >= spectral norm."""
    A = np.abs(np.asarray(A, dtype=float))
    if A.ndim != 2 or A.size == 0:
        raise ValidationError("matrix must be 2-dimensional and non-empty")
    alpha = float(A.sum(axis=1).max())
    beta = float(A.sum(axis=0).max())
    return float(np.sqrt(alpha * beta))
