"""Independent checks of workload outputs.

Each oracle recomputes what an operation printed by a route that shares
no code with the package, at the package's own tolerances, and returns a
list of problems (empty when the output is right):

- Gram entries against the closed form r_i r_j / s_ij^2 (1e-8 relative)
  and lambda_min against LAPACK;
- Galerkin spectra (cyclic Jacobi in the package) against LAPACK
  ``eigvalsh`` of a moment matrix assembled here, above the noise floor;
- cusp region moments against an exact y-integral times a Gauss rule in
  t that is exact for the polynomial degree (1e-10);
- half-window measures against their closed form (1e-12), and the
  seq-demo table against the regularization recursions.

Certificates are checked line by line: an op expected to PASS must have
no FAIL line, and an op that fails by design must fail exactly the
expected check.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from inputs import CAP, EPS_TERMS, GALERKIN_KS, CuspInstance

GRAM_RTOL = 1e-8
MOMENT_RTOL = 1e-10
WINDOW_RTOL = 1e-12
NOISE = 1e-16                 # floor of eigenvalues, relative to ||M||
SPECTRUM_RTOL = 1e-8
DESIGNED_FAILS = {"eksy-windows-const": {"index_threshold_exceeded"}}


def _rows(text: str):
    return [[float(v) for v in row] for row in list(csv.reader(io.StringIO(text)))[1:]]


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def clamp_monotone(raw):
    out, suffix = [], 0.0
    for x in reversed(raw):
        suffix = max(suffix, x)
        out.append(min(CAP, suffix))
    return out[::-1]


def slow_decay(seq, rho=0.5):
    out = [seq[0]]
    for x in seq[1:]:
        out.append(max(rho * out[-1], x))
    return out


def eps_values(inst: CuspInstance, n: int) -> list[float]:
    terms = inst.eps_terms(n)
    return terms if inst.raw_eps is None else slow_decay(clamp_monotone(terms))


def gauss_legendre(n: int):
    """Golub-Welsch nodes and weights on [-1, 1] (LAPACK eigh of the
    Jacobi matrix; the package uses numpy's leggauss instead)."""
    k = np.arange(1, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return x, 2.0 * v[0] ** 2


def _knots(inst: CuspInstance):
    eps = np.array(eps_values(inst, EPS_TERMS))
    pows = inst.delta ** np.arange(1, EPS_TERMS + 1)
    knots = np.concatenate(([0.0], pows[::-1], [1.0]))
    thetas = np.concatenate(([0.0], (eps * pows)[::-1], [eps[0]]))
    return knots, thetas


def _segments(inst: CuspInstance, n: int):
    """Per profile piece: t nodes, weights, and theta(t) (linear)."""
    x, w = gauss_legendre(n)
    knots, thetas = _knots(inst)
    for a, b, ta, tb in zip(knots[:-1], knots[1:], thetas[:-1], thetas[1:]):
        t = a + 0.5 * (b - a) * (x + 1.0)
        yield t, 0.5 * (b - a) * w, ta + (tb - ta) * (t - a) / (b - a)


# ---------------------------------------------------------------------------
# certificates


def check_certificate(name: str, text: str, expect: str) -> list[str]:
    lines = text.splitlines()
    failed = {ln.split()[1].rstrip(":") for ln in lines if ln.startswith("FAIL ")}
    want = DESIGNED_FAILS.get(name, set()) if expect == "FAIL" else set()
    if failed != want:
        return [f"{name}: failing checks {sorted(failed)}, expected {sorted(want)}"]
    return []


# ---------------------------------------------------------------------------
# cusp side


def check_gram(snap: dict, inst: CuspInstance, n: int) -> list[str]:
    eps = np.array(eps_values(inst, n))
    pows = inst.delta ** np.arange(1, n + 1)
    r = eps * pows
    lo, hi = np.minimum.outer(pows, pows), np.maximum.outer(pows, pows)
    s = 2.0 * lo + (1.0 - 2.0 * lo) * 2.0 * hi       # 1 - c_i c_j
    closed = np.outer(r, r) / s ** 2
    got = np.zeros((n, n))
    for i, j, m in _rows(snap["gram.csv"]):
        got[int(i) - 1, int(j) - 1] = m
    errs = []
    worst = float(np.max(np.abs(got - closed) / closed))
    if not worst <= GRAM_RTOL:
        errs.append(f"gram entries off the closed form by {worst:.3e}")
    lam = float(np.linalg.eigvalsh(closed)[0])
    info = [ln for ln in snap["certificates.txt"].splitlines()
            if "lambda_min=" in ln]
    printed = float(info[0].split("lambda_min=")[1].split()[0]) if info else math.nan
    if not _rel(printed, lam) <= 1e-6:           # printed to 7 digits
        errs.append(f"lambda_min {printed:.6e} vs LAPACK {lam:.6e}")
    return errs


def moment_matrix(inst: CuspInstance, K: int) -> np.ndarray:
    """sqrt((j+1)(k+1)) int w^k conj(w)^j dA over the cusp, exact tensor
    Gauss rule of K points per direction on each profile piece."""
    u, wu = gauss_legendre(K)
    H = np.zeros((K, K), dtype=complex)
    for t, wt, th in _segments(inst, K):
        pts = ((1.0 - t)[:, None] + 1j * th[:, None] * u[None, :]).ravel()
        wts = ((wt * th / math.pi)[:, None] * wu[None, :]).ravel()
        for lo in range(0, pts.size, 8192):
            V = np.vander(pts[lo:lo + 8192], K, increasing=True)
            H += (V.conj() * wts[lo:lo + 8192, None]).T @ V
    root = np.sqrt(np.arange(1, K + 1))
    return root[:, None] * H.real * root[None, :]


def check_galerkin(snap: dict, inst: CuspInstance, M: np.ndarray) -> list[str]:
    eps = eps_values(inst, EPS_TERMS)
    floor = NOISE * np.linalg.norm(M, 2)
    spectra = {K: np.linalg.eigvalsh(M[:K, :K])[::-1]
               for K in (int(k) for k in GALERKIN_KS.split(","))}
    errs, seen = [], 0
    for n, K, lam, fl in _rows(snap["galerkin.csv"]):
        n, K = int(n), int(K)
        ref = spectra[K][n - 1]
        seen += 1
        if _rel(fl, eps[n - 1] / 8.0) > 1e-15:
            errs.append(f"floor n={n} is {fl}, expected eps_n/8")
        if ref > floor and _rel(lam, ref) > SPECTRUM_RTOL:
            errs.append(f"lambda_{n} at K={K}: {lam:.12e} vs LAPACK {ref:.12e}")
    if seen != EPS_TERMS * len(spectra):
        errs.append(f"galerkin.csv has {seen} rows")
    return errs


def region_moments(inst: CuspInstance, qmax: int) -> np.ndarray:
    """int |w|^{2q} dA over the cusp for q = 0..qmax.

    The y-integral is closed: (1/pi) int_{-th}^{th} (x^2 + y^2)^q dy =
    (2/pi) sum_k C(q, k) x^{2(q-k)} th^{2k+1} / (2k + 1), all terms
    positive.  In t it is a polynomial of degree 2q + 1 on each profile
    piece, integrated exactly by a (qmax + 1)-point Gauss rule.
    """
    out = np.zeros(qmax + 1)
    for t, wt, th in _segments(inst, qmax + 1):
        x2, th2 = (1.0 - t) ** 2, th * th
        for q in range(qmax + 1):
            k = np.arange(q + 1)
            binom = np.array([math.comb(q, int(i)) for i in k], dtype=float)
            terms = (binom[:, None] * x2[None, :] ** (q - k)[:, None]
                     * th2[None, :] ** k[:, None] * th[None, :]
                     / (2.0 * k + 1.0)[:, None])
            out[q] += 2.0 / math.pi * float(terms.sum(axis=0) @ wt)
    return out


def check_jensen(values: dict, moments: np.ndarray) -> list[str]:
    """values: p -> (lower, actual) from powers.jensen_lower."""
    errs = []
    m0, m2 = moments[0], moments[1]
    for p, (lower, actual) in values.items():
        want = p * p * moments[p - 1]
        want_lower = p * p * m0 * (m2 / m0) ** (p - 1)
        if _rel(actual, want) > MOMENT_RTOL:
            errs.append(f"p={p}: moment route {actual!r} vs exact {want!r}")
        if _rel(lower, want_lower) > MOMENT_RTOL:
            errs.append(f"p={p}: Jensen bound {lower!r} vs exact {want_lower!r}")
        if lower > actual * (1.0 + MOMENT_RTOL):
            errs.append(f"p={p}: Jensen bound above the value")
    return errs


# ---------------------------------------------------------------------------
# staircase side


def check_windows(snap: dict, const: int | None) -> list[str]:
    errs = []
    for N, mu_half, _ in _rows(snap["windows.csv"]):
        N = int(N)
        M_N = const if const is not None else N.bit_length()
        closed = min(N, M_N * M_N) * 4.0 ** (-2 * N) * (1.0 - 0.75 * 2.0 ** (-2 * N))
        if _rel(mu_half, closed) > WINDOW_RTOL:
            errs.append(f"mu_half N={N}: {mu_half!r} vs closed form {closed!r}")
    return errs


def check_seq(snap: dict, raw: list[float], rho: float) -> list[str]:
    clamped = clamp_monotone(raw)
    slowed = slow_decay(clamped, rho)
    want = [[i + 1, r, c, s] for i, (r, c, s) in enumerate(zip(raw, clamped, slowed))]
    got = _rows(snap["seq.csv"])
    if got != want:
        return [f"seq.csv differs from the recursions: {got} vs {want}"]
    return []
