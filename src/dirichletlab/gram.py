"""Gram matrix of the normalized disk test functions and its certificates.

The test functions f_j = (1/r_j) 1_{D(c_j, r_j)} are orthonormal in
L^2(mu) for mu = 1_Omega dA.  Their Gram matrix under the Bergman
pairing,

    m_ij = (1/(r_i r_j)) double integral over D_i x D_j of 1/(1 - w conj(z))^2,

has the closed form r_i r_j / s_ij^2: the kernel is holomorphic in one
slot and anti-holomorphic in the other, so both disk averages collapse
to its value at the centres.  ``closed_form_gram`` builds the matrix
from that form for any family; ``build_gram`` assembles it by tensor
disk quadrature in centered coordinates, on its own polar rule
(``_disk_rule``), and stays as the independent witness (acceptance
criterion 1), checked against its own assembly at twice the order.
``tec_report`` and ``bernstein_certificate`` return check lines: the
diagonal floors, the geometric off-diagonal decay, the Schur bound on
the scaled off-diagonal part, and the resulting smallest-eigenvalue
floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectra
from .errors import NumericIntegrityError, ValidationError
from .geometry import DiskFamily
from .quad import ORDER_CAP, _gl

MAX_N = 12              # witness size: n(n+1)/2 quadrature entries
DOUBLING_RTOL = 1e-8    # witness entries at orders m and 2m
IMAG_RTOL = 1e-12
_ANGLES = 16            # trapezoid points in angle at every order (_disk_rule)
_BLOCK_POINTS = 1 << 13  # kernel points per call, 128 KB per complex temporary;
                         # blocks of 1 << 16 and more page-faulted their
                         # temporaries back in on every call, up to 3x slower
_FLOOR_SQ = (1.0 - 1e-8) ** 2   # |den / delta^i|^2 floor, with rounding slack


@dataclass(frozen=True)
class GramMatrix:
    n: int
    entries: np.ndarray
    family: DiskFamily
    order: int | None               # None for the closed form
    doubling_residual: float | None
    nu_bound: np.ndarray = field(init=False, repr=False)
    nu: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # formed once with the matrix: the row-scaled off-diagonal part
        # nu_ij = m_ij / m_ii with a zero diagonal, and its decay bounds
        object.__setattr__(self, "nu_bound", nu_bound(self.family))
        with np.errstate(all="ignore"):     # m_ii = 0 is refused later
            nu = self.entries / self.diag[:, None]
        np.fill_diagonal(nu, 0.0)
        object.__setattr__(self, "nu", nu)

    @property
    def diag(self) -> np.ndarray:
        return np.diag(self.entries).copy()


def closed_form_gram(family: DiskFamily) -> GramMatrix:
    """Gram matrix from its closed form m_ij = r_i r_j / s_ij^2, O(n^2).

    With r_i = eps_i delta^i and s_ij = 2 delta^i (1 + (1 - 2 delta^i)
    delta^(j-i)) for i <= j, the upper triangle is filled from the ratio

        m_ij = eps_i eps_j delta^(j-i) / (4 (1 + (1 - 2 delta^i) delta^(j-i))^2)

    and mirrored.  It never forms r_i r_j or s_ij^2, which underflow long
    before m_ij does: at delta = 1/200 and dyadic eps the corner entry
    m_1n is about 9.5e-264 at n = 100, a normal float; beyond n = 117 it
    is subnormal.  A non-finite or non-positive entry raises
    ``NumericIntegrityError``.
    """
    n = family.n
    eps = np.array(family.eps.values[:n])
    pows = np.concatenate(([1.0], family.delta_pows))   # delta^0 .. delta^n
    iu, ju = np.triu_indices(n)
    d_ji = pows[ju - iu]                                 # delta^(j-i)
    with np.errstate(all="ignore"):         # the guard below reports it
        vals = (eps[iu] * eps[ju] * d_ji
                / (4.0 * (1.0 + (1.0 - 2.0 * pows[iu + 1]) * d_ji) ** 2))
    bad = ~(np.isfinite(vals) & (vals > 0.0))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericIntegrityError(
            f"closed-form Gram entry ({iu[k] + 1},{ju[k] + 1}) is {vals[k]!r}")
    entries = np.zeros((n, n))
    entries[iu, ju] = vals
    entries[ju, iu] = vals
    return GramMatrix(n=n, entries=entries, family=family, order=None,
                      doubling_residual=None)


# ---------------------------------------------------------------------------
# quadrature witness


def kernel_centered(i: int, j: int, xi, zeta, family: DiskFamily):
    """Bergman kernel 1/(1 - w conj(z))^2 at z = c_i + r_i xi, w = c_j + r_j zeta.

    xi and zeta broadcast.  1 - w conj(z) = A - conj(xi) B with A = s_ij -
    c_i r_j zeta, B = c_j r_i + r_i r_j zeta and s_ij = 2 delta^i +
    (1 - 2 delta^i) 2 delta^j; both are taken over delta^i, which keeps full
    relative precision where the direct form loses every digit, and the
    bound |1 - w conj(z)| >= delta^i is guarded.
    """
    if not (1 <= i <= j <= family.n):
        raise ValidationError(f"need 1 <= i <= j <= {family.n}")
    xi = np.asarray(xi, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    if np.any(np.abs(xi) > 1.0 + 1e-12) or np.any(np.abs(zeta) > 1.0 + 1e-12):
        raise ValidationError("kernel parameters must lie in the closed unit disk")
    inv = 1.0 / family.delta_pows[i - 1]
    ci, cj = family.centers[i - 1], family.centers[j - 1]
    ri, rj = family.radii[i - 1], family.radii[j - 1]
    a = (family.s(i, j) - ci * rj * zeta) * inv
    b = (cj * ri + ri * rj * zeta) * inv
    d = a - np.conj(xi) * b
    abs2 = d.real * d.real + d.imag * d.imag
    if not abs2.min(initial=np.inf) >= _FLOOR_SQ:
        raise NumericIntegrityError(
            f"kernel denominator below its floor delta^{i}; cancellation bug")
    return (np.conj(d) * (inv / abs2)) ** 2      # (delta^-i / d)^2


def _disk_rule(m: int):
    """Polar rule for the integral over the unit disk w.r.t. dA = dx dy / pi:
    Gauss-Legendre of order m in s = rho^2 times the trapezoid with
    _ANGLES = 16 points in angle; the weights sum to 1.

    With 1 - w conj(z) = A - B conj(xi) as in ``kernel_centered``, the
    kernel is A^-2 sum_n (n + 1) (B conj(xi) / A)^n, and on the disks
    (i <= j) |A| >= 2 delta^i and |B| <= r_i, so the ratio is at most
    eps_i / 2 <= 2^-9.  The T-point trapezoid in the angle of xi
    integrates conj(xi)^n exactly except at the non-zero multiples of T,
    where it returns rho^n for 0; it aliases about (T + 1) 2^(-9T) of the
    value.  In zeta the ratio is about eps_j delta^(j-i) / 2 <= 2^-9 as
    well.  T = 16 leaves about 2^-139, far below rounding, and by the mean
    value property the radial integrand is constant up to those same
    terms.  Aliasing would be the same at orders m and 2m, so order
    doubling cannot see it; the comparison with ``closed_form_gram``
    (acceptance criterion 1) is what would.
    """
    s, ws = _gl(m)
    ang = 2.0 * math.pi * np.arange(_ANGLES) / _ANGLES
    pts = np.sqrt(s)[:, None] * np.exp(1j * ang)[None, :]
    return pts.ravel(), np.repeat(ws / _ANGLES, _ANGLES)


def _assemble(family: DiskFamily, m: int) -> np.ndarray:
    """Gram entries at order m: per entry, w_zeta @ K @ w_xi summed over
    blocks of zeta points, each block one ``kernel_centered`` call of at
    most _BLOCK_POINTS kernel points."""
    n = family.n
    E = np.zeros((n, n))
    r = family.radii
    pts, wts = _disk_rule(m)
    bz = _BLOCK_POINTS // pts.size      # 1 at ORDER_CAP (8,192 points)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            acc = sum(wts[lo:lo + bz] @ kernel_centered(
                          i, j, pts, pts[lo:lo + bz, None], family) @ wts
                      for lo in range(0, pts.size, bz))
            if abs(acc.imag) > IMAG_RTOL * abs(acc.real):
                raise NumericIntegrityError(
                    f"Gram entry ({i},{j}) has imaginary residue "
                    f"{acc.imag:.3e} against {acc.real:.3e}")
            E[i - 1, j - 1] = E[j - 1, i - 1] = r[i - 1] * r[j - 1] * acc.real
    return E


def build_gram(family: DiskFamily, m: int = 32) -> GramMatrix:
    """Assemble the Gram matrix at quadrature order m in 1..ORDER_CAP // 2
    and once more at 2m: the two must agree to DOUBLING_RTOL in the largest
    relative difference, or ``NumericIntegrityError`` names both orders and
    the residual.  Positive semidefiniteness is checked against -1e-14 *
    trace."""
    if not (1 <= family.n <= MAX_N):
        raise ValidationError(f"family size must lie in 1..{MAX_N}")
    if not (1 <= m <= ORDER_CAP // 2):
        raise ValidationError(f"order must lie in 1..{ORDER_CAP // 2}")
    E, check = _assemble(family, m), _assemble(family, 2 * m)
    residual = float(np.max(np.abs(check - E)
                            / np.maximum(np.abs(check), 1e-300)))
    if not residual <= DOUBLING_RTOL:
        raise NumericIntegrityError(
            f"Gram entries at orders {m} and {2 * m} disagree: "
            f"residual {residual:.3e} above {DOUBLING_RTOL:g}")
    lam = spectra.eigh(E)
    if lam[-1] < -1e-14 * np.trace(E):
        raise NumericIntegrityError(
            f"Gram matrix lost positive semidefiniteness: {lam[-1]:.3e}")
    return GramMatrix(n=family.n, entries=E, family=family, order=m,
                      doubling_residual=residual)


# ---------------------------------------------------------------------------
# check lines: the entry inequalities, then the certificate


@dataclass(frozen=True)
class CheckResult:
    """One verified inequality: value (op) bound, with headroom and the
    source of the computed value."""

    name: str
    value: float
    bound: float
    op: str                 # "<=" or ">="
    margin: float
    passed: bool
    source: str


def _check(name, value, bound, op, source) -> CheckResult:
    margin = (bound - value) if op == "<=" else (value - bound)
    return CheckResult(name=name, value=float(value), bound=float(bound),
                       op=op, margin=float(margin), passed=bool(margin >= 0.0),
                       source=source)


def nu_bound(family: DiskFamily) -> np.ndarray:
    """Decay bounds for nu, n x n from the family's stored powers: 32
    delta^(j-i) above the diagonal, 32 (2 delta)^(i-j) = 32 delta^(i-j)
    2^(i-j) below it, and 0 on it."""
    k = np.subtract.outer(np.arange(family.n), np.arange(family.n))  # i - j
    by_gap = np.concatenate(([0.0], 32.0 * family.delta_pows))   # |i - j|
    return np.ldexp(by_gap[np.abs(k)], np.maximum(k, 0))


def tec_report(M: GramMatrix) -> tuple[CheckResult, ...]:
    """The Gram entry inequalities as check lines, each its smallest margin
    against 0.  diag_floor: m_ii >= eps_i^2/32; diag_window: |m_ii - eps'_i^2|
    <= 32 r_i^3/(1-c_i)^3; for n > 1 offdiag_decay: |m_ij| <= eps_i eps_j
    delta^(j-i), i < j; nu_decay: |nu_ij| <= M.nu_bound, i != j; nu_row_sums
    and nu_col_sums: the row and column sums of |nu| <= 1/2."""
    fam = M.family
    n = M.n
    eps = np.array(fam.eps.values[:n])
    d = M.diag
    # 32 r_i^3 / (1 - c_i)^3 with r_i = eps_i delta^i and 1 - c_i = 2 delta^i;
    # the powers cancel, and r_i^3 and delta^3i would underflow at large i
    margins = [("diag_floor", d - eps ** 2 / 32.0),
               ("diag_window", 4.0 * eps ** 3 - np.abs(d - fam.eps_prime ** 2))]
    if n > 1:
        abs_nu = np.abs(M.nu)
        iu, ju = np.triu_indices(n, k=1)
        off_bound = eps[iu] * eps[ju] * fam.delta_pows[ju - iu - 1]
        margins += [
            ("offdiag_decay", off_bound - np.abs(M.entries[iu, ju])),
            ("nu_decay", (M.nu_bound - abs_nu)[~np.eye(n, dtype=bool)]),
            ("nu_row_sums", 0.5 - abs_nu.sum(axis=1)),
            ("nu_col_sums", 0.5 - abs_nu.sum(axis=0))]
    return tuple(_check(f"gram_{name}_min_margin", float(np.min(margin)), 0.0,
                        ">=", "gram inequalities") for name, margin in margins)


@dataclass(frozen=True)
class CertificateReport:
    beta_hat: float
    lambda_min: float
    certified_lower: float | None
    eigenvalues: np.ndarray
    target_sq: float            # eps_n^2 / 64
    target: float               # eps_n / 8
    neumann_floor: float | None  # min_i m_ii (1 - max(1/2, beta_hat))
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def bernstein_certificate(M: GramMatrix) -> CertificateReport:
    """Smallest-eigenvalue floor for the Gram matrix.

    Chain: the scaled off-diagonal part N has Schur bound beta < 1, so
    M = D(I + N) yields lambda_min(M) >= (1 - beta) min_i m_ii; the floor
    targets are eps_n^2/64 for lambda_min and eps_n/8 for its square root.
    """
    n = M.n
    d = M.diag
    if np.any(d <= 0.0):
        raise ValidationError("Gram diagonal must be positive")
    eps_n = M.family.eps.values[n - 1]
    target_sq = eps_n ** 2 / 64.0
    target = eps_n / 8.0
    beta = spectra.schur_bound(M.nu) if n > 1 else 0.0
    lam = spectra.eigh(M.entries)
    lam_min = float(lam[-1])
    if beta >= 1.0:                 # no floor holds: the one line fails
        return CertificateReport(
            beta_hat=beta, lambda_min=lam_min, certified_lower=None,
            eigenvalues=lam, target_sq=target_sq, target=target,
            neumann_floor=None, checks=(
                _check("schur_contraction", beta, math.nextafter(1.0, 0.0),
                       "<=", "schur"),))
    cert = (1.0 - beta) * float(d.min())
    neumann_floor = float(d.min()) * (1.0 - max(0.5, beta))
    # a single disk has no off-diagonal part, so no Schur bound to check
    checks = ((_check("schur_bound_le_half", beta, 0.5, "<=", "schur"),)
              if n > 1 else ())
    checks += (
        _check("lambda_min_ge_target", lam_min, target_sq, ">=", "eigensolver"),
        _check("sqrt_lambda_min_ge_target", np.sqrt(max(lam_min, 0.0)), target,
               ">=", "eigensolver"),
        _check("certified_lower_ge_target", cert, target_sq, ">=", "schur"),
        _check("certified_lower_le_lambda_min", cert, lam_min, "<=",
               "schur+eigensolver"),
        _check("lambda_min_le_min_diag", lam_min, float(d.min()), "<=",
               "eigensolver"),
        _check("neumann_floor", lam_min, neumann_floor, ">=", "neumann"),
    )
    return CertificateReport(
        beta_hat=float(beta), lambda_min=lam_min, certified_lower=cert,
        eigenvalues=lam, target_sq=target_sq, target=target,
        neumann_floor=neumann_floor, checks=checks)
