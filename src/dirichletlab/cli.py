"""Batch experiment driver.

Builds instances, runs the certificate suites, and writes CSV tables,
optional SVG line plots, and a certificates.txt summary with one
PASS/FAIL line per verified inequality.  Exit codes: 0 all certificates
pass, 1 a certificate failed, 2 usage or configuration error, 3 numeric
integrity failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import carleson, galerkin, gram, powers, seqs
from ._svg import polyline_chart
from .errors import ConstructionError, NumericIntegrityError, ValidationError
from .geometry import disk_family, eksy_build, profile_make
from .gram import CheckResult, _check
from .quad import ORDER_CAP

EXIT_OK, EXIT_CERT, EXIT_USAGE, EXIT_NUMERIC = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# parameter mini-languages


def _number(kind, text: str, what: str):
    """kind(text), with malformed text reported as a usage error."""
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(
            f"{what}: malformed {kind.__name__} {text!r}") from None


def _parse_eps(spec: str) -> seqs.DecaySequence:
    if spec.startswith("dyadic:"):
        return seqs.dyadic(_number(int, spec[len("dyadic:"):], "eps"))
    if spec.startswith("file:"):
        raw = [_number(float, s, spec) for s in
               Path(spec[len("file:"):]).read_text().split()]
        return seqs.slow_decay(seqs.clamp_monotone(raw))
    raise ValidationError(f"unknown eps spec {spec!r}; use dyadic:n or file:path")


def _parse_targets(spec: str):
    if spec == "log2":
        return powers.log2_targets
    if spec.startswith("const:"):
        k = _number(int, spec[len("const:"):], "M")
        if k < 1:
            raise ValidationError("constant target must be >= 1")
        return lambda n: k
    if spec.startswith("file:"):
        return [_number(int, s, spec)
                for s in Path(spec[len("file:"):]).read_text().split()]
    raise ValidationError(
        f"unknown M spec {spec!r}; use log2, const:k or file:path")


# ---------------------------------------------------------------------------
# output helpers


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([int(v) if isinstance(v, (int, np.integer)) else
                        float(v) for v in row])


class CertLog:
    """Accumulates certificate lines; any FAIL flips the exit code."""

    def __init__(self, title: str):
        self.lines = [title]
        self.failed = False

    def info(self, text: str):
        self.lines.append(f"INFO {text}")

    def add(self, check: CheckResult):
        tag = "PASS" if check.passed else "FAIL"
        self.failed = self.failed or not check.passed
        self.lines.append(
            f"{tag} {check.name}: {check.value:.6e} {check.op} "
            f"{check.bound:.6e} (margin {check.margin:.6e}; {check.source})")

    def check(self, name, value, bound, op, source):
        self.add(_check(name, value, bound, op, source))

    def write(self, path: Path) -> int:
        self.lines.append("RESULT " + ("FAIL" if self.failed else "PASS"))
        path.write_text("\n".join(self.lines) + "\n")
        return EXIT_CERT if self.failed else EXIT_OK


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# experiments


def _run_cusp_gram(args) -> int:
    # --order is validated but unused: the entries come from their closed form
    if not (1 <= args.order <= ORDER_CAP):
        raise ValidationError(f"order must lie in 1..{ORDER_CAP}")
    eps = _parse_eps(args.eps)
    n = args.n if args.n else len(eps)
    fam = disk_family(eps, args.delta, n)
    M = gram.closed_form_gram(fam)
    out = _outdir(args)
    log = CertLog(f"cusp-gram delta={args.delta} eps={args.eps} n={n} "
                  f"order={args.order}")

    _write_csv(out / "gram.csv", ("i", "j", "m_ij"),
               [(i, j, M.entries[i - 1, j - 1])
                for i in range(1, n + 1) for j in range(1, n + 1)])
    nu = M.nu()
    _write_csv(out / "nu.csv", ("i", "j", "nu_ij", "bound"),
               [(i, j, nu[i - 1, j - 1], gram.nu_bound(i, j, fam.delta))
                for i in range(1, n + 1) for j in range(1, n + 1) if i != j])

    log.info("entries from the closed form r_i r_j / s_ij^2 "
             "(gram.closed_form_gram); quadrature witness gram.build_gram, "
             "acceptance criterion 1")
    tec = gram.tec_report(M)
    margins = [("diag_floor", tec.diag_floor_margin),
               ("diag_window", tec.diag_window_margin)]
    if n > 1:
        margins += [("offdiag_decay", tec.offdiag_margin),
                    ("nu_decay", tec.nu_margin),
                    ("nu_row_sums", tec.row_sum_margin),
                    ("nu_col_sums", tec.col_sum_margin)]
    else:
        log.info("n=1: no off-diagonal entries, off-diagonal checks skipped")
    for name, margin in margins:
        log.check(f"gram_{name}_min_margin", float(np.min(margin)), 0.0,
                  ">=", "gram inequalities")
    cert = gram.bernstein_certificate(M)
    for c in cert.checks:
        log.add(c)
    log.info(f"beta_hat={cert.beta_hat:.6e} lambda_min={cert.lambda_min:.6e} "
             f"certified_lower={cert.certified_lower} target={cert.target:.6e}")
    if args.plot:
        idx = list(range(1, n + 1))
        (out / "gram.svg").write_text(polyline_chart(
            [("lambda", idx, cert.eigenvalues.tolist()),
             ("floor", idx, [cert.target_sq] * n)],
            title="gram spectrum", log_y=True))
    return log.write(out / "certificates.txt")


def _run_cusp_rho(args) -> int:
    eps = _parse_eps(args.eps)
    profile = profile_make(eps, args.delta)
    xis = [complex(math.cos(2 * math.pi * k / args.xi_grid),
                   math.sin(2 * math.pi * k / args.xi_grid))
           for k in range(args.xi_grid)]
    xis[0] = 1.0 + 0.0j
    report = carleson.cusp_window_report(
        profile, range(1, profile.n + 1), xis, args.resolution)
    out = _outdir(args)
    log = CertLog(f"cusp-rho delta={args.delta} eps={args.eps} "
                  f"xi_grid={args.xi_grid} resolution={args.resolution}")
    _write_csv(out / "rho.csv", ("h", "rho", "index", "bound"),
               zip(report.hs, report.rho, report.index, report.bound))
    summary = carleson.boundedness_index(report)
    log.check("index_below_decay_bound", float(np.min(summary.bound_margins)),
              0.0, ">=", "window quadrature")
    log.check("index_strictly_decreasing",
              float(np.max(np.diff(summary.indices))), 0.0, "<=",
              "window quadrature")
    for h, r in zip(report.hs, report.rho):
        log.check(f"rho_le_h_theta_h_at_{h:.3e}", float(r),
                  float(h * profile.eval(h)), "<=", "window quadrature")
    log.info(f"max_index={summary.max_index:.6e}")
    if args.plot:
        (out / "rho.svg").write_text(polyline_chart(
            [("index", report.hs.tolist(), report.index.tolist()),
             ("bound", report.hs.tolist(), report.bound.tolist())],
            title="window index", log_x=True, log_y=True))
    return log.write(out / "certificates.txt")


def _run_cusp_galerkin(args) -> int:
    eps = _parse_eps(args.eps)
    profile = profile_make(eps, args.delta)
    Ks = sorted({_number(int, s, "Ks") for s in args.Ks.split(",")})
    scan = galerkin.compression_scan(profile, Ks)
    floors = [e / 8.0 for e in eps]
    out = _outdir(args)
    log = CertLog(f"cusp-galerkin delta={args.delta} eps={args.eps} Ks={Ks}")
    rows = []
    for K in scan.Ks:
        lam = scan.spectrum_by_K[K]
        for i in range(min(len(eps), K)):
            rows.append((i + 1, K, lam[i], floors[i]))
    _write_csv(out / "galerkin.csv", ("n", "K", "lambda", "floor"), rows)

    if len(scan.Ks) > 1:
        worst = math.inf
        for i in range(min(len(eps), scan.Ks[0])):
            lam = [scan.eigenvalue(i + 1, K) for K in scan.Ks]
            worst = min(worst, float(np.min(np.diff(lam))))
        log.check("eigenvalues_nondecreasing_in_K", worst,
                  -1e-12 * scan.matrix.trace, ">=", "nested compressions")
    else:
        log.info(f"K={scan.Ks[0]} only: no nested truncation, "
                 "eigenvalues_nondecreasing_in_K skipped")
    lam_full = scan.spectrum_by_K[scan.Ks[-1]]
    trace = scan.matrix.trace
    log.check("trace_identity_rel_error",
              abs(float(lam_full.sum()) - trace) / abs(trace), 1e-10, "<=",
              "eigensolver")
    for n, K in galerkin.floor_crossings(scan, floors):
        log.info(f"floor_crossing n={n}: "
                 + (f"K={K}" if K else "not reached (converges from below)"))
    if args.plot:
        series = [(f"K={K}", list(range(1, len(eps) + 1)),
                   [scan.eigenvalue(i + 1, K) for i in range(len(eps))])
                  for K in scan.Ks]
        (out / "galerkin.svg").write_text(
            polyline_chart(series, title="compression spectra", log_y=True))
    return log.write(out / "certificates.txt")


def _run_eksy_growth(args) -> int:
    M = _parse_targets(args.M)
    F = eksy_build(M, args.nmax)
    report = powers.eksy_growth_report(F, M, args.pmax)
    out = _outdir(args)
    log = CertLog(f"eksy-growth M={args.M} nmax={args.nmax} pmax={args.pmax}")
    _write_csv(out / "growth.csv", ("p", "norm", "majorant", "Mp", "ratio"),
               zip(report.ps, report.norm, report.majorant, report.mp,
                   report.ratio))
    if args.pmax >= 2:
        half = powers.eksy_growth_report(F, M, args.pmax // 2)
        log.check("sup_ratio_stable_under_pmax_halving",
                  abs(report.sup_ratio - half.sup_ratio), 0.05 * half.sup_ratio,
                  "<=", "closed-form norms")
    log.info(f"sup_ratio={report.sup_ratio:.6e} k_const={report.k_const:.6e} "
             f"tail={report.tail:.6e}")
    if args.plot:
        ps = report.ps.tolist()
        (out / "growth.svg").write_text(polyline_chart(
            [("norm", ps, report.norm.tolist()),
             ("Mp", ps, report.mp.tolist())],
            title="power norm growth", log_x=True))
    return log.write(out / "certificates.txt")


def _run_eksy_windows(args) -> int:
    M = _parse_targets(args.M)
    F = eksy_build(M, args.nmax)
    table = carleson.eksy_window_table(F)
    out = _outdir(args)
    log = CertLog(f"eksy-windows M={args.M} nmax={args.nmax} "
                  f"threshold={args.threshold}")
    _write_csv(out / "windows.csv", ("N", "mu_half", "index"),
               [(N, mu_half, index) for N, mu_half, _, index in table])
    for N, mu_half, _, _ in table:
        l_N = F.l[N - 1]
        closed = l_N * 4.0 ** (-2 * N) * (1.0 - 0.75 * 2.0 ** (-2 * N))
        log.check(f"half_window_closed_form_N{N}",
                  abs(mu_half - closed), 1e-12 * closed, "<=", "closed form")
        log.check(f"half_window_ge_area_sum_N{N}", mu_half,
                  l_N * carleson.half_window_area(2 * N) * (1.0 - 1e-12),
                  ">=", "closed form")
    indices = [index for _, _, _, index in table]
    log.check("index_threshold_exceeded", max(indices), args.threshold,
              ">=", "closed form")
    grow = [N for N in range(2, F.n_max + 1) if F.l[N - 1] > F.l[N - 2]]
    # The deepest window reaches below every rectangle of the truncated
    # domain, so its index is depressed; it is excluded from the
    # monotonicity segment (not from the table or the threshold check).
    seg = indices[grow[0] - 1:F.n_max - 1] if grow else []
    if len(seg) >= 2:
        log.check("index_nondecreasing_once_l_grows",
                  float(np.min(np.diff(seg))), 0.0, ">=", "closed form")
    else:
        log.info("no divergence segment below the truncation depth")
    if args.plot:
        (out / "windows.svg").write_text(polyline_chart(
            [("index", list(range(1, F.n_max + 1)), indices)],
            title="window index", log_y=True))
    return log.write(out / "certificates.txt")


def _run_seq_demo(args) -> int:
    if args.raw == "harmonic":
        raw = [seqs.CAP / i for i in range(1, args.length + 1)]
    else:
        raw = list(_parse_eps(args.raw))
    clamped = seqs.clamp_monotone(raw)
    slowed = seqs.slow_decay(clamped, args.rho)
    out = _outdir(args)
    log = CertLog(f"seq-demo raw={args.raw} rho={args.rho}")
    _write_csv(out / "seq.csv", ("i", "raw", "clamped", "slowed"),
               [(i + 1, raw[i], clamped[i], slowed.values[i])
                for i in range(len(raw))])
    log.check("slowed_dominates_clamped",
              float(min(s - c for s, c in zip(slowed.values, clamped))), 0.0,
              ">=", "recursion")
    resl = seqs.slow_decay(slowed.values, args.rho)
    log.check("slowing_idempotent",
              float(max(abs(a - b) for a, b in zip(resl.values, slowed.values))),
              0.0, "<=", "recursion")
    return log.write(out / "certificates.txt")


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirichletlab",
        description="certificate experiments for composition-operator"
                    " constructions")
    sub = parser.add_subparsers(dest="experiment", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--plot", action="store_true", help="write SVG plots")

    p = sub.add_parser("cusp-gram", help="Gram matrix certificates")
    p.add_argument("--delta", type=float, default=0.005)
    p.add_argument("--eps", default="dyadic:8")
    p.add_argument("--n", type=int, default=0, help="family size (default all)")
    p.add_argument("--order", type=int, default=32,
                   help=f"accepted (1..{ORDER_CAP}) but has no effect: the"
                        " entries come from their closed form")
    common(p)
    p.set_defaults(func=_run_cusp_gram)

    p = sub.add_parser("cusp-rho", help="window measure decay")
    p.add_argument("--delta", type=float, default=0.005)
    p.add_argument("--eps", default="dyadic:8")
    p.add_argument("--xi-grid", type=int, default=1, dest="xi_grid")
    p.add_argument("--resolution", type=int, default=800)
    common(p)
    p.set_defaults(func=_run_cusp_rho)

    p = sub.add_parser("cusp-galerkin", help="moment-matrix compressions")
    p.add_argument("--delta", type=float, default=0.005)
    p.add_argument("--eps", default="dyadic:8")
    p.add_argument("--Ks", default="32,64,128")
    common(p)
    p.set_defaults(func=_run_cusp_galerkin)

    p = sub.add_parser("eksy-growth", help="power norm growth")
    p.add_argument("--M", default="log2")
    p.add_argument("--nmax", type=int, default=24)
    p.add_argument("--pmax", type=int, default=1048576)
    common(p)
    p.set_defaults(func=_run_eksy_growth)

    p = sub.add_parser("eksy-windows", help="exact window measures")
    p.add_argument("--M", default="log2")
    p.add_argument("--nmax", type=int, default=24)
    p.add_argument("--threshold", type=float, default=10.0)
    common(p)
    p.set_defaults(func=_run_eksy_windows)

    p = sub.add_parser("seq-demo", help="decay-sequence regularization")
    p.add_argument("--raw", default="harmonic")
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--length", type=int, default=8)
    common(p)
    p.set_defaults(func=_run_seq_demo)
    return parser


def run(config) -> int:
    """Dispatch a JSON config: {"experiment": name, other flag fields}."""
    if isinstance(config, (str, Path)):
        config = json.loads(Path(config).read_text())
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    config = dict(config)
    try:
        name = config.pop("experiment")
    except KeyError:
        raise ValidationError("config must name an experiment") from None
    argv = [str(name)]
    for key, value in sorted(config.items()):
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv += [flag, str(value)]
    return main(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv[:1] == ["--config"]:
            if len(argv) != 2:
                raise ValidationError("--config takes exactly one path")
            return run(argv[1])
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ValidationError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericIntegrityError as exc:
        print(f"numeric integrity: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
