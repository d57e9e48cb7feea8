"""Batch experiment driver.

Builds instances, runs the certificate suites, and writes CSV tables,
optional SVG line plots, and a certificates.txt summary with one
PASS/FAIL line per verified inequality.  Exit codes: 0 all certificates
pass, 1 a certificate failed, 2 usage or configuration error, 3 numeric
integrity failure.
"""

from __future__ import annotations

import argparse
import collections
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

    def __init__(self):
        self.lines = []
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

    def write(self, path: Path, title: str) -> int:
        result = "RESULT " + ("FAIL" if self.failed else "PASS")
        path.write_text("\n".join([title, *self.lines, result]) + "\n")
        return EXIT_CERT if self.failed else EXIT_OK


# ---------------------------------------------------------------------------
# experiments: a body adds its checks to the log and returns its title, its
# tables (file, header, rows) and its plots (file, series, chart options)


def _cusp_gram(args, log):
    # --order is validated but unused: the entries come from their closed form
    if not (1 <= args.order <= ORDER_CAP):
        raise ValidationError(f"order must lie in 1..{ORDER_CAP}")
    eps = _parse_eps(args.eps)
    n = args.n if args.n else len(eps)
    fam = disk_family(eps, args.delta, n)
    M = gram.closed_form_gram(fam)
    nu = M.nu()
    tables = [
        ("gram.csv", ("i", "j", "m_ij"),
         [(i, j, M.entries[i - 1, j - 1])
          for i in range(1, n + 1) for j in range(1, n + 1)]),
        ("nu.csv", ("i", "j", "nu_ij", "bound"),
         [(i, j, nu[i - 1, j - 1], gram.nu_bound(i, j, fam.delta))
          for i in range(1, n + 1) for j in range(1, n + 1) if i != j])]

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
    idx = range(1, n + 1)
    plots = [("gram.svg", [("lambda", idx, cert.eigenvalues),
                           ("floor", idx, [cert.target_sq] * n)],
              dict(title="gram spectrum", log_y=True))]
    return (f"cusp-gram delta={args.delta} eps={args.eps} n={n} "
            f"order={args.order}", tables, plots)


def _cusp_rho(args, log):
    eps = _parse_eps(args.eps)
    profile = profile_make(eps, args.delta)
    # rho(h) lies between the xi = 1 windows of radius h and C h
    report = carleson.cusp_window_report(profile)
    source = "closed form at radius C h"
    log.check("index_below_decay_bound",
              float(np.min(report.bound - report.upper / report.hs ** 2)),
              0.0, ">=", source)
    if len(report.index) > 1:
        log.check("index_strictly_decreasing",
                  float(np.max(np.diff(report.index))), 0.0, "<=",
                  "closed form")
    else:
        log.info("one anchor: no consecutive windows, "
                 "index_strictly_decreasing skipped")
    for h, r in zip(report.hs, report.upper):
        log.check(f"rho_le_h_theta_h_at_{h:.3e}", float(r),
                  float(h * profile.eval(h)), "<=", source)
    log.info(f"cone_constant C={report.cone_constant:.9e}: on the cusp, "
             "S(xi, h) lies in S(1, C h) for every |xi| = 1")
    log.info(f"max_index={float(np.max(report.index)):.6e}")
    return (f"cusp-rho delta={args.delta} eps={args.eps}",
            [("rho.csv", ("h", "rho", "index", "bound"),
              zip(report.hs, report.lower, report.index, report.bound))],
            [("rho.svg", [("index", report.hs, report.index),
                          ("bound", report.hs, report.bound)],
              dict(title="window index", log_x=True, log_y=True))])


def _cusp_galerkin(args, log):
    eps = _parse_eps(args.eps)
    profile = profile_make(eps, args.delta)
    Ks = sorted({_number(int, s, "Ks") for s in args.Ks.split(",")})
    scan = galerkin.compression_scan(profile, Ks)
    floors = [e / 8.0 for e in eps]
    rows = []
    for K in scan.Ks:
        lam = scan.spectrum_by_K[K]
        for i in range(min(len(eps), K)):
            rows.append((i + 1, K, lam[i], floors[i]))

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
    series = [(f"K={K}", range(1, min(len(eps), K) + 1),
               [scan.eigenvalue(i + 1, K) for i in range(min(len(eps), K))])
              for K in scan.Ks]
    return (f"cusp-galerkin delta={args.delta} eps={args.eps} Ks={Ks}",
            [("galerkin.csv", ("n", "K", "lambda", "floor"), rows)],
            [("galerkin.svg", series,
              dict(title="compression spectra", log_y=True))])


def _eksy_growth(args, log):
    M = _parse_targets(args.M)
    F = eksy_build(M, args.nmax)
    report = powers.eksy_growth_report(F, M, args.pmax)
    if args.pmax >= 2:
        half = powers.eksy_growth_report(F, M, args.pmax // 2)
        log.check("sup_ratio_stable_under_pmax_halving",
                  abs(report.sup_ratio - half.sup_ratio), 0.05 * half.sup_ratio,
                  "<=", "closed-form norms")
    else:
        log.info(f"pmax={args.pmax}: no halved grid, "
                 "sup_ratio_stable_under_pmax_halving skipped")
    log.info(f"sup_ratio={report.sup_ratio:.6e} k_const={report.k_const:.6e} "
             f"tail={report.tail:.6e}")
    return (f"eksy-growth M={args.M} nmax={args.nmax} pmax={args.pmax}",
            [("growth.csv", ("p", "norm", "majorant", "Mp", "ratio"),
              zip(report.ps, report.norm, report.majorant, report.mp,
                  report.ratio))],
            [("growth.svg", [("norm", report.ps, report.norm),
                             ("Mp", report.ps, report.mp)],
              dict(title="power norm growth", log_x=True))])


def _eksy_windows(args, log):
    if not math.isfinite(args.threshold):
        raise ValidationError(f"threshold {args.threshold} must be finite")
    M = _parse_targets(args.M)
    F = eksy_build(M, args.nmax)
    table = carleson.eksy_window_table(F)
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
    return (f"eksy-windows M={args.M} nmax={args.nmax} "
            f"threshold={args.threshold}",
            [("windows.csv", ("N", "mu_half", "index"),
              [(N, mu_half, index) for N, mu_half, _, index in table])],
            [("windows.svg", [("index", range(1, F.n_max + 1), indices)],
              dict(title="window index", log_y=True))])


def _seq_demo(args, log):
    if args.raw == "harmonic":
        raw = [seqs.CAP / i for i in range(1, args.length + 1)]
    else:
        raw = list(_parse_eps(args.raw))
    clamped = seqs.clamp_monotone(raw)
    slowed = seqs.slow_decay(clamped, args.rho)
    log.check("slowed_dominates_clamped",
              float(min(s - c for s, c in zip(slowed.values, clamped))), 0.0,
              ">=", "recursion")
    resl = seqs.slow_decay(slowed.values, args.rho)
    log.check("slowing_idempotent",
              float(max(abs(a - b) for a, b in zip(resl.values, slowed.values))),
              0.0, "<=", "recursion")
    return (f"seq-demo raw={args.raw} rho={args.rho}",
            [("seq.csv", ("i", "raw", "clamped", "slowed"),
              [(i + 1, raw[i], clamped[i], slowed.values[i])
               for i in range(len(raw))])],
            [])


# ---------------------------------------------------------------------------
# wiring


Experiment = collections.namedtuple("Experiment", "body help flags")

# flags are (flag, type, default) with an optional help text
CUSP_FLAGS = (("--delta", float, 0.005), ("--eps", str, "dyadic:8"))
EKSY_FLAGS = (("--M", str, "log2"), ("--nmax", int, 24))

EXPERIMENTS = {
    "cusp-gram": Experiment(_cusp_gram, "Gram matrix certificates", (
        *CUSP_FLAGS,
        ("--n", int, 0, "family size (default all)"),
        ("--order", int, 32, f"accepted (1..{ORDER_CAP}) but has no effect:"
                             " the entries come from their closed form"))),
    "cusp-rho": Experiment(_cusp_rho, "window measure decay", CUSP_FLAGS),
    "cusp-galerkin": Experiment(_cusp_galerkin, "moment-matrix compressions",
                                (*CUSP_FLAGS, ("--Ks", str, "32,64,128"))),
    "eksy-growth": Experiment(_eksy_growth, "power norm growth",
                              (*EKSY_FLAGS, ("--pmax", int, 1048576))),
    "eksy-windows": Experiment(_eksy_windows, "exact window measures",
                               (*EKSY_FLAGS, ("--threshold", float, 10.0))),
    "seq-demo": Experiment(_seq_demo, "decay-sequence regularization", (
        ("--raw", str, "harmonic"), ("--rho", float, 0.5),
        ("--length", int, 8))),
}


def _run(args) -> int:
    """Run one experiment and write its tables, plots and certificates."""
    log = CertLog()
    title, tables, plots = EXPERIMENTS[args.experiment].body(args, log)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, header, rows in tables:
        _write_csv(out / name, header, rows)
    if args.plot:
        for name, series, options in plots:
            (out / name).write_text(polyline_chart(series, **options))
    return log.write(out / "certificates.txt", title)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirichletlab",
        description="certificate experiments for composition-operator"
                    " constructions")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, exp in EXPERIMENTS.items():
        p = sub.add_parser(name, help=exp.help)
        for flag, kind, default, *text in exp.flags:
            p.add_argument(flag, type=kind, default=default,
                           help=text[0] if text else None)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--plot", action="store_true", help="write SVG plots")
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
        flag = "--" + key
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
        return _run(_build_parser().parse_args(argv))
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
