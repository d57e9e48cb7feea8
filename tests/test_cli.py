import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from dirichletlab import cli, geometry, gram, powers, seqs
from dirichletlab.errors import NumericIntegrityError

from test_golden import RUNS as GOLDEN_RUNS


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_seq_demo_runs_and_certifies(tmp_path):
    assert cli.main(["seq-demo", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "seq.csv")
    assert header == ["i", "raw", "clamped", "slowed"]
    assert len(rows) == 8
    text = (tmp_path / "certificates.txt").read_text()
    assert text.strip().endswith("RESULT PASS")
    assert "PASS slowed_dominates_clamped" in text
    assert "PASS slowing_idempotent" in text


def test_runs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["eksy-windows", "--nmax", "6", "--threshold", "2",
                         "--out", str(out)]) == 0
    for name in ("windows.csv", "certificates.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cusp_gram_artifacts(tmp_path):
    code = cli.main(["cusp-gram", "--eps", "dyadic:3", "--n", "3",
                     "--order", "8", "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "gram.csv")
    assert header == ["i", "j", "m_ij"]
    assert len(rows) == 9
    header, rows = _read_csv(tmp_path / "nu.csv")
    assert header == ["i", "j", "nu_ij", "bound"]
    assert len(rows) == 6
    text = (tmp_path / "certificates.txt").read_text()
    assert "PASS lambda_min_ge_target" in text
    assert "RESULT PASS" in text


def test_cusp_rho_artifacts(tmp_path):
    code = cli.main(["cusp-rho", "--eps", "dyadic:3", "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "rho.csv")
    assert header == ["h", "rho_lower", "rho_upper", "index", "bound"]
    assert len(rows) == 3
    # rho(h) lies between the xi = 1 windows of radius h and C h
    assert all(0.0 < float(r[1]) < float(r[2]) for r in rows)
    # grid h values are the anchor scales delta^j
    hs = [float(r[0]) for r in rows]
    assert hs == [0.005, 0.005**2, 0.005**3]


def test_cusp_rho_source_names_the_window_route(tmp_path):
    # the supremum bounds come from the xi = 1 window of radius C h; the
    # strict decrease is a property of the xi = 1 windows themselves
    assert cli.main(["cusp-rho", "--eps", "dyadic:3",
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "certificates.txt").read_text().splitlines()
    checks = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    assert len(checks) == 5
    for line in checks:
        source = ("closed form" if "index_strictly_decreasing" in line
                  else "closed form at radius C h")
        assert line.endswith(f"; {source})"), line
    assert "INFO cone_constant C=1.003929228e+00" in lines[-3]


def test_cusp_rho_single_anchor(tmp_path):
    # one window has no successor to decrease to: an INFO line stands in
    # for the strict-decrease check
    assert cli.main(["cusp-rho", "--eps", "dyadic:1",
                     "--out", str(tmp_path)]) == 0
    text = (tmp_path / "certificates.txt").read_text()
    assert ("INFO one anchor: no consecutive windows, "
            "index_strictly_decreasing skipped") in text
    assert "PASS index_strictly_decreasing" not in text
    assert text.count("PASS rho_le_h_theta_h_at_") == 1
    assert text.strip().endswith("RESULT PASS")


def test_cusp_galerkin_artifacts(tmp_path):
    code = cli.main(["cusp-galerkin", "--eps", "dyadic:3", "--Ks", "4,8",
                     "--plot", "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "galerkin.csv")
    assert header == ["n", "K", "lambda", "floor"]
    assert len(rows) == 6          # 3 tracked indices at K = 4 and K = 8
    svg = (tmp_path / "galerkin.svg").read_text()
    assert svg.startswith("<svg")
    text = (tmp_path / "certificates.txt").read_text()
    assert "PASS eigenvalues_nondecreasing_in_K" in text
    assert "PASS trace_identity_rel_error" in text


def test_cusp_galerkin_single_truncation(tmp_path):
    # one K leaves nothing nested to compare: an INFO line stands in for
    # the interlacing check
    code = cli.main(["cusp-galerkin", "--Ks", "32", "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "galerkin.csv")
    assert [int(r[1]) for r in rows] == [32] * 8
    text = (tmp_path / "certificates.txt").read_text()
    assert ("INFO K=32 only: no nested truncation, "
            "eigenvalues_nondecreasing_in_K skipped") in text
    assert "PASS eigenvalues_nondecreasing_in_K" not in text
    assert "PASS trace_identity_rel_error" in text
    assert text.strip().endswith("RESULT PASS")


def test_cusp_galerkin_K_below_tracked_count(tmp_path):
    # K = 4 has fewer eigenvalues than the 8 tracked indices: the CSV and
    # the plot both stop at K, --plot changes no other file, and n = 5..8
    # are reported as beyond the scan, not as still converging
    runs = {}
    for plot in ([], ["--plot"]):
        out = tmp_path / ("plot" if plot else "plain")
        assert cli.main(["cusp-galerkin", "--Ks", "4", *plot,
                         "--out", str(out)]) == 0
        runs[bool(plot)] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert runs[True].pop("galerkin.svg").startswith(b"<svg")
    assert runs[True] == runs[False]
    header, rows = _read_csv(tmp_path / "plain" / "galerkin.csv")
    assert [(int(r[0]), int(r[1])) for r in rows] == [(n, 4) for n in range(1, 5)]
    text = runs[False]["certificates.txt"].decode()
    verdicts = dict(re.findall(r"floor_crossing n=(\d+): (.*)", text))
    for n in range(5, 9):
        assert verdicts[str(n)] == "beyond the largest truncation (K=4)"
    assert text.strip().endswith("RESULT PASS")


def test_cusp_galerkin_noise_floor_is_unresolved(tmp_path):
    # at dyadic:20, lambda_13 lies below TRIANGLE_RTOL * trace at K = 32,
    # lambda_14 and lambda_15 below it at K = 64, and lambda_16..20 at
    # every K: no crossing is named at a K where lambda_n is noise.  The
    # CSV stops at the numerical rank, r = 18 at K = 32.
    code = cli.main(["cusp-galerkin", "--eps", "dyadic:20",
                     "--out", str(tmp_path)])
    assert code == 0
    _, rows = _read_csv(tmp_path / "galerkin.csv")
    assert [sum(r[1] == K for r in rows) for K in ("32", "64", "128")] == [
        18, 20, 20]
    text = (tmp_path / "certificates.txt").read_text()
    verdicts = dict(re.findall(r"floor_crossing n=(\d+): (.*)", text))
    assert [verdicts[str(n)] for n in (12, 13, 14, 15)] == [
        "K=32", "K=64", "K=128", "K=128"]
    for n in range(16, 21):
        assert verdicts[str(n)] == "unresolved (below the noise floor)"
    assert text.strip().endswith("RESULT PASS")


def test_cusp_galerkin_interlacing_skips_the_noise(tmp_path):
    # at dyadic:20, lambda_13..18 lie below the noise floor at K = 32, so
    # the interlacing check covers n = 1..12; over all 18 it read 1.7e-17,
    # a comparison of rounding noise
    code = cli.main(["cusp-galerkin", "--eps", "dyadic:20",
                     "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "certificates.txt").read_text()
    assert ("INFO eigenvalues_nondecreasing_in_K skips n=13..18: below the"
            " noise floor at K=32") in text
    value = re.search(r"PASS eigenvalues_nondecreasing_in_K: (\S+)", text)
    assert math.isclose(float(value.group(1)), 2.624232e-11, rel_tol=1e-6)


def test_eksy_growth_artifacts(tmp_path):
    code = cli.main(["eksy-growth", "--nmax", "6", "--pmax", "64",
                     "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "growth.csv")
    assert header == ["p", "norm", "majorant", "Mp", "ratio"]
    assert [int(r[0]) for r in rows] == list(range(1, 65))
    for p, norm, majorant, mp, ratio in rows:
        assert math.isclose(float(ratio), float(norm) / float(mp),
                            rel_tol=1e-12)
    assert "PASS sup_ratio_stable_under_pmax_halving" in (
        tmp_path / "certificates.txt").read_text()


def test_eksy_growth_single_exponent(tmp_path):
    # pmax = 1 has no halved grid to compare: an INFO line stands in for
    # the stability check
    code = cli.main(["eksy-growth", "--nmax", "6", "--pmax", "1",
                     "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "certificates.txt").read_text()
    assert ("INFO pmax=1: no halved grid, "
            "sup_ratio_stable_under_pmax_halving skipped") in text
    assert "PASS sup_ratio_stable_under_pmax_halving" not in text
    assert text.strip().endswith("RESULT PASS")


def test_eksy_growth_fails_when_the_top_octave_grows(tmp_path, monkeypatch):
    # raising the ratios at p > pmax/2 to 1.06 times the supremum below
    # must fail the stability check
    real = powers.eksy_growth_report

    def raised(F, M, p_max):
        rep = real(F, M, p_max)
        top = 2 * rep.ps > p_max
        ratio = rep.ratio.copy()
        ratio[top] = 1.06 * ratio[~top].max()
        return dataclasses.replace(rep, ratio=ratio)

    monkeypatch.setattr(powers, "eksy_growth_report", raised)
    code = cli.main(["eksy-growth", "--nmax", "6", "--pmax", "256",
                     "--out", str(tmp_path)])
    assert code == 1
    text = (tmp_path / "certificates.txt").read_text()
    assert "FAIL sup_ratio_stable_under_pmax_halving" in text
    assert text.strip().endswith("RESULT FAIL")


@pytest.mark.xfail(strict=True, reason="the region-route norm, about "
                   "e^{-p x_min}, underflows to 0 at pmax 2^20 (ROADMAP item 3)")
@pytest.mark.parametrize("nmax", [1, 2, 3, 4])
def test_eksy_growth_shallow_depths(tmp_path, nmax):
    code = cli.main(["eksy-growth", "--nmax", str(nmax),
                     "--out", str(tmp_path)])
    assert code == 0


def test_eksy_windows_artifacts_and_roundtrip(tmp_path):
    # the divergence threshold of 10 needs ~20 built levels; at nmax = 6
    # the indices only reach l_6, so the test asks for a small threshold
    code = cli.main(["eksy-windows", "--nmax", "6", "--threshold", "2",
                     "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "windows.csv")
    assert header == ["N", "mu_half", "index"]
    assert len(rows) == 6
    # csv floats round-trip exactly (shortest repr): the parsed value is
    # bit-identical to the computed one, which carries ~1 ulp of summation
    # rounding against the rational 13/256
    from dirichletlab.carleson import eksy_window_table
    from dirichletlab.geometry import eksy_build
    from dirichletlab.powers import log2_targets
    table = eksy_window_table(eksy_build(log2_targets, 6))
    assert float(rows[0][1]) == table[0][1]
    assert math.isclose(float(rows[0][1]), 13.0 / 256.0, rel_tol=1e-14)


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_plot_writes_one_svg_and_leaves_other_files_alone(tmp_path, name):
    # the golden sizes; seq-demo has nothing to plot
    runs = {}
    for plot in ([], ["--plot"]):
        out = tmp_path / ("plot" if plot else "plain")
        assert cli.main([name, *GOLDEN_RUNS[name], *plot,
                         "--out", str(out)]) == 0
        runs[bool(plot)] = {p.name: p.read_bytes() for p in out.iterdir()}
    svgs = [f for f in runs[True] if f.endswith(".svg")]
    assert len(svgs) == (0 if name == "seq-demo" else 1)
    for f in svgs:
        assert runs[True].pop(f).startswith(b"<svg")
    assert runs[True] == runs[False]
    assert "certificates.txt" in runs[False]


def test_threshold_failure_flips_exit_code(tmp_path):
    code = cli.main(["eksy-windows", "--nmax", "4", "--threshold", "1000",
                     "--out", str(tmp_path)])
    assert code == 1
    text = (tmp_path / "certificates.txt").read_text()
    assert "FAIL index_threshold_exceeded" in text
    assert text.strip().endswith("RESULT FAIL")


def test_usage_errors_return_two(tmp_path, capsys):
    assert cli.main(["cusp-gram", "--eps", "nonsense:3",
                     "--out", str(tmp_path)]) == 2
    assert cli.main(["--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"out": str(tmp_path)}))   # no experiment
    assert cli.main(["--config", str(bad)]) == 2
    # malformed numbers in flag specs and a config that is not an object
    eps_file, m_file = tmp_path / "eps.txt", tmp_path / "m.txt"
    eps_file.write_text("0.01 x\n")
    m_file.write_text("1 2.5\n")
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps(["experiment", "seq-demo"]))
    out = ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    for argv in (["cusp-rho", "--eps", "dyadic:x"] + out,
                 ["cusp-rho", "--eps", f"file:{eps_file}"] + out,
                 ["eksy-growth", "--M", "const:x"] + out,
                 ["eksy-growth", "--M", f"file:{m_file}"] + out,
                 ["cusp-galerkin", "--Ks", "32,a"] + out,
                 ["cusp-gram", "--order", "0"] + out,
                 ["eksy-windows", "--threshold", "nan"] + out,
                 ["--config", str(listed)]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_argparse_rejects_removed_window_flags(tmp_path):
    # cusp-rho takes no xi grid; a config key is passed on as its flag
    # name unchanged, so xi_grid is unknown too
    for call in (lambda: cli.main(["cusp-rho", "--xi-grid", "4"]),
                 lambda: cli.main(["cusp-rho", "--resolution", "64"]),
                 lambda: cli.run({"experiment": "cusp-rho", "xi_grid": 1,
                                  "out": str(tmp_path)})):
        with pytest.raises(SystemExit) as exc:
            call()
        assert exc.value.code == 2


def test_numeric_integrity_returns_three(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise NumericIntegrityError("synthetic failure")
    monkeypatch.setattr("dirichletlab.gram.closed_form_gram", boom)
    code = cli.main(["cusp-gram", "--eps", "dyadic:2", "--order", "4",
                     "--out", str(tmp_path)])
    assert code == 3


@pytest.mark.parametrize("n,code", [(62, 0), (63, 3), (100, 3)])
def test_cusp_rho_deep_windows(tmp_path, capsys, n, code):
    # the window mass at h = delta^63 is about 3e-312, below the smallest
    # normal float: it exits 3 rather than printing 0 <= 0 as a PASS
    assert cli.main(["cusp-rho", "--eps", f"dyadic:{n}",
                     "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        text = (tmp_path / "certificates.txt").read_text()
        assert all(line.startswith(("PASS", "INFO")) for line in
                   text.splitlines()[1:-1])
        assert text.count("PASS rho_le_h_theta_h_at_") == n
    else:
        assert err.startswith("numeric integrity: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("nmax", [256, 300])
def test_eksy_windows_deep_staircases(tmp_path, capsys, nmax):
    # h_N^-2 = 4^{2N} overflows a float past N = 255, and the window
    # measures turn subnormal at N = 258: a deep run ends in its RESULT line
    # or in exit 3 with one numeric integrity line, never in a traceback
    code = cli.main(["eksy-windows", "--nmax", str(nmax),
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    if nmax < 258:
        assert err == ""
        last = (tmp_path / "certificates.txt").read_text().splitlines()[-1]
        assert last == ("RESULT PASS" if code == 0 else "RESULT FAIL")
        header, rows = _read_csv(tmp_path / "windows.csv")
        assert len(rows) == nmax
        assert all(math.isfinite(float(row[2])) for row in rows)
    else:
        assert code == 3
        assert err.startswith("numeric integrity: ")
        assert "N=258" in err and err.count("\n") == 1


def test_run_accepts_config_dict(tmp_path):
    code = cli.run({"experiment": "seq-demo", "out": str(tmp_path),
                    "length": 5})
    assert code == 0
    header, rows = _read_csv(tmp_path / "seq.csv")
    assert len(rows) == 5


def test_config_file_route(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "eksy-windows", "nmax": 4,
                               "threshold": 1.5, "out": str(tmp_path)}))
    assert cli.main(["--config", str(cfg)]) == 0
    assert (tmp_path / "windows.csv").exists()


def test_file_based_sequences(tmp_path):
    eps_file = tmp_path / "eps.txt"
    eps_file.write_text("0.001 0.01 0.0005 0.0001\n")
    assert cli.main(["seq-demo", "--raw", f"file:{eps_file}",
                     "--out", str(tmp_path)]) == 0
    m_file = tmp_path / "m.txt"
    m_file.write_text("1 1 2 2\n")
    assert cli.main(["eksy-windows", "--nmax", "4", "--threshold", "0.5",
                     "--M", f"file:{m_file}", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("n", [1, 2])
def test_cusp_gram_family_shorter_than_eps(tmp_path, n):
    # families shorter than their eps sequence; a lone disk has no
    # off-diagonal entries, so it gets no off-diagonal lines
    code = cli.main(["cusp-gram", "--eps", "dyadic:8", "--n", str(n),
                     "--order", "8", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "certificates.txt").read_text()
    assert text.strip().endswith("RESULT PASS")
    offdiag = ("offdiag_decay", "nu_decay", "nu_row_sums", "nu_col_sums",
               "schur_bound_le_half")
    assert all((name in text) == (n > 1) for name in offdiag)


@pytest.mark.parametrize("experiment,flag,spec", [
    ("cusp-gram", "--eps", "dyadic:130"),        # disk 124 leaves the cusp
    ("eksy-growth", "--M", "file:{empty}"),      # no targets for the levels
])
def test_construction_and_short_targets_exit_two(tmp_path, capsys,
                                                  experiment, flag, spec):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    argv = [experiment, flag, spec.format(empty=empty), "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cusp_gram_at_n100(tmp_path):
    # corner entries are about 9.5e-264, still normal floats (they turn
    # subnormal beyond n of about 117)
    assert cli.main(["cusp-gram", "--eps", "dyadic:100",
                     "--out", str(tmp_path)]) == 0
    text = (tmp_path / "certificates.txt").read_text()
    assert all(line.startswith(("PASS", "INFO")) for line in
               text.splitlines()[1:-1])
    _, rows = _read_csv(tmp_path / "gram.csv")
    assert len(rows) == 10_000
    E = np.zeros((100, 100))
    for i, j, m in rows:
        E[int(i) - 1, int(j) - 1] = float(m)
    assert np.all(E != 0.0)
    lapack = float(np.linalg.eigvalsh(E)[0])
    fam = geometry.disk_family(seqs.dyadic(100), 0.005, 100)
    lam = gram.bernstein_certificate(gram.closed_form_gram(fam)).lambda_min
    assert math.isclose(lam, lapack, rel_tol=1e-10)
    assert f"lambda_min={lam:.6e}" in text


def test_cusp_gram_order_has_no_effect(tmp_path):
    runs = []
    for order in ("4", "32"):
        out = tmp_path / order
        assert cli.main(["cusp-gram", "--eps", "dyadic:3", "--order", order,
                         "--out", str(out)]) == 0
        runs.append(((out / "certificates.txt").read_text()
                     .replace(f"order={order}", "order=*"),
                     (out / "gram.csv").read_bytes()))
    assert runs[0] == runs[1]
