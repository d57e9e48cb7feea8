import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dirichletlab import cli, galerkin, geometry, gram, powers, seqs
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
    # grid h values are the anchor scales delta^j, the profile's knots
    hs = [float(r[0]) for r in rows]
    profile = geometry.profile_make(seqs.dyadic(3), 0.005)
    assert hs == profile.anchors[0].tolist()


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


def test_cusp_galerkin_outputs_do_not_depend_on_blas_threads(tmp_path):
    # the moment table is real GEMMs whose summation order OpenBLAS may
    # pick by thread count; at default flags the outputs must not move
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from dirichletlab.cli import main;"
             " sys.exit(main(sys.argv[1:]))",
             "cusp-galerkin", "--out", str(out)], env=env, check=True)
        outs.append([(out / name).read_bytes()
                     for name in ("certificates.txt", "galerkin.csv")])
    assert outs[0] == outs[1]


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


def _dyadic20_matrix():
    """The moment matrix that cusp-galerkin --eps dyadic:20 scans."""
    return galerkin.moment_matrix(
        geometry.profile_make(seqs.dyadic(20), 0.005), (32, 64, 128))


def _dyadic20_ranks():
    """The numerical rank r_K of each truncation that cusp-galerkin --eps
    dyadic:20 scans: the number of Ritz values, a rounding outcome (r_K
    stops where a pivot falls under 2^-53 times the trace)."""
    M = _dyadic20_matrix()
    return {K: M.spectrum_by_K[K].size for K in M.Ks}


def test_cusp_galerkin_noise_floor_is_unresolved(tmp_path):
    # at dyadic:20, lambda_13 lies below TRIANGLE_RTOL * trace at K = 32,
    # lambda_14 and lambda_15 below it at K = 64, and lambda_16..20 at
    # every K: no crossing is named at a K where lambda_n is noise.  The
    # CSV stops at the numerical rank r_K, and at n = 20.
    code = cli.main(["cusp-galerkin", "--eps", "dyadic:20",
                     "--out", str(tmp_path)])
    assert code == 0
    _, rows = _read_csv(tmp_path / "galerkin.csv")
    ranks = _dyadic20_ranks()
    assert [sum(r[1] == str(K) for r in rows) for K in (32, 64, 128)] == [
        min(20, ranks[K]) for K in (32, 64, 128)]
    text = (tmp_path / "certificates.txt").read_text()
    verdicts = dict(re.findall(r"floor_crossing n=(\d+): (.*)", text))
    assert [verdicts[str(n)] for n in (12, 13, 14, 15)] == [
        "K=32", "K=64", "K=128", "K=128"]
    for n in range(16, 21):
        assert verdicts[str(n)] == "unresolved (below the noise floor)"
    assert text.strip().endswith("RESULT PASS")


def test_cusp_galerkin_interlacing_skips_the_noise(tmp_path):
    # at dyadic:20, lambda_13 .. lambda_r lie below the noise floor at
    # K = 32, so the interlacing check covers n = 1..12; over all r it
    # read 1.7e-17, a comparison of rounding noise
    code = cli.main(["cusp-galerkin", "--eps", "dyadic:20",
                     "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "certificates.txt").read_text()
    shown = min(20, _dyadic20_ranks()[32])
    assert (f"INFO eigenvalues_nondecreasing_in_K skips n=13..{shown}: below"
            " the noise floor at K=32") in text
    value = re.search(r"PASS eigenvalues_nondecreasing_in_K: (\S+)", text)
    assert math.isclose(float(value.group(1)), 2.624232e-11, rel_tol=1e-6)


def _noise_verdicts(out):
    """The first n that the interlacing check skips, the n reported
    unresolved and the crossings (n, K) of cusp-galerkin --eps dyadic:20
    --Ks 32,64,128, run into ``out``."""
    assert cli.main(["cusp-galerkin", "--eps", "dyadic:20", "--Ks",
                     "32,64,128", "--out", str(out)]) == 0
    text = (out / "certificates.txt").read_text()
    skip = re.search(r"eigenvalues_nondecreasing_in_K skips n=(\d+)\.\.", text)
    verdicts = re.findall(r"floor_crossing n=(\d+): (.*)", text)
    return (int(skip.group(1)),
            {int(n) for n, v in verdicts if v.startswith("unresolved")},
            {(int(n), int(v[2:])) for n, v in verdicts if v.startswith("K=")})


def test_cusp_galerkin_noise_verdicts_follow_resolved(tmp_path, monkeypatch):
    # MomentMatrix.resolved is the one noise-floor rule: the interlacing
    # check skips from resolved(32) + 1 on, "unresolved" names exactly the
    # tracked n with resolved(128) < n <= 128, and every crossing (n, K)
    # has n <= resolved(K).  A floor of 1e-6 times the trace moves all
    # three together.
    runs = []
    for name, rtol in (("triangle", None), ("raised", 1e-6)):
        if rtol is not None:
            monkeypatch.setattr(galerkin.MomentMatrix, "noise_floor",
                                lambda self, K: rtol * self.trace_by_K[K])
        M = _dyadic20_matrix()
        skip, unresolved, crossings = _noise_verdicts(tmp_path / name)
        assert skip == M.resolved(32) + 1
        assert unresolved == {n for n in range(1, 21)
                              if M.resolved(128) < n <= 128}
        assert crossings and all(n <= M.resolved(K) for n, K in crossings)
        runs.append((skip, unresolved, crossings))
    (skip, unresolved, crossings), (skip2, unresolved2, crossings2) = runs
    assert (skip, skip2) == (13, 9)
    assert unresolved < unresolved2
    assert {n for n, _ in crossings2} < {n for n, _ in crossings}


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


@pytest.mark.xfail(strict=True, reason="exit 3: the region-route norm, "
                   "about e^{-p x_min}, underflows to 0 at pmax 2^20 "
                   "(ROADMAP item 14)")
@pytest.mark.parametrize("nmax", [1, 2, 3, 4])
def test_eksy_growth_shallow_depths(tmp_path, nmax):
    code = cli.main(["eksy-growth", "--nmax", str(nmax),
                     "--out", str(tmp_path)])
    assert code == 0


def test_eksy_growth_underflow_is_numeric_integrity(tmp_path, capsys):
    # a valid input whose norm underflows is exit 3, not a usage error
    code = cli.main(["eksy-growth", "--nmax", "2", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric integrity: growth report at p=")
    assert err.count("\n") == 1
    assert not (tmp_path / "certificates.txt").exists()


@pytest.mark.parametrize("nmax", ["2", "3"])
def test_decreasing_file_targets_exit_two(tmp_path, capsys, nmax):
    # the build and the growth report read M under one rule: M_3 < M_2 is
    # refused whether the build reads it (nmax 3) or only the p grid does
    m_file = tmp_path / "m.txt"
    m_file.write_text("2 2 1 1 1 1 1 1\n")
    code = cli.main(["eksy-growth", "--M", f"file:{m_file}", "--nmax", nmax,
                     "--pmax", "8", "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: M must be non-decreasing\n"


@pytest.mark.parametrize("experiment", ["eksy-growth", "eksy-windows"])
def test_targets_past_the_float_range_exit_two(tmp_path, capsys, experiment):
    # a constant target of 10^400 is a positive integer, but no float: the
    # growth report divided by it raised OverflowError (exit 1), and
    # eksy-windows, which never converts it, passed
    pmax = ["--pmax", "64"] if experiment == "eksy-growth" else []
    code = cli.main([experiment, "--M", "const:1" + "0" * 400, "--nmax", "6",
                     *pmax, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: M_1 is not a finite float\n"


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


def test_csv_columns_render_by_dtype():
    # integer columns (Python int or np.int64) print as ints, every other
    # column as float reprs, integral floats included (growth.csv's Mp);
    # the bytes are those of the former per-cell rule
    listed = cli._csv_text(("i", "j", "m_ij"), [
        (i, j, np.float64(1.0 / (i + j)) ** 9) for i in (1, 2) for j in (1, 2)])
    assert listed == ("i,j,m_ij\r\n1,1,0.001953125\r\n"
                      "1,2,5.0805263425290837e-05\r\n"
                      "2,1,5.0805263425290837e-05\r\n"
                      "2,2,3.814697265625e-06\r\n")
    zipped = cli._csv_text(("p", "norm", "Mp"), zip(
        np.array([1, 2, 3]), np.array([0.1, 1e-300, 1.5]),
        np.array([1.0, 2.0, 2.0])))
    assert zipped == "p,norm,Mp\r\n1,0.1,1.0\r\n2,1e-300,2.0\r\n3,1.5,2.0\r\n"
    scalars = cli._csv_text(("N", "x"), [(np.int64(1), 2.0), (np.int64(2), 0.5)])
    assert scalars == "N,x\r\n1,2.0\r\n2,0.5\r\n"
    assert cli._csv_text(("a", "b"), []) == "a,b\r\n"
    for text in (listed, zipped, scalars):
        assert "np." not in text and "float64" not in text


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


def _files(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_rerun_replaces_every_output(tmp_path, name):
    # a run into an --out used by another run with --plot leaves the bytes
    # of a run into a fresh --out: no 8-disk gram.svg next to the 2-disk
    # gram.csv, and no stale line in any table
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    assert cli.main([name, "--plot", "--out", str(used)]) == 0
    for out in (used, fresh):
        assert cli.main([name, *GOLDEN_RUNS[name], "--out", str(out)]) == 0
    assert _files(used) == _files(fresh)


def test_outputs_replace_links_instead_of_writing_through(tmp_path):
    out, side, target = tmp_path / "out", tmp_path / "side.csv", tmp_path / "t"
    assert cli.main(["cusp-gram", "--out", str(out)]) == 0
    os.link(out / "gram.csv", side)
    old = side.read_bytes()
    target.write_text("kept\n")
    (out / "certificates.txt").unlink()
    (out / "certificates.txt").symlink_to(target)
    assert cli.main(["cusp-gram", "--eps", "dyadic:3", "--out", str(out)]) == 0
    assert side.read_bytes() == old
    assert (out / "gram.csv").stat().st_nlink == 1
    assert (out / "gram.csv").read_bytes() != old
    assert target.read_text() == "kept\n"
    assert not (out / "certificates.txt").is_symlink()
    assert (out / "certificates.txt").read_text().endswith("RESULT PASS\n")


@pytest.mark.parametrize("eps,code", [("dyadic:63", 3), ("nonsense:3", 2)])
def test_failed_run_leaves_no_certificates(tmp_path, capsys, eps, code):
    # a certificates.txt of an earlier run must not stand for one that
    # stopped with a numeric integrity error or a usage error in its body
    assert cli.main(["cusp-rho", "--out", str(tmp_path)]) == 0
    assert cli.main(["cusp-rho", "--eps", eps, "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err.startswith(
        "numeric integrity: " if code == 3 else "error: ")
    assert not (tmp_path / "certificates.txt").exists()


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


def test_non_utf8_files_are_config_errors(tmp_path, capsys):
    # undecodable bytes are reported like an unreadable path, exit 2,
    # never a traceback (which exits 1, the certificate-failure code)
    binary = tmp_path / "bin.txt"
    binary.write_bytes(b"\xff\xfe")
    out = ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    for argv in (["--config", str(binary)],
                 ["cusp-rho", "--eps", f"file:{binary}"] + out,
                 ["eksy-growth", "--M", f"file:{binary}"] + out):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "utf-8" in err, argv
        assert str(binary) in err and err.count("\n") == 1, argv


def test_cusp_gram_order_takes_the_witness_range(tmp_path, capsys):
    # gram.build_gram accepts orders 1..ORDER_CAP // 2 = 256, and so does
    # the flag that names it, in its help text too
    with pytest.raises(SystemExit):
        cli.main(["cusp-gram", "--help"])
    assert "(1..256)" in capsys.readouterr().out
    out = ["--eps", "dyadic:3", "--out", str(tmp_path)]
    assert cli.main(["cusp-gram", "--order", "256"] + out) == 0
    capsys.readouterr()
    assert cli.main(["cusp-gram", "--order", "257"] + out) == 2
    assert capsys.readouterr().err == "error: order must lie in 1..256\n"


@pytest.mark.parametrize("pmax", [2 ** 63, 10 ** 30])
def test_pmax_past_int64_exits_two(tmp_path, capsys, pmax):
    out = str(tmp_path)
    assert cli.main(["eksy-growth", "--nmax", "6", "--pmax", str(pmax),
                     "--out", out]) == 2
    assert cli.run({"experiment": "eksy-growth", "nmax": 6, "pmax": pmax,
                    "out": out}) == 2
    err = capsys.readouterr().err
    assert err == "error: p_max must lie in 1..2^63 - 1\n" * 2
    assert not (tmp_path / "certificates.txt").exists()


def test_seq_demo_length_is_bounded(tmp_path, capsys):
    # refused before the raw list is built, at the range dyadic accepts
    t0 = time.perf_counter()
    assert cli.main(["seq-demo", "--length", str(10 ** 12),
                     "--out", str(tmp_path / "big")]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == (
        f"error: length must be <= {seqs.MAX_TERMS}\n")
    assert cli.main(["seq-demo", "--length", str(seqs.MAX_TERMS),
                     "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "seq.csv")
    assert len(rows) == seqs.MAX_TERMS == 1067


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
    ("cusp-gram", "--eps", "dyadic:130"),        # anchor 124 has height 0
    ("eksy-growth", "--M", "file:{empty}"),      # no targets for the levels
    ("eksy-growth", "--nmax", "100000"),         # pipes past depth 537
    ("eksy-windows", "--nmax", "100000"),
    ("cusp-rho", "--eps", "dyadic:100000"),      # 2^(-7-n) is 0 past 1067
])
def test_construction_and_short_targets_exit_two(tmp_path, capsys,
                                                  experiment, flag, spec):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    argv = [experiment, flag, spec.format(empty=empty), "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n", [123, 124])
def test_cusp_gram_names_a_radius_that_underflows(tmp_path, capsys, n):
    # r_124 = eps_124 delta^124 rounds to 0.0 at delta = 1/200, and the
    # profile refuses that height rather than the inclusion test failing
    code = cli.main(["cusp-gram", "--eps", f"dyadic:{n}", "--out",
                     str(tmp_path)])
    err = capsys.readouterr().err
    if n == 123:
        assert code == 0 and err == ""
    else:
        assert code == 2
        assert err == ("error: anchor 124 has height 0: theta(delta^124) ="
                       " eps_124 delta^124 underflows\n")


@pytest.mark.parametrize("argv,j", [
    (["cusp-rho", "--eps", "dyadic:124"], 124),
    (["cusp-galerkin", "--eps", "dyadic:124"], 124),
    (["cusp-galerkin", "--delta", "5e-324", "--eps", "dyadic:1",
      "--Ks", "4"], 1),
], ids=["cusp-rho", "cusp-galerkin", "cusp-galerkin-subnormal-delta"])
def test_cusp_runs_refuse_a_profile_height_that_underflows(tmp_path, capsys,
                                                           argv, j):
    # a profile flat at 0 from anchor j on is no cusp: every cusp
    # experiment refuses it where the profile is built, before any work
    assert cli.main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: anchor {j} has height 0: theta(delta^{j}) ="
        f" eps_{j} delta^{j} underflows\n")
    assert not (tmp_path / "certificates.txt").exists()


def test_cusp_gram_nu_bounds_read_the_stored_powers(tmp_path):
    # nu.csv's bound is 32 delta^|i-j| 2^max(i-j, 0) from the same powers
    # delta^k that the Gram entries it bounds are built from
    assert cli.main(["cusp-gram", "--out", str(tmp_path)]) == 0
    pows = geometry.disk_family(seqs.dyadic(8), 0.005, 8).delta_pows
    _, rows = _read_csv(tmp_path / "nu.csv")
    assert len(rows) == 56
    for i, j, _, bound in rows:
        i, j = int(i), int(j)
        want = 32.0 * pows[abs(i - j) - 1] * 2.0 ** max(i - j, 0)
        assert float(bound) == want, (i, j)


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
