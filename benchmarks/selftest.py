"""Tests of the benchmark itself (about two minutes on two cores).

    python3 -m pytest benchmarks/selftest.py

The file name keeps the package's own test run from collecting these.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import oracles
import run
import worker
from inputs import Op
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _statuses(ops, work):
    """Record of one pass over ``ops``."""
    wl = worker.Workload("eksy-sweep", 0, work)
    wl.ops = ops
    record = worker.Record(ops)
    record.add(wl.run_pass()[2])
    return record


# -- inputs ------------------------------------------------------------------

def test_inputs_are_seeded_and_inside_the_valid_range():
    assert inputs.cusp_instance(0) == inputs.CuspInstance(1.0 / 200.0, None)
    assert inputs.cusp_instance(5) == inputs.cusp_instance(5)
    drops = 0
    for seed in range(1, 200):
        inst = inputs.cusp_instance(seed)
        assert inputs.DELTA_MIN <= inst.delta <= 1.0 / 200.0
        raw = inst.raw_eps
        assert len(raw) == inputs.EPS_TERMS
        assert 0.0 < raw[-1] and raw[0] < inputs.CAP
        assert all(b < a for a, b in zip(raw, raw[1:]))
        drops += any(b < a / 2 for a, b in zip(raw, raw[1:]))
    # the package's slow-decay envelope has work to do on most seeds
    assert drops > 100


# -- failure accounting ------------------------------------------------------

def test_tracebacks_are_failed_operations_not_certificate_fails(tmp_path):
    ops = [
        # ValueError on an empty margin array
        Op("n1", {"experiment": "cusp-gram", "n": 1, "out": str(tmp_path / "n1")}),
        # broadcast error in DiskFamily.eps_prime
        Op("n2", {"experiment": "cusp-gram", "n": 2, "eps": "dyadic:8",
                  "out": str(tmp_path / "n2")}),
    ]
    for op in ops:                      # a stale certificate must not count
        out = Path(op.config["out"])
        out.mkdir()
        (out / "certificates.txt").write_text("RESULT PASS\n")
    outcomes = _statuses(ops, tmp_path)
    assert outcomes.bad_status == {"n1": 1, "n2": 1}
    assert outcomes.distinct == {"n1": [], "n2": []}
    kinds = [worker.classify(op, ("code", 1))[0] for op in ops]
    assert kinds == ["exit 1 without matching RESULT line"] * 2


def test_designed_fail_is_neither_correct_pass_nor_failed_operation(tmp_path):
    config = {"experiment": "eksy-windows", "M": "const:1", "nmax": 24,
              "out": str(tmp_path / "w")}
    ok = _statuses([Op("eksy-windows-const", config, expect="FAIL")], tmp_path)
    assert ok.bad_status == {}
    snap = ok.distinct["eksy-windows-const"][0][0]
    assert oracles.check_certificate("eksy-windows-const",
                                     snap["certificates.txt"], "FAIL") == []
    assert oracles.check_windows(snap, 1) == []
    # the same output where a PASS is due is a failed operation
    wrong = _statuses([Op("eksy-windows-const", config, expect="PASS")],
                      tmp_path)
    assert wrong.bad_status == {"eksy-windows-const": 1}
    assert oracles.check_certificate("eksy-windows-const",
                                     snap["certificates.txt"], "PASS") != []


# -- oracles -----------------------------------------------------------------

def _csv(header, rows):
    return ",".join(header) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def test_oracles_accept_exact_values_and_reject_perturbed_ones():
    inst = inputs.cusp_instance(3)
    n = inputs.GRAM_TERMS
    eps = np.array(oracles.eps_values(inst, n))
    pows = inst.delta ** np.arange(1, n + 1)
    r = eps * pows
    lo, hi = np.minimum.outer(pows, pows), np.maximum.outer(pows, pows)
    G = np.outer(r, r) / (2 * lo + (1 - 2 * lo) * 2 * hi) ** 2
    lam = np.linalg.eigvalsh(G)[0]

    def gram_snap(scale):
        rows = [(i + 1, j + 1, G[i, j] * (scale if i == j == 0 else 1.0))
                for i in range(n) for j in range(n)]
        return {"gram.csv": _csv(("i", "j", "m_ij"), rows),
                "certificates.txt": f"INFO lambda_min={lam:.6e}\nRESULT PASS\n"}

    assert oracles.check_gram(gram_snap(1.0), inst, n) == []
    assert oracles.check_gram(gram_snap(1.0 + 1e-7), inst, n) != []

    moments = oracles.region_moments(inst, 63)
    exact = {p: (p * p * moments[0] * (moments[1] / moments[0]) ** (p - 1),
                 p * p * moments[p - 1]) for p in (1, 2, 64)}
    assert oracles.check_jensen(exact, moments) == []
    assert oracles.check_jensen({64: (exact[64][0], exact[64][1] * (1 + 1e-9))},
                                moments) != []

    rows = [(N, min(N, N.bit_length() ** 2) * 4.0 ** (-2 * N)
             * (1 - 0.75 * 2.0 ** (-2 * N)), 1.0) for N in range(1, 25)]
    snap = {"windows.csv": _csv(("N", "mu_half", "index"), rows)}
    assert oracles.check_windows(snap, None) == []
    rows[5] = (6, rows[5][1] * (1 + 1e-11), 1.0)
    assert oracles.check_windows(
        {"windows.csv": _csv(("N", "mu_half", "index"), rows)}, None) != []

    assert oracles.check_certificate(
        "x", "PASS a: 1\nFAIL b: 2\nRESULT FAIL\n", "PASS") != []


def test_gauss_rule_and_moment_oracle_against_closed_forms():
    x, w = oracles.gauss_legendre(40)
    assert abs(w.sum() - 2.0) < 1e-14
    assert abs(w @ x ** 78 - 2.0 / 79.0) < 1e-14
    inst = inputs.cusp_instance(0)
    M = oracles.moment_matrix(inst, 8)
    assert np.allclose(M, M.T, rtol=0, atol=1e-14 * np.abs(M).max())
    # area moment: the exact trapezoid integral of the profile
    knots, thetas = oracles._knots(inst)
    area = (2 / np.pi) * np.sum((thetas[1:] + thetas[:-1]) * np.diff(knots) / 2)
    assert abs(M[0, 0] - area) <= 1e-14 * area
    assert abs(oracles.region_moments(inst, 0)[0] - area) <= 1e-14 * area


# -- traced runs -------------------------------------------------------------

# layer metrics that must be non-zero on the workload exercising them
EXERCISED = {
    "cusp-gram": ["quad.kernel.calls", "quad.kernel.points", "quad.kernel.s",
                  "gram.build_gram.self_s", "gram.tec_report.s",
                  "gram.certificate.s", "geometry.disk_family.s",
                  "spectra.eigh.calls"],
    "cusp-galerkin": ["spectra.eigh.calls", "spectra.eigh.s",
                      "spectra.eigh.max_n", "galerkin.moment_matrix.self_s",
                      "geometry.profile_make.s", "quad.leggauss.calls"],
    "cusp-moments": ["quad.leggauss.calls", "quad.leggauss.s",
                     "quad.leggauss.distinct_ratio",
                     "carleson.window_area_cusp.calls",
                     "carleson.window_area_cusp.s",
                     "powers.region_moment.cusp.calls",
                     "powers.region_moment.cusp.s", "geometry.profile_make.s"],
    "eksy-sweep": ["carleson.eksy_window_table.s",
                   "powers.region_moment.rect.s",
                   "powers.eksy_growth_report.self_s", "geometry.eksy_build.s",
                   "geometry.rectangles", "cli.self_s"],
}
# layers that should carry most of certify_s on each workload
DOMINANT = {
    "cusp-gram": ["quad.kernel.s", "gram.build_gram.self_s"],
    "cusp-galerkin": ["spectra.eigh.s", "galerkin.moment_matrix.self_s"],
    "cusp-moments": ["quad.leggauss.s"],
    "eksy-sweep": ["cli.self_s", "carleson.eksy_window_table.s",
                   "powers.region_moment.rect.s",
                   "powers.eksy_growth_report.self_s",
                   "geometry.eksy_build.s"],
}


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_layer_bindings_and_repeatable_counts(name, tmp_path):
    wl = worker.Workload(name, 0, tmp_path)
    record = worker.Record(wl.ops)
    tracer = Tracer()
    runs = []
    for _ in range(2):
        wall, _, outcomes, layers = worker.traced_pass(wl, tracer)
        record.add(outcomes)
        runs.append((wall, layers))
    ops = record.to_json()
    assert ops["bad_status"] == {}
    assert run.Oracles(0).failed(ops) == 0
    (wall, a), (_, b) = runs
    counts = [k for k, unit in worker.LAYER_METRICS.items() if unit == "count"]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    for metric in EXERCISED[name]:
        assert a[metric] > 0, metric
    assert sum(a[m] for m in DOMINANT[name]) > 0.5 * wall
    if name == "eksy-sweep":
        assert a["quad.kernel.calls"] == 0 and a["spectra.eigh.calls"] == 0
        assert a["quad.leggauss.calls"] == 0
    if name == "cusp-gram":
        assert a["gram.build_gram.order"] == 32
    for k, v in a.items():
        assert v >= 0, k


def test_jensen_loop_rebuilds_gauss_nodes_3840_times():
    from dirichletlab import geometry, powers, seqs
    profile = geometry.profile_make(seqs.dyadic(8), 1.0 / 200.0)
    tracer = Tracer()
    tracer.wrap(np.polynomial.legendre, "leggauss", "quad.leggauss",
                lambda t, args, kw, res: t.orders.add(int(args[0])))
    try:
        for p in inputs.JENSEN_P:
            powers.jensen_lower(profile, p)
    finally:
        tracer.close()
    assert tracer.counts["quad.leggauss.calls"] == 3840
    assert tracer.orders == {64, 128}


# -- the harness -------------------------------------------------------------

def test_harness_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "eksy-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_harness_prints_the_contract_line():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "eksy-sweep",
             "--seed", "4", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert out.returncode == 0, out.stderr
        res = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0
        assert set(res["metrics"]) == {m["name"] for m in spec[group]}
        for m in spec[group]:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
        record = json.loads(out.stdout.strip().splitlines()[-2][len("record "):])
        for key in ("nproc", "python", "numpy", "blas", "blas_threads",
                    "git_commit", "seed", "passes", "setup_samples"):
            assert key in record
