"""Known defects, one strict xfail each.

Every row runs an input that the paper's constructions handle and asserts
the outcome the paper claims.  Its reason gives today's cause and the
ROADMAP item whose fix flips it.  A fixed row turns XPASS, which fails the
suite under strict, so the fixing change drops its marker.
"""

import re

import pytest

from dirichletlab import cli


def _defect(argv, reason):
    return pytest.param(argv, id=" ".join(argv),
                        marks=pytest.mark.xfail(strict=True, reason=reason))


DIP = ("index_nondecreasing_once_l_grows fails on a real dip: l_N plateaus "
       "near the truncation depth, and the paper claims divergence, not "
       "monotonicity (ROADMAP item 3)")
TIE = ("index_nondecreasing_once_l_grows fails on rounding ties: zero-"
       "tolerance float steps read about -7e-15 where the exact steps are "
       "positive (ROADMAP item 11)")


@pytest.mark.parametrize("argv", [
    _defect(["eksy-windows", "--nmax", "27"], DIP),
    _defect(["eksy-windows", "--nmax", "38"], DIP),
    _defect(["eksy-windows", "--nmax", "48"], DIP),
    _defect(["eksy-windows", "--nmax", "64"], TIE),
    _defect(["eksy-windows", "--nmax", "128"], TIE),
    _defect(["eksy-windows", "--nmax", "200"], DIP),
    _defect(["eksy-windows", "--nmax", "257"], TIE),
    _defect(["eksy-windows", "--nmax", "258"],
            "exit 3: the window measures at N = 258 are about 1.8e-309, "
            "not normal floats (ROADMAP item 14)"),
    _defect(["cusp-rho", "--eps", "dyadic:63"],
            "exit 3: the window area at h = 1.08e-145 is 3.2e-312, not a "
            "normal float (ROADMAP item 14)"),
    _defect(["cusp-gram", "--eps", "dyadic:124"],
            "exit 2: eps_124 delta^124 rounds to 0, so the profile refuses "
            "anchor 124's zero height (ROADMAP item 14)"),
])
def test_certificates_pass(tmp_path, argv):
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "certificates.txt").read_text()
    assert text.endswith("\nRESULT PASS\n")


# the flat-eps input of benchmarks/NOTES.md: eps is flat at 2^-8 over
# j = 1..5 once clamp_monotone has run
FLAT_DELTA = "0.0029861015615992937"
FLAT_EPS = ("0.003873464680813043 0.00390625 0.00390625 0.0037946085443198397"
            " 0.00390625 0.0011732123378064931 0.0009772163001080705"
            " 0.0004988652555627137")


@pytest.mark.xfail(strict=True, reason="index_strictly_decreasing compares "
                   "float steps with zero tolerance, and where eps is flat "
                   "the index is flat, so it passes with margin 0 instead of "
                   "deciding strictness (ROADMAP item 3)")
def test_cusp_rho_strictness_is_decided_on_flat_eps(tmp_path):
    eps = tmp_path / "eps.txt"
    eps.write_text(FLAT_EPS + "\n")
    assert cli.main(["cusp-rho", "--delta", FLAT_DELTA, "--eps",
                     f"file:{eps}", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "certificates.txt").read_text()
    assert text.endswith("\nRESULT PASS\n")
    assert "(margin 0.000000e+00;" not in text


@pytest.mark.xfail(strict=True, reason="lambda_16..20 lie below the noise "
                   "floor at every K, so n = 16..20 read 'unresolved' where "
                   "the true crossing is at K <= 128 (ROADMAP item 8)")
def test_cusp_galerkin_crosses_every_floor_at_dyadic20(tmp_path):
    assert cli.main(["cusp-galerkin", "--eps", "dyadic:20",
                     "--out", str(tmp_path)]) == 0
    text = (tmp_path / "certificates.txt").read_text()
    verdicts = dict(re.findall(r"floor_crossing n=(\d+): (.*)", text))
    assert sorted(map(int, verdicts)) == list(range(1, 21))
    assert all(re.fullmatch(r"K=\d+", v) for v in verdicts.values())
