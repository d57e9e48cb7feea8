"""Behaviour lock: the six experiments at small sizes against stored outputs.

tests/golden/<experiment>/ holds the certificates.txt and CSV files each
run below wrote before the order-doubling routes were merged into one
verifier.  Text between numbers must match exactly; each number must
agree to 1e-12 relative, or both it and its stored value must lie within
1e-15 of zero.  A check line's margin inherits its value's allowance
(see _margin_values).  The eigenvalues in galerkin.csv may also differ by
the Weyl bound of a backward-stable eigensolve (see _allowances).
"""

import math
import re
from pathlib import Path

from dirichletlab import cli

GOLDEN = Path(__file__).parent / "golden"
RUNS = {
    "cusp-gram": ["--eps", "dyadic:2", "--order", "4"],
    "cusp-rho": [],
    "cusp-galerkin": ["--Ks", "8,16"],
    "eksy-growth": ["--nmax", "6", "--pmax", "256"],
    "eksy-windows": ["--nmax", "6", "--threshold", "2"],
    "seq-demo": [],
}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
CHECK = re.compile(r"^(?:PASS|FAIL) [^:\n]*: (\S+) \S+ \S+ \(margin (\S+);",
                   re.MULTILINE)
NOISE = 1e-15


def _split(text):
    """(non-numeric pieces, numbers) of a file's text."""
    return NUMBER.split(text), [float(x) for x in NUMBER.findall(text)]


def _noise(got, want):
    # The absolute 1e-15 covers rounding-noise numbers (a doubling residual
    # of 0 against 2e-16); applied to every number it would accept any
    # change to the 1e-7 Gram entries or the 1e-42 window masses.
    return max(abs(got), abs(want)) <= NOISE


def _agree(got, want, allowance=0.0):
    return (math.isclose(got, want, rel_tol=1e-12) or _noise(got, want)
            or abs(got - want) <= allowance)


def _margin_values(text):
    """{index of a check line's margin: index of its value} among the
    numbers of a certificates file.

    A margin such as 1e-10 minus a rounding-noise value moves with the
    noise: one ulp of a trace moves trace_identity_rel_error's margin by
    1.5e-6 relative.  So when the value passes as noise, its margin gets
    the same NOISE absolute allowance.
    """
    return {len(NUMBER.findall(text[:m.start(2)])):
            len(NUMBER.findall(text[:m.start(1)]))
            for m in CHECK.finditer(text)}


def _allowances(where, want):
    """Absolute allowance per stored number: K 2^-53 lambda_1^(K) for the
    lambda column of galerkin.csv (rows n, K, lambda, floor), 0 elsewhere.

    A backward-stable solve of the K x K truncation M returns eigenvalues
    of M + E with ||E|| <= K 2^-53 ||M||, so by Weyl's inequality each
    moves by at most that, and ||M|| = lambda_1 for a PSD matrix.  Any
    change of rotation or summation order moves the smallest ones by about
    that much: lambda_8 = 5.9e-13 at K = 8 (next to lambda_1 = 2.0e-3)
    differs by 6.5e-9 relative between cyclic Jacobi and LAPACK, so the
    1e-12 relative rule alone pins rounding noise there.
    """
    if where != "cusp-galerkin/galerkin.csv":
        return [0.0] * len(want)
    rows = [want[i:i + 4] for i in range(0, len(want), 4)]
    lam1 = {K: lam for n, K, lam, _ in rows if n == 1}
    return [a for _, K, _, _ in rows
            for a in (0.0, 0.0, K * 2.0 ** -53 * lam1[K], 0.0)]


def test_experiments_match_golden_outputs(tmp_path):
    for name, flags in RUNS.items():
        out = tmp_path / name
        assert cli.main([name, *flags, "--out", str(out)]) == 0, name
        want_files = sorted(p.name for p in (GOLDEN / name).iterdir())
        assert sorted(p.name for p in out.iterdir()) == want_files, name
        for fname in want_files:
            got_text, got = _split((out / fname).read_text())
            stored = (GOLDEN / name / fname).read_text()
            want_text, want = _split(stored)
            where = f"{name}/{fname}"
            assert got_text == want_text, where
            allow = _allowances(where, want)
            for i, v in _margin_values(stored).items():
                if _noise(got[v], want[v]):
                    allow[i] = max(allow[i], NOISE)
            for g, w, a in zip(got, want, allow):
                assert _agree(g, w, a), (where, g, w)
