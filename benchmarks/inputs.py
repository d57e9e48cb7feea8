"""Seeded inputs for the benchmark workloads.

Pure standard library: the harness imports this module to rebuild the
inputs for its oracles without importing the package under test.

Seed 0 is the canonical instance of the acceptance tests (delta = 1/200,
dyadic eps).  Any other seed draws delta in [0.002, 1/200] and an 8-term
raw eps sequence, strictly decreasing below the 2^-8 cap.  Steps may drop
by more than half, which the package's slow-decay envelope lifts; the
terms reach the package only through an ``--eps file:`` input, so its
monotone clamp runs too.  The terms never rise or repeat: a flat stretch
of eps makes the cusp window index flat, and cusp-rho's strict-decrease
check then passes or fails on rounding alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cusp-gram", "cusp-galerkin", "cusp-moments", "eksy-sweep")
CAP = 2.0 ** -8
DELTA_CANONICAL = 1.0 / 200.0
DELTA_MIN = 0.002
EPS_TERMS = 8
GRAM_TERMS = 2          # 3 Gram entries, about 8 s per pass at order 32
JENSEN_P = range(1, 65)  # the criterion-8 Jensen loop
GALERKIN_KS = "32,64,128"
EKSY = {"M": "log2", "nmax": 24}
EKSY_PMAX = 1048576


@dataclass(frozen=True)
class CuspInstance:
    delta: float
    raw_eps: tuple[float, ...] | None   # None: the dyadic family

    def eps_terms(self, n: int) -> list[float]:
        """The first n raw terms (dyadic: 2^(-7-i))."""
        if self.raw_eps is None:
            return [2.0 ** (-7 - i) for i in range(1, n + 1)]
        return list(self.raw_eps[:n])


def cusp_instance(seed: int) -> CuspInstance:
    if seed == 0:
        return CuspInstance(DELTA_CANONICAL, None)
    rng = random.Random(seed)
    delta = rng.uniform(DELTA_MIN, DELTA_CANONICAL)
    raw, v = [], CAP * rng.uniform(0.5, 0.99)
    for _ in range(EPS_TERMS):
        raw.append(v)
        v *= rng.uniform(0.3, 0.95)
    return CuspInstance(delta, tuple(raw))


def seq_demo_flags(seed: int, eps_file: Path) -> dict:
    if seed == 0:
        return {"raw": "harmonic", "rho": 0.5, "length": 8}
    rho = random.Random(seed + 7919).uniform(0.5, 0.9)
    return {"raw": f"file:{eps_file}", "rho": rho}


def _eps_spec(inst: CuspInstance, n: int, path: Path) -> str:
    if inst.raw_eps is None:
        return f"dyadic:{n}"
    path.write_text(" ".join(repr(x) for x in inst.eps_terms(n)) + "\n")
    return f"file:{path}"


@dataclass(frozen=True)
class Op:
    """One operation: a CLI config (``config``) or a library call (``p``).

    ``expect`` is the certificate outcome the inputs have at the seed
    commit: "PASS", or "FAIL" for inputs that fail by design.
    """

    name: str
    config: dict | None = None
    p: int | None = None
    expect: str = "PASS"


def make_ops(workload: str, seed: int, work: Path) -> tuple[CuspInstance, list[Op]]:
    """Write the seed's input files under ``work`` and list one pass."""
    work.mkdir(parents=True, exist_ok=True)
    inst = cusp_instance(seed)
    eps8 = _eps_spec(inst, EPS_TERMS, work / "eps8.txt")

    def cli(name, experiment, expect="PASS", **flags):
        return Op(name, {"experiment": experiment, "out": str(work / name),
                         **flags}, expect=expect)

    if workload == "cusp-gram":
        eps2 = _eps_spec(inst, GRAM_TERMS, work / "eps2.txt")
        ops = [cli("cusp-gram", "cusp-gram", delta=inst.delta, eps=eps2,
                   order=32)]
    elif workload == "cusp-galerkin":
        ops = [cli("cusp-galerkin", "cusp-galerkin", delta=inst.delta,
                   eps=eps8, Ks=GALERKIN_KS)]
    elif workload == "cusp-moments":
        ops = [Op(f"jensen-p{p}", p=p) for p in JENSEN_P]
        ops.append(cli("cusp-rho", "cusp-rho", delta=inst.delta, eps=eps8))
    elif workload == "eksy-sweep":
        ops = [
            cli("eksy-windows", "eksy-windows", **EKSY),
            cli("eksy-growth", "eksy-growth", pmax=EKSY_PMAX, **EKSY),
            cli("seq-demo", "seq-demo",
                **seq_demo_flags(seed, work / "eps8.txt")),
            # constant targets never reach threshold 10: a FAIL by design
            cli("eksy-windows-const", "eksy-windows", expect="FAIL",
                M="const:1", nmax=EKSY["nmax"]),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inst, ops

