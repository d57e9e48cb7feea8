"""Certificate benchmark for dirichletlab.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see benchmarks/NOTES.md):
cusp-gram, cusp-galerkin, cusp-moments, eksy-sweep.  The package is
imported from ./src; nothing is installed.

With --trace 0 the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with certify_s, cpu_s, setup_s and peak_rss_mb; with --trace 1 the
metrics are the per-layer spans and counts of a separately traced run.
The line before it is the run record (environment, seed, repeat counts).
The exit code is 0 once a result is printed, whatever it says; it is
nonzero, with no result, when the workload cannot be run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
from inputs import (CAP, EPS_TERMS, GALERKIN_KS, GRAM_TERMS,  # noqa: E402
                    JENSEN_P, WORKLOADS, cusp_instance)
from worker import LAYER_METRICS  # noqa: E402

# Fresh interpreter starts per run: the worker's own start, with half of
# the others before it and half after, so they span the whole run.
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0
ROUND_S = 3.0
# One BLAS thread: with two on two cores the second thread spin-waits,
# which doubles cpu_s and the pass-to-pass spread (NOTES.md).
BLAS_THREADS = 1
GALERKIN_KMAX = max(int(k) for k in GALERKIN_KS.split(","))


def git_commit(root: Path) -> str:
    """HEAD of a git checkout at ``root``, read without leaving it."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def spawn_until_ready(cmd, env):
    """Start the worker; return (process, seconds until it printed READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def per_pass(values: list[float], walls: list[float]) -> float:
    """Median over rounds of the mean per pass, where a round is a run of
    consecutive passes lasting at least ROUND_S (a trailing shorter one
    joins the round before it).  On a shared two-core VM the CPU speed
    was seen to flip between two levels every few seconds; passes shorter
    than that each land on one level, and a plain median of them jumps
    between the levels from run to run."""
    rounds, cur, span = [], [], 0.0
    for v, w in zip(values, walls):
        cur.append(v)
        span += w
        if span >= ROUND_S:
            rounds.append(cur)
            cur, span = [], 0.0
    if cur:
        if rounds:
            rounds[-1] += cur
        else:
            rounds.append(cur)
    return statistics.median(sum(r) / len(r) for r in rounds)


def sample_setup(cmd, env, deadline) -> float:
    proc, ready = spawn_until_ready(cmd + ["--setup-only"], env)
    finish(proc, deadline)
    return ready


def finish(proc, deadline):
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the run limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")


class Oracles:
    """Checks each distinct output the worker recorded; the reference
    values of a seed are computed once."""

    def __init__(self, seed: int):
        self.inst = cusp_instance(seed)
        self._moments = None
        self._galerkin = None

    def check(self, name: str, snap, expect: str, config: dict) -> list[str]:
        inst = self.inst
        if not isinstance(snap, dict):            # jensen-p<p>: (lower, actual)
            if self._moments is None:
                self._moments = oracles.region_moments(inst, max(JENSEN_P) - 1)
            return oracles.check_jensen({int(name.split("-p")[1]): snap},
                                        self._moments)
        errs = oracles.check_certificate(name, snap["certificates.txt"], expect)
        if name == "cusp-gram":
            errs += oracles.check_gram(snap, inst, GRAM_TERMS)
        elif name == "cusp-galerkin":
            if self._galerkin is None:
                self._galerkin = oracles.moment_matrix(inst, GALERKIN_KMAX)
            errs += oracles.check_galerkin(snap, inst, self._galerkin)
        elif name.startswith("eksy-windows"):
            errs += oracles.check_windows(snap, 1 if name.endswith("const") else None)
        elif name == "seq-demo":
            raw = ([CAP / i for i in range(1, config["length"] + 1)]
                   if config["raw"] == "harmonic"
                   else oracles.eps_values(inst, EPS_TERMS))
            errs += oracles.check_seq(snap, raw, config["rho"])
        return errs

    def failed(self, ops: dict) -> int:
        """Operations whose output fails its oracle, over all passes."""
        failed = 0
        for name, entries in ops["distinct"].items():
            for snap, passes in entries:
                try:
                    errs = self.check(name, snap, ops["expect"][name],
                                      ops["config"][name])
                except (KeyError, ValueError, IndexError) as exc:
                    errs = [f"{name}: unreadable output ({exc!r})"]
                for e in errs:
                    print(f"oracle: {e}", file=sys.stderr)
                if errs:
                    failed += passes
        return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dirichletlab" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/dirichletlab",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    try:
        # the first start compiles bytecode; users pay that once, not per run
        proc, _ = spawn_until_ready(cmd + ["--setup-only"], env)
        finish(proc, deadline)
        around = 0 if args.trace else SETUP_SAMPLES // 2
        setup = [sample_setup(cmd, env, deadline) for _ in range(around)]
        proc, ready = spawn_until_ready(cmd, env)
        setup.append(ready)
        finish(proc, deadline)
        res = json.loads((work / "result.json").read_text())
        setup += [sample_setup(cmd, env, deadline) for _ in range(around)]
        ops = res["ops"]
        failed = sum(ops["bad_status"].values())
        failed += Oracles(args.seed).failed(ops)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for name, count in ops["bad_status"].items():
        print(f"failed: {name} x{count} (crash or unexpected certificate)",
              file=sys.stderr)

    attempted = ops["attempted"]
    if args.trace:
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k]}
                   for k, v in res["layers"].items()}
        metrics["failed_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    else:
        metrics = {
            "certify_s": {"value": per_pass(res["certify_s"], res["certify_s"]),
                          "unit": "s"},
            "cpu_s": {"value": per_pass(res["cpu_s"], res["certify_s"]),
                      "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    record = dict(res["env"], workload=args.workload, git_commit=git_commit(root),
                  passes=res["passes"], traced_passes=res["traced_passes"],
                  setup_samples=len(setup), failed_ratio=failed / attempted,
                  layer_counts_repeat=res.get("layer_counts_repeat"))
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
