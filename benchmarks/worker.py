"""Workload process: imports the package from the checkout, writes the
seed's inputs, prints READY, then runs timed passes of one workload.

    python3 benchmarks/worker.py --workload W --seed S --seconds T
        --trace 0|1 --work DIR [--setup-only]

It writes DIR/result.json: per-pass wall and CPU seconds, peak RSS, the
status of every operation, every distinct output of every operation (for
the harness's oracles) and, when traced, the per-layer metrics.  The
harness (run.py) starts it; run it by hand only to debug a workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from inputs import EPS_TERMS, make_ops  # noqa: E402

MIN_PASSES = 3          # per timed series; the median needs three
PASS_BUDGET_S = 110.0   # no new pass starts after this (180 s run limit)


def import_package():
    import dirichletlab
    where = Path(dirichletlab.__file__).resolve().parent
    if where != (ROOT / "src" / "dirichletlab").resolve():
        raise SystemExit(f"dirichletlab imported from {where}, not the checkout")
    from dirichletlab import cli, geometry, powers, seqs
    return cli, geometry, powers, seqs


def _cpu() -> float:
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


class Workload:
    """One pass = every operation of the workload once, in order."""

    def __init__(self, name: str, seed: int, work: Path):
        self.cli, self.geometry, self.powers, self.seqs = import_package()
        self.inst, self.ops = make_ops(name, seed, work)

    def _profile(self):
        inst, seqs = self.inst, self.seqs
        eps = (seqs.dyadic(EPS_TERMS) if inst.raw_eps is None else
               seqs.slow_decay(seqs.clamp_monotone(inst.eps_terms(EPS_TERMS))))
        return self.geometry.profile_make(eps, inst.delta)

    def run_pass(self):
        """Returns (wall_s, cpu_s, outcomes); outcome per op is
        ("code", exit code) | ("value", result) | ("crash", message)."""
        for op in self.ops:
            if op.config is not None:
                (Path(op.config["out"]) / "certificates.txt").unlink(
                    missing_ok=True)
        t0, c0 = time.perf_counter(), _cpu()
        outcomes, profile = [], None
        for op in self.ops:
            try:
                if op.config is not None:
                    outcomes.append(("code", self.cli.run(op.config)))
                else:
                    if profile is None:
                        profile = self._profile()
                    outcomes.append(
                        ("value", self.powers.jensen_lower(profile, op.p)))
            except Exception as exc:  # a traceback is a failed operation
                outcomes.append(("crash", f"{type(exc).__name__}: {exc}"))
        return time.perf_counter() - t0, _cpu() - c0, outcomes


def classify(op, outcome) -> tuple[str, object]:
    """(status, snapshot).  Status is PASS or FAIL only for an exit code
    that agrees with a fresh certificates.txt ending in the RESULT line;
    a crash, an exit 1 without that line, or exit 2/3 is never a
    certificate outcome."""
    kind, val = outcome
    if kind == "crash":
        return "crash", val
    if kind == "value":
        return "PASS", [float(x) for x in val]
    out = Path(op.config["out"])
    cert = out / "certificates.txt"
    text = cert.read_text() if cert.is_file() else ""
    last = text.rstrip("\n").rsplit("\n", 1)[-1]
    if (val, last) == (0, "RESULT PASS"):
        status = "PASS"
    elif (val, last) == (1, "RESULT FAIL"):
        status = "FAIL"
    else:
        status = f"exit {val} without matching RESULT line"
    snap = {p.name: p.read_text() for p in sorted(out.iterdir())
            if p.suffix in (".csv", ".txt")}
    return status, snap


class Record:
    """Statuses and distinct outputs of every operation over all passes."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.bad_status = {}
        self.distinct = {op.name: [] for op in ops}   # [snapshot, passes]

    def add(self, outcomes):
        for op, outcome in zip(self.ops, outcomes):
            self.attempted += 1
            status, snap = classify(op, outcome)
            if status != op.expect:
                self.bad_status[op.name] = self.bad_status.get(op.name, 0) + 1
                continue
            for entry in self.distinct[op.name]:
                if entry[0] == snap:
                    entry[1] += 1
                    break
            else:
                self.distinct[op.name].append([snap, 1])

    def to_json(self):
        return {"attempted": self.attempted, "bad_status": self.bad_status,
                "distinct": self.distinct,
                "expect": {op.name: op.expect for op in self.ops},
                "config": {op.name: op.config for op in self.ops}}


# ---------------------------------------------------------------------------
# layer wrappers


def install_spans(tracer):
    """Wrap each layer on the binding its caller resolves at call time."""
    import numpy as np
    from dirichletlab import (carleson, cli, galerkin, geometry, gram, powers,
                              spectra)
    from dirichletlab.geometry import CuspProfile

    def kernel_points(t, args, kwargs, result):
        t.counts["quad.kernel.points"] += int(np.size(result))

    def leggauss_order(t, args, kwargs, result):
        t.orders.add(int(args[0] if args else kwargs["deg"]))

    def gram_order(t, args, kwargs, result):
        t.counts["gram.build_gram.order"] = result.order

    def eigh_size(t, args, kwargs, result):
        t.counts["spectra.eigh.max_n"] = max(
            t.counts["spectra.eigh.max_n"], int(np.shape(args[0])[0]))

    def rect_count(t, args, kwargs, result):
        t.counts["geometry.rectangles"] += len(result.rectangles)

    def moment_route(region, q):
        route = "cusp" if isinstance(region, CuspProfile) else "rect"
        return f"powers.region_moment.{route}"

    tracer.wrap(gram, "kernel_centered", "quad.kernel", kernel_points)
    tracer.wrap(np.polynomial.legendre, "leggauss", "quad.leggauss",
                leggauss_order)
    tracer.wrap(gram, "build_gram", "gram.build_gram", gram_order)
    tracer.wrap(gram, "tec_report", "gram.tec_report")
    tracer.wrap(gram, "bernstein_certificate", "gram.certificate")
    tracer.wrap(spectra, "eigh", "spectra.eigh", eigh_size)
    tracer.wrap(galerkin, "moment_matrix", "galerkin.moment_matrix")
    tracer.wrap(carleson, "window_area_cusp", "carleson.window_area_cusp")
    tracer.wrap(carleson, "eksy_window_table", "carleson.eksy_window_table")
    tracer.wrap(powers, "region_moment", moment_route)
    tracer.wrap(powers, "eksy_growth_report", "powers.eksy_growth_report")
    tracer.wrap(cli, "disk_family", "geometry.disk_family")
    tracer.wrap(cli, "eksy_build", "geometry.eksy_build", rect_count)
    tracer.wrap(cli, "profile_make", "geometry.profile_make")
    tracer.wrap(geometry, "profile_make", "geometry.profile_make")


# Per-layer metric -> unit.  Counts come from one traced pass (they
# repeat exactly); seconds are medians over the traced passes.
LAYER_METRICS = {
    "quad.kernel.calls": "count",
    "quad.kernel.points": "count",
    "quad.kernel.s": "s",
    "quad.leggauss.calls": "count",
    "quad.leggauss.s": "s",
    "quad.leggauss.distinct_ratio": "ratio",
    "gram.build_gram.self_s": "s",
    "gram.build_gram.order": "count",
    "gram.tec_report.s": "s",
    "gram.certificate.s": "s",
    "spectra.eigh.calls": "count",
    "spectra.eigh.s": "s",
    "spectra.eigh.max_n": "count",
    "galerkin.moment_matrix.self_s": "s",
    "carleson.window_area_cusp.calls": "count",
    "carleson.window_area_cusp.s": "s",
    "carleson.eksy_window_table.s": "s",
    "powers.region_moment.cusp.calls": "count",
    "powers.region_moment.cusp.s": "s",
    "powers.region_moment.rect.s": "s",
    "powers.eksy_growth_report.self_s": "s",
    "geometry.disk_family.s": "s",
    "geometry.profile_make.s": "s",
    "geometry.eksy_build.s": "s",
    "geometry.rectangles": "count",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}


def layer_values(tracer, wall: float) -> dict:
    times = tracer.totals(wall)
    calls = tracer.counts["quad.leggauss.calls"]
    out = {}
    for name, unit in LAYER_METRICS.items():
        if unit == "count":
            out[name] = int(tracer.counts[name])
        elif unit == "s":
            out[name] = float(times.get(name, 0.0))
    out["quad.leggauss.distinct_ratio"] = (
        len(tracer.orders) / calls if calls else 0.0)
    return out


def traced_pass(wl: Workload, tracer):
    """One pass with every layer wrapped; the wrappers are removed after."""
    tracer.reset()
    install_spans(tracer)
    try:
        wall, cpu, outcomes = wl.run_pass()
    finally:
        tracer.close()
    return wall, cpu, outcomes, layer_values(tracer, wall)


# ---------------------------------------------------------------------------
# measurement


def measure(wl: Workload, seconds: float, trace: bool) -> dict:
    record = Record(wl.ops)
    plain, traced, layers = [], [], []
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    t_start = time.perf_counter()

    def more(series):
        elapsed = time.perf_counter() - t_start
        if len(series) < MIN_PASSES:
            return elapsed < PASS_BUDGET_S or not series
        return elapsed < seconds

    while more(plain) or (trace and more(traced)):
        wall, cpu, outcomes = wl.run_pass()
        plain.append((wall, cpu))
        record.add(outcomes)
        if not trace:
            continue
        wall, cpu, outcomes, layer = traced_pass(wl, tracer)
        traced.append((wall, cpu))
        layers.append(layer)
        record.add(outcomes)

    result = {
        "passes": len(plain),
        "traced_passes": len(traced),
        "certify_s": [w for w, _ in plain],
        "cpu_s": [c for _, c in plain],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": record.to_json(),
    }
    if trace:
        result["layers"] = {
            name: statistics.median(d[name] for d in layers)
            if LAYER_METRICS[name] == "s" else layers[-1][name]
            for name in layers[0]}
        result["layers"]["trace.overhead_ratio"] = (
            statistics.median(w for w, _ in traced)
            / statistics.median(w for w, _ in plain))
        result["layer_counts_repeat"] = all(
            _counts(d) == _counts(layers[0]) for d in layers)
    return result


def _counts(layer: dict) -> dict:
    return {k: v for k, v in layer.items() if LAYER_METRICS[k] == "count"}


def environment(seed: int) -> dict:
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = Workload(args.workload, args.seed, args.work)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = measure(wl, args.seconds, bool(args.trace))
    result["env"] = environment(args.seed)
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
