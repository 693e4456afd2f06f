#!/usr/bin/env python3
"""Measure the evaluation metrics and the classical solvers, parent against
change.

    python3 scripts/bench_metrics.py --parent DIR --change DIR \
        [--rounds 3] [--pairs qn:21-30 gd:21-25 train:21-25] \
        [--out BENCH_metrics.json]

DIR is a source checkout (with ``src/`` and ``perfbench/``) of each side.
For each side, in ``--rounds`` fresh processes (the sides alternate, and
each figure is the median over the rounds) with one BLAS thread,
``metrics.evaluate_pair``, ``metrics.ssim`` and ``metrics.ms_ssim`` are
timed on a seeded 64² and 256² pair (a Shepp-Logan phantom and a noisy
copy; the median of ``SIZES[n]`` reps). The scores are recorded too, so
the report shows how far the two sides' values are apart. In the same
processes, ``SOLVER_OPS`` ops of the perfbench ``gd`` and ``qn`` workloads
(desk scale, seed ``SOLVER_SEED``, after one warm-up op) run with
``geometry.forward_project`` and ``geometry.back_project`` wrapped. Per
workload the report gives, as medians over those ops, each projector's
calls and wall ms, the op's wall ms (``op_ms``) and the wall ms outside
the two projectors (``outside_ms``), so a change that moves the op time
shows whether it moved the sparse products or the code around them.

Then ``perfbench/run.py --trace 0`` runs on each listed workload and seed,
alternating which side goes first, at the run length ``BENCHMARK.json``
sets (the pair runner and quartiles of ``bench_kernels.py``).
``--pairs ''`` skips this part.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from bench_kernels import (_import_side, _median_ms, alternate, bench_parser,
                           checkouts, child, parse_args, write_report)

# image side -> timing reps
SIZES = {64: 30, 256: 5}
SEED = 0
SOLVER_SEED = 1
SOLVER_OPS = 21
PROJECTORS = ("forward_project", "back_project")
SOLVER_KEYS = ("op_ms", "outside_ms")


def count_projections(geo, solve) -> dict:
    """{name: {"calls", "ms"}} of each PROJECTORS function of the geometry
    module ``geo`` while ``solve()`` runs. The module attributes are
    wrapped for the call, as perfbench's tracer does, so every caller that
    looks them up in the module is counted."""
    counts = {name: {"calls": 0, "ms": 0.0} for name in PROJECTORS}
    originals = {name: getattr(geo, name) for name in PROJECTORS}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[name]["calls"] += 1
                counts[name]["ms"] += 1e3 * (time.perf_counter() - start)
        return wrapper

    for name, fn in originals.items():
        setattr(geo, name, timed(name, fn))
    try:
        solve()
    finally:
        for name, fn in originals.items():
            setattr(geo, name, fn)
    return counts


def solver_ops(workloads, q, scale) -> dict:
    """Per classical-solver workload at ``scale``, medians over SOLVER_OPS
    ops of count_projections, of the op's wall ms and of the wall ms
    outside the projectors."""
    report = {}
    for cls in (workloads.GradientDescent, workloads.QuasiNewton):
        wl = cls(q, scale, SOLVER_SEED)
        wl.setup(workloads.Phases())
        wl.op(0)
        ops = []
        for _ in range(SOLVER_OPS):
            start = time.perf_counter()
            counts = count_projections(q.geometry, lambda: wl.op(0))
            op_ms = 1e3 * (time.perf_counter() - start)
            ops.append({**counts, "op_ms": op_ms, "outside_ms": op_ms - sum(
                c["ms"] for c in counts.values())})
        report[wl.name] = _solver_medians(ops)
    return report


def _solver_medians(reports) -> dict:
    """Medians over ``reports`` (one workload's, per op or per round) of
    each projector's calls and ms and of SOLVER_KEYS."""
    return {**{name: {key: statistics.median(r[name][key] for r in reports)
                      for key in ("calls", "ms")} for name in PROJECTORS},
            **{key: statistics.median(r[key] for r in reports)
               for key in SOLVER_KEYS}}


def measure_side(checkout: Path) -> dict:
    run, workloads, q = _import_side(checkout)
    import numpy as np

    mt = q.metrics
    report = {"env": run.environment(), "sizes": {},
              "solvers": solver_ops(workloads, q, workloads.DESK)}
    for n, reps in SIZES.items():
        ref = q.phantoms.shepp_logan(n).astype(np.float64)
        rng = np.random.default_rng(SEED)
        x = np.clip(ref + rng.normal(0.0, 0.05, ref.shape), 0.0, 1.0)
        levels = mt.max_msssim_levels(x.shape)
        report["sizes"][str(n)] = {
            "ms_ssim_levels": levels,
            "scores": mt.evaluate_pair(x, ref),
            "evaluate_pair_ms": _median_ms(
                lambda: mt.evaluate_pair(x, ref), reps),
            "ssim_ms": _median_ms(lambda: mt.ssim(x, ref), reps),
            "ms_ssim_ms": _median_ms(
                lambda: mt.ms_ssim(x, ref, levels=levels), reps),
            "reps": reps,
        }
    return report


def metric_timings(parent: Path, change: Path, rounds: int) -> dict:
    runs = alternate(parent, change, rounds,
                     lambda checkout: child(__file__, "--measure-side",
                                            checkout))
    report = {}
    for side, rs in runs.items():
        report[side] = {"env": rs[0]["env"], "rounds": rounds, "sizes": {
            n: {**entry, **{key: statistics.median(
                run["sizes"][n][key] for run in rs)
                for key in ("evaluate_pair_ms", "ssim_ms", "ms_ssim_ms")}}
            for n, entry in rs[0]["sizes"].items()},
            "solvers": {w: _solver_medians([run["solvers"][w] for run in rs])
                        for w in rs[0]["solvers"]}}
    report["score_gap"] = {
        n: {key: abs(report["change"]["sizes"][n]["scores"][key]
                     - report["parent"]["sizes"][n]["scores"][key])
            for key in ("psnr", "ssim", "ms_ssim")}
        for n in report["parent"]["sizes"]}
    return report


def main(argv=None) -> int:
    p = bench_parser(__doc__, "alternating metric-timing runs per side",
                     ["qn:21-30", "gd:21-25", "train:21-25"],
                     "BENCH_metrics.json")
    p.add_argument("--measure-side", type=Path, help=argparse.SUPPRESS)
    args = parse_args(p, argv)
    if args.measure_side:
        print(json.dumps(measure_side(args.measure_side.resolve())))
        return 0
    parent, change = checkouts(p, args)
    return write_report(args, parent, change, {
        "metrics": metric_timings(parent, change, args.rounds)})


if __name__ == "__main__":
    sys.exit(main())
