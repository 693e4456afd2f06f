#!/usr/bin/env python3
"""Measure the autodiff kernels of a desk training step, parent against change.

    python3 scripts/bench_kernels.py --parent DIR --change DIR \
        [--rounds 3] [--pairs train:11-20 gd:11-15 qn:11-15] \
        [--out BENCH_train_kernels.json]

DIR is a source checkout (with ``src/`` and ``perfbench/``) of each side.
For each side, in ``--rounds`` fresh processes (the sides alternate, and
each figure is the median over the rounds) with one BLAS thread:

  - ``per_op``: the perfbench ``train`` recipe (64², 16 of 180 parallel
    views, d = 48, T = 6, k = 2, codec width 32) at seed ``PROFILE_SEED``
    runs two warm-up steps, then ``PROFILE_STEPS`` steps under
    ``autodiff.profile``; calls, forward ms, backward ms and rebuild ms
    are reported per step for every tape op. This needs
    ``autodiff.profile`` on both sides.
  - ``conv2d_shapes`` and ``maxpool2d_shapes``: forward and backward ms
    (median of 30 reps) of each conv2d and maxpool2d shape a desk train
    step uses, called directly, so they run on any commit.

Then ``perfbench/run.py --trace 0`` runs on each listed workload and seed,
alternating which side goes first, at the run length ``BENCHMARK.json``
sets. For every end-to-end metric the report gives each side's median and
quartiles, and the pairs the change won. ``--pairs ''`` skips this part.

The other ``bench_*.py`` scripts share this script's parent/change harness:
``alternate`` (sides taking turns going first), ``child`` (a fresh
process), ``medians`` (of a side's rounds), ``peak_rss_mb``,
``bench_parser``, ``parse_args``, ``checkouts``, ``pairs`` and
``summarize`` (the perfbench pairs) and ``write_report`` (the JSON
report).
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOWER_IS_BETTER = {"setup_s": True, "op_ms_p50": True, "ops_per_s": False,
                   "peak_rss_mb": True, "train_loss": True}

# (x shape, w shape, padding) of every conv2d in a desk train step, all
# stride 1: the inception branches at d = 48 (8, 16, 16, 8 channels), the
# patch embedding (a 1x1 conv over the 4x4 space-to-depth view of the
# inception output), the expansion head, and the k = 2, width-32 codec.
DESK_CONVS = (
    ((1, 1, 64, 64), (8, 1, 1, 1), 0),
    ((1, 8, 64, 64), (16, 8, 3, 3), 1),
    ((1, 8, 64, 64), (16, 8, 5, 5), 2),
    ((1, 768, 16, 16), (48, 768, 1, 1), 0),
    ((1, 48, 64, 64), (1, 48, 1, 1), 0),
    ((1, 1, 64, 64), (32, 1, 3, 3), 1),
    ((1, 32, 32, 32), (32, 32, 3, 3), 1),
    ((1, 32, 16, 16), (1, 32, 1, 1), 0),
    ((1, 32, 64, 64), (1, 32, 1, 1), 0),
)
# (x shape, kernel, stride, padding) of every maxpool2d in a desk train
# step: the inception's pooling branch and the two codec downsamplings.
DESK_POOLS = (
    ((1, 1, 64, 64), 3, 1, 1),
    ((1, 32, 64, 64), 2, 2, 0),
    ((1, 32, 32, 32), 2, 2, 0),
)
PROFILE_SEED = 1
PROFILE_STEPS = 10


def _import_side(checkout: Path):
    """qnct and the perfbench workloads from one checkout."""
    sys.path.insert(0, str(checkout / "perfbench"))
    import run
    import workloads

    return run, workloads, run.import_qnct()


def _median_ms(fn, reps):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)


def _shape_ms(ad, np, rng, xs, call, reps) -> dict:
    """Forward and backward ms of ``call`` on a random float32 x of shape
    xs, the backward closure called directly on a random gradient."""
    x = ad.Tensor(rng.normal(size=xs).astype(np.float32), requires_grad=True)
    out = call(x)
    g = rng.normal(size=out.shape).astype(np.float32)
    return {"forward_ms": _median_ms(lambda: call(x), reps),
            "backward_ms": _median_ms(lambda: out.node.backward_fn(g), reps)}


def conv2d_shapes(ad, np, reps=30, shapes=DESK_CONVS):
    rng = np.random.default_rng(0)
    rows = []
    for xs, ws, padding in shapes:
        w = ad.Tensor(rng.normal(size=ws).astype(np.float32),
                      requires_grad=True)
        b = ad.Tensor(np.zeros(ws[0], dtype=np.float32), requires_grad=True)
        rows.append({
            "x": list(xs), "w": list(ws), "padding": padding,
            **_shape_ms(ad, np, rng, xs, lambda x: ad.conv2d(
                x, w, b, padding=padding), reps),
        })
    return rows


def maxpool2d_shapes(ad, np, reps=30, shapes=DESK_POOLS):
    rng = np.random.default_rng(0)
    return [{"x": list(xs), "kernel": kernel, "stride": stride,
             "padding": padding,
             **_shape_ms(ad, np, rng, xs, lambda x: ad.maxpool2d(
                 x, kernel, stride=stride, padding=padding), reps)}
            for xs, kernel, stride, padding in shapes]


def profile_side(checkout: Path) -> dict:
    run, workloads, q = _import_side(checkout)
    import numpy as np

    ad = q.autodiff
    wl = workloads.Train(q, workloads.DESK, PROFILE_SEED)
    wl.setup(workloads.Phases())
    for i in range(2):
        wl.op(i)
    start = time.perf_counter()
    with ad.profile() as prof:
        for i in range(2, 2 + PROFILE_STEPS):
            wl.op(i)
    step_ms = 1e3 * (time.perf_counter() - start) / PROFILE_STEPS
    per_op = {op: {key: value / PROFILE_STEPS for key, value in entry.items()}
              for op, entry in sorted(prof.stats.items())}
    return {
        "env": run.environment(),
        "step_ms_profiled": step_ms,
        "per_op": per_op,
        "profile_off_cost": profile_off_cost(ad, per_op, step_ms),
        "conv2d_shapes": conv2d_shapes(ad, np),
        "maxpool2d_shapes": maxpool2d_shapes(ad, np),
    }


def profile_off_cost(ad, per_op: dict, step_ms: float) -> dict:
    """The profile's cost when off, for a step with per_op's calls: per
    primitive call, the entry wrapper (timed around a no-op) plus the
    lookup in _result (timed as a ``_profiler`` call); each rebuild read
    in backward pays that lookup alone."""
    def noop():
        return None

    marked = ad._primitive(noop)
    reps = 100000
    loop_ms = {fn: _median_ms(lambda fn=fn: [fn() for _ in range(reps)], 9)
               for fn in (noop, marked, ad._profiler)}
    per_read_ms = (loop_ms[ad._profiler] - loop_ms[noop]) / reps
    per_call_ms = (loop_ms[marked] - loop_ms[noop]) / reps + per_read_ms
    calls = sum(entry["calls"] for entry in per_op.values())
    rebuilds = sum(entry.get("rebuilds", 0) for entry in per_op.values())
    off_ms = calls * per_call_ms + rebuilds * per_read_ms
    return {"calls_per_step": calls, "rebuilds_per_step": rebuilds,
            "us_per_call": 1e3 * per_call_ms,
            "ms_per_step": off_ms, "frac_of_step": off_ms / step_ms}


def perfbench_run(checkout: Path, workload: str, seed: int, seconds: float,
                  env=None):
    """One ``perfbench/run.py --trace 0`` run, with env added to this
    process's environment: its env line and its metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
        env={**os.environ, **(env or {})})
    metrics = {}
    env = None
    for line in proc.stdout.splitlines():
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif line.startswith("metric "):
            _, _, name, value, _ = line.split(" ", 4)
            metrics[name] = float(value)
    return env, metrics


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def pairs(parent: Path, change: Path, workload: str, seeds, seconds,
          env=None):
    """perfbench runs on each seed, the sides alternating which goes first;
    env maps a side to what its runs add to the environment."""
    runs = {"parent": [], "change": []}
    envs = {}
    for n, seed in enumerate(seeds):
        order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
        for side in order:
            envs[side], metrics = perfbench_run(
                parent if side == "parent" else change, workload, seed,
                seconds, (env or {}).get(side))
            runs[side].append(metrics)
            print(f"{workload} seed {seed} {side}: "
                  f"op_ms_p50 {metrics['op_ms_p50']:.1f}", file=sys.stderr)
    return {"seeds": list(seeds), "seconds": seconds, "env": envs,
            "summary": summarize(runs), "runs": runs}


def summarize(runs: dict) -> dict:
    """Per end-to-end metric: each side's median and quartiles, and the
    pairs the change won."""
    summary = {}
    for name, lower in LOWER_IS_BETTER.items():
        if name not in runs["parent"][0]:
            continue  # train_loss is the train workload's alone
        p = [m[name] for m in runs["parent"]]
        c = [m[name] for m in runs["change"]]
        wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        summary[name] = {"parent": _quartiles(p), "change": _quartiles(c),
                         "change_wins": wins,
                         "equal_pairs": sum(pv == cv for pv, cv in zip(p, c)),
                         "pairs": len(p)}
    summary["failed_frac_max"] = max(m["failed_frac"]
                                     for side in runs.values() for m in side)
    return summary


def _seed_range(text):
    workload, _, span = text.partition(":")
    lo, _, hi = span.partition("-")
    return workload, range(int(lo), int(hi or lo) + 1)


def child(script, *argv, env=None) -> dict:
    """The last stdout line, read as JSON, of ``script argv...`` run in a
    fresh process, with env added to this process's environment."""
    proc = subprocess.run(
        [sys.executable, str(Path(script).resolve()), *map(str, argv)],
        capture_output=True, text=True, check=True,
        env={**os.environ, **(env or {})})
    return json.loads(proc.stdout.strip().splitlines()[-1])


def alternate(parent: Path, change: Path, rounds: int, fn) -> dict:
    """{side: [fn(checkout) per round]}, the sides alternating which goes
    first."""
    runs = {"parent": [], "change": []}
    for r in range(rounds):
        for side in (("parent", "change") if r % 2 == 0
                     else ("change", "parent")):
            runs[side].append(fn(parent if side == "parent" else change))
    return runs


def medians(rs: list) -> dict:
    """Per key of a side's rounds: the median of a float, else the first
    round's value."""
    return {key: statistics.median(run[key] for run in rs)
            if isinstance(rs[0][key], float) else rs[0][key]
            for key in rs[0] if key != "env"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench_parser(doc: str, rounds_help: str, pairs_default: list,
                 out: str) -> argparse.ArgumentParser:
    """The flags of every parent/change script."""
    p = argparse.ArgumentParser(description=doc.split("\n")[0])
    p.add_argument("--parent", type=Path)
    p.add_argument("--change", type=Path)
    p.add_argument("--rounds", type=int, default=3, help=rounds_help)
    p.add_argument("--pairs", nargs="*", default=pairs_default,
                   help="workload:first-last perfbench seeds, e.g. "
                        + pairs_default[0])
    p.add_argument("--out", type=Path, default=ROOT / out)
    return p


def parse_args(p: argparse.ArgumentParser, argv):
    """Parse argv, and give this process and its children one BLAS thread."""
    args = p.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return args


def checkouts(p: argparse.ArgumentParser, args) -> tuple:
    """The resolved --parent and --change; both are required."""
    if not (args.parent and args.change):
        p.error("--parent and --change are required")
    return args.parent.resolve(), args.change.resolve()


def write_report(args, parent: Path, change: Path, report: dict,
                 run_pairs=pairs) -> int:
    """Add the perfbench pairs of each --pairs spec to report, at the run
    length BENCHMARK.json sets, and write it to --out."""
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report["perfbench"] = {}
    for spec in filter(None, args.pairs):
        workload, seeds = _seed_range(spec)
        report["perfbench"][workload] = run_pairs(parent, change, workload,
                                                  seeds, seconds)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


def profiles(parent: Path, change: Path, rounds: int):
    """Per-op profiles of both sides in alternating rounds; every figure is
    the median over the rounds."""
    runs = alternate(parent, change, rounds,
                     lambda checkout: child(__file__, "--profile-side",
                                            checkout))
    report = {}
    for side, rs in runs.items():
        ops = sorted({op for run in rs for op in run["per_op"]})
        report[side] = {
            "env": rs[0]["env"],
            "seed": PROFILE_SEED, "steps": PROFILE_STEPS, "rounds": rounds,
            "step_ms_profiled": [run["step_ms_profiled"] for run in rs],
            "per_op": {op: {key: statistics.median(
                run["per_op"].get(op, {}).get(key, 0.0) for run in rs)
                for key in ("calls", "forward_ms", "backward_ms",
                            "rebuild_ms")}
                for op in ops},
            "profile_off_cost": {key: statistics.median(
                run["profile_off_cost"][key] for run in rs)
                for key in rs[0]["profile_off_cost"]},
            **{shapes: [
                {**rows[0], **{key: statistics.median(row[key] for row in rows)
                               for key in ("forward_ms", "backward_ms")}}
                for rows in zip(*(run[shapes] for run in rs))]
               for shapes in ("conv2d_shapes", "maxpool2d_shapes")},
        }
    return report


def main(argv=None) -> int:
    p = bench_parser(__doc__, "alternating profile runs per side",
                     ["train:11-20"], "BENCH_train_kernels.json")
    p.add_argument("--profile-side", type=Path, help=argparse.SUPPRESS)
    args = parse_args(p, argv)
    if args.profile_side:
        print(json.dumps(profile_side(args.profile_side.resolve())))
        return 0
    parent, change = checkouts(p, args)
    report = {"profile": profiles(parent, change, args.rounds)}
    return write_report(args, parent, change, report)


if __name__ == "__main__":
    sys.exit(main())
