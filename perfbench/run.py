#!/usr/bin/env python3
"""qnct benchmark: end-to-end and per-layer timings of four workloads.

    python3 perfbench/run.py --workload {train,infer,gd,qn} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; qnct is imported from its
``src/``. The run sets up the workload (timed, three times: here and in
two fresh processes), then runs ops in a closed loop (one process, one
caller) for S seconds and at least the workload's minimum op count, and
checks every op's outputs. Timings are scaled to a reference machine
speed by a probe run between ops (speed.py); wall values are printed
too. Human-readable lines (environment, failed checks, every metric with
its unit) come first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced ops and reports the per-layer metrics,
and writes the spans to ``.perfbench_out/``. See perfbench/README.md.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
# speed-probe samples taken at each point (after a set-up, between ops)
PROBES = 3
# the op loop runs past --seconds to finish a workload's minimum op count,
# but starts no op after this many seconds, so a run ends within 180 s
LAST_START_S = 90.0
LAYERS = ("geometry", "autodiff", "mixer", "unroll", "solvers", "train",
          "metrics")

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "geometry.forward_project.self_ms": "ms",
    "geometry.forward_project.calls": "count",
    "geometry.back_project.self_ms": "ms",
    "geometry.back_project.calls": "count",
    "geometry.fbp.self_ms": "ms",
    "geometry.fbp.calls": "count",
    "geometry.fbp_transpose.self_ms": "ms",
    "geometry.fbp_transpose.calls": "count",
    "setup.imports_s": "s",
    "setup.phantoms_s": "s",
    "setup.tables_s": "s",
    "setup.dataset_s": "s",
    "setup.model_s": "s",
    "setup.checks_s": "s",
    "autodiff.backward.self_ms": "ms",
    "autodiff.tape_nodes": "count",
    "mixer.incept_mixer_forward.self_ms": "ms",
    "mixer.inception_forward.self_ms": "ms",
    "mixer.mixer_layer.self_ms": "ms",
    "mixer.patch_expand.self_ms": "ms",
    "unroll.encode_gradient.self_ms": "ms",
    "unroll.decode_direction.self_ms": "ms",
    "unroll.LatentBfgsState.updated.self_ms": "ms",
    "unroll.bfgs_update.self_ms": "ms",
    "unroll.symmetry_index.self_ms": "ms",
    "unroll.bfgs_accept_frac": "frac",
    "solvers.bfgs_update.self_ms": "ms",
    "solvers.symmetry_index.self_ms": "ms",
    "solvers.strong_wolfe.self_ms": "ms",
    "solvers.objective_evals": "count",
    "solvers.bfgs_accept_frac": "frac",
    "train.AdamW.step.self_ms": "ms",
    "train.forward.self_ms": "ms",
    "metrics.psnr.self_ms": "ms",
    "metrics.ssim.self_ms": "ms",
    "metrics.ms_ssim.self_ms": "ms",
    **{f"{layer}.self_share": "frac" for layer in LAYERS},
    "trace.overhead_frac": "frac",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "infer", "gd", "qn"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("desk", "tiny"), default="desk",
                   help="problem size; tiny only serves the benchmark's tests")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it as JSON and exit "
                        "(the run itself starts two of these)")
    return p.parse_args(argv)


def import_qnct():
    """Import qnct from this checkout's src/, never from elsewhere."""
    if not (SRC / "qnct" / "__init__.py").is_file():
        raise ImportError(f"no qnct package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qnct
    from qnct import (autodiff, geometry, init, metrics, mixer, phantoms,
                      solvers, train, unroll)

    if Path(qnct.__file__).resolve().parent != SRC / "qnct":
        raise ImportError(f"qnct resolved to {qnct.__file__}, not {SRC}")
    modules = dict(autodiff=autodiff, geometry=geometry, init=init,
                   metrics=metrics, mixer=mixer, phantoms=phantoms,
                   solvers=solvers, train=train, unroll=unroll)
    return SimpleNamespace(modules=modules, **modules)


def child_setup(args) -> dict:
    """Set up the same workload in a fresh process; returns its timings."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--scale", args.scale,
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(wl, seconds, tracer, probe):
    """Closed loop of ops with a speed probe between ops.

    Returns one record per op: (op wall s, op + check wall s, traced,
    failed, factor), where factor converts that op's wall time to
    reference speed using the probes just before and after it.
    """
    records = []
    start = time.perf_counter()
    before = [probe.sample() for _ in range(PROBES)]
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (i >= wl.min_ops
                                   or elapsed >= LAST_START_S):
            break
        traced = tracer is not None and i % 2 == 1
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.op():
                    result = wl.op(i)
            else:
                result = wl.op(i)
        except Exception as exc:  # an op that raises is a failed op
            dt = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            dt = time.perf_counter() - t0
            problems = wl.check(i, result)
        busy = time.perf_counter() - t0
        for problem in problems:
            print(f"check failed: {wl.name} op {i}: {problem}")
        after = [probe.sample() for _ in range(PROBES)]
        records.append((dt, busy, traced, bool(problems),
                        probe.factor(before + after)))
        before = after
        i += 1
    return records


def per_layer_metrics(tracer, phases, records) -> dict:
    from tracing import summarize

    s = summarize(tracer.spans, tracer.counts)
    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_ms"):
            out[name] = s["self_ms"].get(name[:-len(".self_ms")], 0.0)
        elif name.endswith(".calls"):
            out[name] = s["counts"].get(name, 0.0)
        elif name.endswith(".self_share"):
            out[name] = s["layer_share"].get(name.split(".")[0], 0.0)
        elif name.startswith("setup."):
            out[name] = phases.get(name[len("setup."):-len("_s")], 0.0)
    out["autodiff.tape_nodes"] = s["counts"].get("autodiff.tape_nodes", 0.0)
    out["solvers.objective_evals"] = (
        s["counts"].get("solvers.ObjectiveSpec.value.calls", 0.0)
        + s["counts"].get("solvers.ObjectiveSpec.grad.calls", 0.0))
    for layer in ("unroll", "solvers"):
        calls = s["counts"].get(f"{layer}.bfgs_update.calls", 0.0)
        accepted = s["counts"].get(f"{layer}.bfgs_update.accepted", 0.0)
        out[f"{layer}.bfgs_accept_frac"] = accepted / calls if calls else 0.0
    plain = [dt * k for dt, _, traced, _, k in records if not traced]
    traced = [dt * k for dt, _, traced, _, k in records if traced]
    out["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
        if plain and traced else 0.0)
    return out


def write_spans(args, tracer):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    with open(path, "w") as f:
        json.dump({"columns": ["name", "start_s", "end_s", "parent"],
                   "spans": tracer.spans}, f)
    return path


def environment() -> dict:
    """Library versions, BLAS, CPU and cache sizes, commit, src/ size."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "qnct").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "commit": commit,
        "src_lines": src_lines,
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, else the env setting."""
    import ctypes

    try:
        libs = {line.split()[-1] for line in open("/proc/self/maps")
                if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def main(argv=None) -> int:
    args = parse_args(argv)
    # One process with one BLAS thread (set before numpy loads OpenBLAS).
    # At desk scale a second thread does not shorten a train step
    # (597 vs 605 ms on 2 cores) but widens the run-to-run spread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        q = import_qnct()
    except ImportError as exc:
        print(f"perfbench: cannot import qnct: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from speed import SpeedProbe
    from tracing import Tracer
    from workloads import DESK, TINY, WORKLOADS, Phases

    phases = Phases()
    phases.seconds["imports"] = time.perf_counter() - _T_START
    size = TINY if args.scale == "tiny" else DESK
    wl = WORKLOADS[args.workload](q, size, args.seed)
    problems = wl.setup(phases)
    probe = SpeedProbe()
    setup_k = probe.factor([probe.sample() for _ in range(PROBES)])
    if args.setup_only:
        print(json.dumps({"setup_s": phases.total(), "factor": setup_k,
                          "problems": problems}))
        return 0

    print("env " + json.dumps(environment()))
    setups = [(phases.total(), setup_k)]
    for _ in range(SETUP_SAMPLES - 1):
        child = child_setup(args)
        setups.append((child["setup_s"], child["factor"]))
        problems += [p for p in child["problems"] if p not in problems]
    for problem in problems:
        print(f"check failed: {args.workload} set-up: {problem}")

    tracer = Tracer(q.modules) if args.trace else None
    records = measure(wl, args.seconds, tracer, probe)
    attempted = len(records)
    failed = sum(1 for *_, bad, _ in records if bad)
    passed = attempted - failed
    plain = [(dt, k) for dt, _, traced, _, k in records if not traced]
    busy = sum(b for _, b, *_ in records)
    busy_ref = sum(b * k for _, b, *_, k in records)

    if args.trace:
        values = per_layer_metrics(tracer, phases.seconds, records)
        units = PER_LAYER
        print(f"spans written to {write_spans(args, tracer)}")
    else:
        # timings at reference speed (see speed.py); wall values below
        values = {
            "setup_s": statistics.median(t * k for t, k in setups),
            "op_ms_p50": 1e3 * statistics.median(dt * k for dt, k in plain),
            "ops_per_s": passed / busy_ref,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    report = {name: (values[name], units[name]) for name in units}
    if not args.trace:
        # printed for every run; not bounded by BENCHMARK.json (see README)
        wall_ms = sorted(1e3 * dt for dt, _ in plain)
        report.update({
            "failed_frac": (failed / attempted, "frac"),
            "ops": (attempted, "count"),
            "setup_wall_s": (statistics.median(t for t, _ in setups), "s"),
            "op_wall_ms_p50": (statistics.median(wall_ms), "ms"),
            "ops_wall_per_s": (passed / busy, "1/s"),
            "speed_factor": (statistics.median(k for *_, k in records), "1"),
        })
        if len(wall_ms) >= 100:
            ref_ms = sorted(1e3 * dt * k for dt, k in plain)
            report["op_ms_p90"] = (statistics.quantiles(ref_ms, n=10)[-1],
                                   "ms")
            report["op_wall_ms_p90"] = (
                statistics.quantiles(wall_ms, n=10)[-1], "ms")
        for name, (value, unit) in wl.quality().items():
            report[name] = (value, unit)
    for name, (value, unit) in report.items():
        print(f"metric {args.workload} {name} {value:.6g} {unit}")
    print(f"op_wall_ms {args.workload} "
          + " ".join(f"{1e3 * r[0]:.1f}" for r in records))

    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
