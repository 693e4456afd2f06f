#!/usr/bin/env python3
"""Measure scan-matrix builds and loads, desk and paper scale, parent
against change.

    python3 scripts/bench_scan_build.py --parent DIR --change DIR \
        [--rounds 3] [--pairs gd:81-91 qn:81-91 train:81-86] \
        [--cache-root DIR] [--out BENCH_scan_cache.json]
    python3 scripts/bench_scan_build.py --parent DIR --change DIR \
        --working-set [--rounds 3] [--pairs train:301-311 gd:301-306 \
        qn:301-306] [--cache-root DIR] --out BENCH_scan_working_set.json

DIR is a source checkout (with ``src/`` and ``perfbench/``) of each side.
Every case runs in fresh processes with one BLAS thread, and the sides
alternate which goes first. ``QNCT_CACHE_DIR`` points every process at a
directory under ``--cache-root`` (default: the system's temporary
directory), so no run reads or writes a user's scan-matrix cache. A case
runs *cold*, on an empty cache directory, then *warm*, in a second process
on the directory the cold run filled; a side without the disk cache builds
both times.

  - ``builds``: the first ``forward_project`` and the first ``fbp`` on a
    Shepp-Logan phantom, each timed with the matrix it builds or loads,
    for every scan in ``CASES``. The matrix cache is cleared between the
    two, so each one's peak is its own. ``ru_maxrss`` is read after each
    step, and the number of A's entries, a hash of the sinogram and a hash
    of each matrix's arrays (values and dtypes) are recorded; ``same_bytes``
    says whether every cold and warm run of both sides gave the same
    matrices. Desk cases then build A and B once more each (never from the
    disk cache), under ``tracemalloc`` after the timings, and record each
    build's traced peak over its matrix's ``data + indices + indptr`` bytes.
  - ``setup``: one ``perfbench/run.py --setup-only`` process per workload
    of ``--pairs``, cold and then warm: its set-up seconds and its peak RSS.
  - ``cli``: the wall time of ``qnct reconstruct --method qn`` on a desk
    fan scan of 32 views (``CLI_SCAN``; ``--iters`` at its default), cold and
    warm, with a hash of the written image.
  - ``paper_inference``: one unrolled inference of a freshly built
    paper-size model (256², d = 96, T = 6) on the paper fan scan of
    ``PAPER_VIEWS`` of 512 views, cold and warm: the wall time of the
    projection that makes its sinogram (and builds or loads A) and of the
    inference (FBP's matrix), ``ru_maxrss``, and whether the cold start
    equals FBP bit for bit.

``--working-set`` measures what a process keeps instead, in place of the
cases above:

  - ``setup_matrices``: per workload of ``--pairs``, the matrices one
    perfbench set-up (what ``--setup-only`` times) loads from the disk
    cache and builds, cold and warm, with its set-up seconds and peak RSS.
  - ``paper_synthesis_training``: ``PAPER_TRAIN_PHANTOMS`` random phantoms
    at 256² projected on the full 512-view paper fan scan (its 1.13 GiB A),
    as ``qnct train`` synthesizes its data, then ``PAPER_TRAIN_STEPS``
    training steps (d = 96, T = 6) on ``PAPER_VIEWS`` of its views, cold
    and warm: each phase's wall time and ``ru_maxrss`` after it, and a hash
    of the losses.

Desk cases, set-ups and the CLI run ``--rounds`` times per side (each
figure is the median, and each round is kept); the paper-scale cases run
once per side, since each takes tens of seconds. Then
``perfbench/run.py --trace 0`` runs on each listed workload and seed with
the pair runner of ``bench_kernels.py``, with one cache directory per side
that persists across that side's runs, as a user's would: each side's
first run of a workload is reported on its own (its main set-up is cold),
and the pairs' summary covers the rest (``summary_all_runs`` covers every
pair). ``--pairs ''`` skips this part.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from bench_kernels import (_import_side, alternate, bench_parser, checkouts,
                           child, medians, pairs, parse_args, peak_rss_mb,
                           summarize, write_report)

# case -> (scan, beam, kept views)
CASES = {
    "desk parallel 16/180": ("desk", "parallel", 16),
    "desk fan 32/180": ("desk", "fan", 32),
    "desk fan 180/180": ("desk", "fan", 180),
    "paper fan 64/512": ("paper", "fan", 64),
    "paper fan 512/512": ("paper", "fan", 512),
}
CLI_SCAN = "geometry.beam = fan\ngeometry.views = 32\n"
PAPER_VIEWS = 64
PAPER_TRAIN_PHANTOMS = 2
PAPER_TRAIN_STEPS = 2
PAPER_SIZE = 256
DESK_SIZE = 64
SETUP_SEED = 1


def _scan(geo, case):
    scan, beam, n_v = CASES[case]
    if scan == "paper":
        return geo.paper_geometry(n_v), PAPER_SIZE
    return geo.desk_geometry(beam, n_v), DESK_SIZE


def matrix_sha256(matrix) -> str:
    """Hash of a CSR matrix's arrays, their dtypes included; the arrays are
    read in place, so hashing adds nothing to the peak RSS."""
    digest = hashlib.sha256()
    for name in ("data", "indices", "indptr"):
        array = getattr(matrix, name)
        digest.update(array.dtype.str.encode())
        digest.update(array)
    return digest.hexdigest()


def traced_build(geo, tables, g, n) -> dict:
    """Build ``tables``' matrix of scan g at n² under tracemalloc, through a
    wrapper so the disk cache is never read: the traced peak, the matrix's
    bytes and their ratio."""
    def building(*args):
        return tables(*args)

    tracemalloc.start()
    try:
        matrix, _ = geo._scan_matrix(building, g, n, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = sum(getattr(matrix, name).nbytes
                 for name in ("data", "indices", "indptr"))
    geo._scan_matrix.cache_clear()
    return {"traced_peak_mb": peak / 2**20, "matrix_mb": nbytes / 2**20,
            "traced_peak_ratio": peak / nbytes}


def build_case(q, case) -> dict:
    geo = q.geometry
    g, n = _scan(geo, case)
    image = geo.Image(q.phantoms.shepp_logan(n), g.pixel_mm(n))
    report = {"rss_before_mb": peak_rss_mb()}
    start = time.perf_counter()
    sino = geo.forward_project(image, g)
    report["forward_project_s"] = time.perf_counter() - start
    report["rss_after_forward_mb"] = peak_rss_mb()
    # no name may hold A (or its transposed view) through fbp's build
    A = geo._scan_matrix(geo._ray_tables, g, n, n)[0]
    report["a_entries"] = A.nnz
    report["a_sha256"] = matrix_sha256(A)
    del A
    geo._scan_matrix.cache_clear()
    start = time.perf_counter()
    geo.fbp(sino, g, h=n, w=n)
    report["fbp_s"] = time.perf_counter() - start
    report["peak_rss_mb"] = peak_rss_mb()
    report["b_sha256"] = matrix_sha256(
        geo._scan_matrix(geo._pixel_tables, g, n, n)[0])
    geo._scan_matrix.cache_clear()
    report["sino_sha256"] = hashlib.sha256(sino.values.tobytes()).hexdigest()
    if CASES[case][0] == "desk":
        for name, tables in (("a", geo._ray_tables), ("b", geo._pixel_tables)):
            for key, value in traced_build(geo, tables, g, n).items():
                report[f"{name}_{key}"] = value
    return report


def paper_inference(q) -> dict:
    geo, ur = q.geometry, q.unroll
    g = geo.paper_geometry(PAPER_VIEWS)
    n = PAPER_SIZE
    image = geo.Image(q.phantoms.shepp_logan(n), g.pixel_mm(n))
    model = ur.QnMixerModel.build(n, n, 0, q.mixer.MixerConfig(d=96),
                                  ur.UnrollConfig(T=6))
    start = time.perf_counter()
    sino = geo.forward_project(image, g)
    project_s = time.perf_counter() - start
    start = time.perf_counter()
    rec, _, _ = ur.unrolled_reconstruct(sino, g, model, n, n)
    inference_s = time.perf_counter() - start
    fbp = geo.fbp(sino, g, h=n, w=n).values
    return {"size": n, "views": PAPER_VIEWS, "d": 96, "T": 6,
            "project_s": project_s, "inference_s": inference_s,
            "peak_rss_mb": peak_rss_mb(),
            "cold_start_equals_fbp": rec.values.tobytes() == fbp.tobytes()}


def paper_training(q) -> dict:
    geo, tr, ur = q.geometry, q.train, q.unroll
    n = PAPER_SIZE
    rng = q.init.substream(0, "data")
    truths = [q.phantoms.random_ellipses(n, rng)
              for _ in range(PAPER_TRAIN_PHANTOMS)]
    start = time.perf_counter()
    items, sparse = tr.synthesize_dataset(truths, geo.paper_geometry(),
                                          PAPER_VIEWS, 1e6, 0.05, 0)
    synthesis_s = time.perf_counter() - start
    rss_after_synthesis = peak_rss_mb()
    model = ur.QnMixerModel.build(n, n, 0, q.mixer.MixerConfig(d=96),
                                  ur.UnrollConfig(T=6))
    config = tr.TrainConfig(epochs=1, lr=1e-3, max_steps=PAPER_TRAIN_STEPS)
    start = time.perf_counter()
    _, curve = tr.train_unrolled(items, sparse, model, config)
    training_s = time.perf_counter() - start
    losses = repr([row["loss"] for row in curve]).encode()
    return {"size": n, "full_views": 512, "views": PAPER_VIEWS, "d": 96,
            "T": 6, "phantoms": PAPER_TRAIN_PHANTOMS, "steps": len(curve),
            "synthesis_s": synthesis_s, "training_s": training_s,
            "rss_after_synthesis_mb": rss_after_synthesis,
            "peak_rss_mb": peak_rss_mb(),
            "loss_sha256": hashlib.sha256(losses).hexdigest()}


def setup_matrices(workloads, q, workload: str, scale) -> dict:
    """One perfbench set-up of ``workload`` at ``scale``: the matrices it
    loads from the disk cache and builds, its set-up seconds and this
    process's peak RSS."""
    geo = q.geometry
    counts = {"loads": 0, "builds": 0}
    load, assemble = geo._load_matrix, geo._assemble

    def loading(*args):
        matrix = load(*args)
        counts["loads"] += matrix is not None
        return matrix

    def assembling(*args):
        counts["builds"] += 1
        return assemble(*args)

    geo._load_matrix, geo._assemble = loading, assembling
    try:
        phases = workloads.Phases()
        workloads.WORKLOADS[workload](q, scale, SETUP_SEED).setup(phases)
    finally:
        geo._load_matrix, geo._assemble = load, assemble
    return {**counts, "setup_s": phases.total(), "peak_rss_mb": peak_rss_mb()}


def measure(checkout: Path, case: str) -> dict:
    run, workloads, q = _import_side(checkout)
    if case == "env":
        return run.environment()
    if case == "paper inference":
        return paper_inference(q)
    if case == "paper synthesis then training":
        return paper_training(q)
    if case.startswith("setup "):
        return setup_matrices(workloads, q, case.split()[1], workloads.DESK)
    return build_case(q, case)


def setup_side(checkout: Path, workload: str) -> dict:
    """One ``perfbench/run.py --setup-only`` process: its set-up seconds
    and its peak RSS (this process's only child)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SETUP_SEED), "--setup-only"],
        cwd=checkout, capture_output=True, text=True, check=True)
    setup = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"setup_s": setup["setup_s"],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}


def cli_wall(checkout: Path, env: dict) -> dict:
    """Wall time of one ``qnct reconstruct --method qn`` process."""
    env = {**os.environ, **env, "PYTHONPATH": str(checkout / "src")}
    # a config file, which every checkout reads, rather than --views, which
    # reconstruct took only before it read the view count from --sino
    geometry = ["--config", "scan.cfg"]
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "scan.cfg").write_text(CLI_SCAN)
        def qnct(*argv, **extra):
            subprocess.run([sys.executable, "-m", "qnct.cli", *argv],
                           cwd=tmp, env={**env, **extra}, check=True,
                           capture_output=True)

        # the scan is made with a cache of its own, so it warms nothing
        qnct("phantom", "--out", "ph.tomo")
        qnct("project", "--image", "ph.tomo", "--out", "s.tomo", *geometry,
             QNCT_CACHE_DIR=str(Path(tmp, "project-cache")))
        start = time.perf_counter()
        qnct("reconstruct", "--method", "qn", "--sino", "s.tomo",
             "--out", "r.tomo", *geometry)
        wall = time.perf_counter() - start
        digest = hashlib.sha256(Path(tmp, "r.tomo").read_bytes()).hexdigest()
    return {"wall_s": wall, "out_sha256": digest}


def cold_and_warm(cache_root: Path, fn) -> dict:
    """{"cold": fn(env), "warm": fn(env)} with env's QNCT_CACHE_DIR an empty
    directory for the first call and the one it filled for the second."""
    cache = Path(tempfile.mkdtemp(prefix="scan-cache-", dir=cache_root))
    try:
        env = {"QNCT_CACHE_DIR": str(cache)}
        return {"cold": fn(env), "warm": fn(env)}
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def rounds_of(parent, change, rounds, cache_root, fn) -> dict:
    """fn(checkout, env) over alternating rounds, each round cold and then
    warm: per side, the medians of each state ("cold", "warm") and every
    round's figures ("cold_rounds", "warm_rounds")."""
    runs = alternate(parent, change, rounds, lambda checkout: cold_and_warm(
        cache_root, lambda env: fn(checkout, env)))
    out = {}
    for side, rs in runs.items():
        out[side] = {}
        for state in ("cold", "warm"):
            out[side][state] = medians([r[state] for r in rs])
            out[side][f"{state}_rounds"] = [
                {key: value for key, value in r[state].items()
                 if isinstance(value, float)} for r in rs]
    return out


def in_child(*argv):
    """fn(checkout, env) running this script's ``argv`` mode in a fresh
    process."""
    return lambda checkout, env: child(__file__, argv[0], checkout,
                                       *argv[1:], env=env)


def same_bytes(sides: dict, keys) -> bool:
    """Whether every side's cold and warm runs agree on each of keys."""
    return all(len({runs[state][key] for runs in sides.values()
                    for state in ("cold", "warm")}) == 1 for key in keys)


def report(parent: Path, change: Path, rounds: int, cache_root: Path,
           workloads) -> dict:
    out = {"builds": {}, "setup": {}, "rounds": rounds}
    for case, (scan, *_) in CASES.items():
        sides = rounds_of(parent, change, 1 if scan == "paper" else rounds,
                          cache_root, in_child("--measure-side", "--case",
                                               case))
        out["builds"][case] = {
            **sides,
            "same_bytes": same_bytes(sides, ("a_sha256", "b_sha256",
                                             "sino_sha256"))}
        print(f"{case}: " + ", ".join(
            f"{side} {state} {r[state]['forward_project_s']:.2f} s "
            f"{r[state]['peak_rss_mb']:.0f} MB"
            for side, r in sides.items() for state in ("cold", "warm")),
            file=sys.stderr)
    for workload in workloads:
        out["setup"][workload] = rounds_of(
            parent, change, rounds, cache_root,
            in_child("--setup-side", "--workload", workload))
    sides = rounds_of(parent, change, rounds, cache_root, cli_wall)
    out["cli"] = {"command": "reconstruct --method qn --config <"
                             + CLI_SCAN.strip().replace("\n", ", ") + ">",
                  **sides, "same_bytes": same_bytes(sides, ("out_sha256",))}
    out["paper_inference"] = rounds_of(
        parent, change, 1, cache_root,
        in_child("--measure-side", "--case", "paper inference"))
    out["env"] = child(__file__, "--measure-side", change, "--case", "env")
    return out


def working_set(parent: Path, change: Path, rounds: int, cache_root: Path,
                workloads) -> dict:
    out = {"setup_matrices": {}, "rounds": rounds}
    for workload in workloads:
        out["setup_matrices"][workload] = rounds_of(
            parent, change, rounds, cache_root,
            in_child("--measure-side", "--case", f"setup {workload}"))
    out["paper_synthesis_training"] = rounds_of(
        parent, change, 1, cache_root,
        in_child("--measure-side", "--case", "paper synthesis then training"))
    out["env"] = child(__file__, "--measure-side", change, "--case", "env")
    return out


def cached_pairs(cache_root: Path):
    """The pair runner of bench_kernels.py with one cache directory per
    side, kept across that side's runs; each side's first run is reported
    on its own, ``summary`` covers the runs after it and
    ``summary_all_runs`` every run."""
    def run(parent, change, workload, seeds, seconds):
        caches = {side: Path(tempfile.mkdtemp(prefix=f"{side}-",
                                              dir=cache_root))
                  for side in ("parent", "change")}
        try:
            result = pairs(parent, change, workload, seeds, seconds,
                           env={side: {"QNCT_CACHE_DIR": str(path)}
                                for side, path in caches.items()})
        finally:
            for path in caches.values():
                shutil.rmtree(path, ignore_errors=True)
        runs = result["runs"]
        result["first_run"] = {side: rs[0] for side, rs in runs.items()}
        result["summary_all_runs"] = result["summary"]
        result["summary"] = summarize({side: rs[1:]
                                       for side, rs in runs.items()})
        return result

    return run


def main(argv=None) -> int:
    p = bench_parser(__doc__, "alternating desk, set-up and CLI runs per side",
                     ["gd:81-91", "qn:81-91", "train:81-86"],
                     "BENCH_scan_cache.json")
    p.add_argument("--cache-root", type=Path,
                   default=Path(tempfile.gettempdir()),
                   help="where each run's scan-matrix cache directory is made")
    p.add_argument("--working-set", action="store_true",
                   help="measure the matrices a process loads, builds and "
                        "keeps instead of the builds")
    p.add_argument("--measure-side", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--setup-side", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--case", help=argparse.SUPPRESS)
    p.add_argument("--workload", help=argparse.SUPPRESS)
    args = parse_args(p, argv)
    if args.measure_side:
        print(json.dumps(measure(args.measure_side.resolve(), args.case)))
        return 0
    if args.setup_side:
        print(json.dumps(setup_side(args.setup_side.resolve(),
                                    args.workload)))
        return 0
    parent, change = checkouts(p, args)
    args.cache_root.mkdir(parents=True, exist_ok=True)
    workloads = [spec.partition(":")[0] for spec in filter(None, args.pairs)]
    measured = (working_set if args.working_set else report)(
        parent, change, args.rounds, args.cache_root.resolve(), workloads)
    return write_report(args, parent, change, measured,
                        cached_pairs(args.cache_root.resolve()))


if __name__ == "__main__":
    sys.exit(main())
