#!/usr/bin/env python3
"""Measure scan-matrix builds, desk and paper scale, parent against change.

    python3 scripts/bench_scan_build.py --parent DIR --change DIR \
        [--rounds 3] [--pairs gd:31-40 qn:31-40 train:31-35] \
        [--out BENCH_scan_build.json]

DIR is a source checkout (with ``src/`` and ``perfbench/``) of each side.
Every case runs in a fresh process with one BLAS thread, and the sides
alternate which goes first:

  - ``builds``: the first ``forward_project`` and the first ``fbp`` on a
    Shepp-Logan phantom, each timed with the matrix it builds, for every
    scan in ``CASES``. The matrix cache is cleared between the two, so each
    build's peak is its own. ``ru_maxrss`` is read after each step, and
    the number of A's entries and a hash of the sinogram are recorded.
    Desk cases then build A and B once more each, from a cleared cache
    under ``tracemalloc`` (after the timings, so these stay untraced), and
    record each build's traced peak over its matrix's ``data + indices +
    indptr`` bytes.
  - ``cli``: the wall time of ``qnct reconstruct --method qn`` on a
    desk fan scan of ``CLI_VIEWS`` views (``--iters`` at its default),
    with a hash of the written image.
  - ``paper_inference``: one unrolled inference of a freshly built
    paper-size model (256², d = 96, T = 6) on the paper fan scan of
    ``PAPER_VIEWS`` of 512 views: the wall time of the projection that
    makes its sinogram (and builds A) and of the inference (which builds
    FBP's matrix), ``ru_maxrss``, and whether the cold start equals FBP
    bit for bit.

Desk cases and the CLI run ``--rounds`` times per side (each figure is the
median); the paper-scale cases run once per side, since each takes tens
of seconds. Then ``perfbench/run.py --trace 0`` runs on each listed
workload and seed with the pair runner of ``bench_kernels.py``.
``--pairs ''`` skips this part.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from bench_kernels import (_import_side, alternate, bench_parser, checkouts,
                           child, medians, parse_args, peak_rss_mb,
                           write_report)

# case -> (scan, beam, full view count, kept views)
CASES = {
    "desk parallel 16/180": ("desk", "parallel", 180, 16),
    "desk fan 32/180": ("desk", "fan", 180, 32),
    "desk fan 180/180": ("desk", "fan", 180, 180),
    "paper fan 64/512": ("paper", "fan", 512, 64),
    "paper fan 512/512": ("paper", "fan", 512, 512),
}
CLI_VIEWS = 32
PAPER_VIEWS = 64
PAPER_SIZE = 256
DESK_SIZE = 64


def _scan(geo, case):
    scan, beam, n_full, n_v = CASES[case]
    views = geo.uniform_view_subset(n_full, n_v)
    if scan == "paper":
        return geo.paper_geometry(views), PAPER_SIZE
    return geo.desk_geometry(beam, views), DESK_SIZE


def traced_build(geo, tables, g, n) -> dict:
    """Build ``tables``' matrix of scan g at n² from a cleared cache under
    tracemalloc: the traced peak, the matrix's bytes and their ratio."""
    geo._scan_matrix.cache_clear()
    tracemalloc.start()
    try:
        matrix, _ = geo._scan_matrix(tables, g, n, n)
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
    report["a_entries"] = geo._scan_matrix(geo._ray_tables, g, n, n)[0].nnz
    geo._scan_matrix.cache_clear()
    start = time.perf_counter()
    geo.fbp(sino, g, h=n, w=n)
    report["fbp_s"] = time.perf_counter() - start
    report["peak_rss_mb"] = peak_rss_mb()
    report["sino_sha256"] = hashlib.sha256(sino.values.tobytes()).hexdigest()
    if CASES[case][0] == "desk":
        for name, tables in (("a", geo._ray_tables), ("b", geo._pixel_tables)):
            for key, value in traced_build(geo, tables, g, n).items():
                report[f"{name}_{key}"] = value
    return report


def paper_inference(q) -> dict:
    geo, ur = q.geometry, q.unroll
    g = geo.paper_geometry(geo.uniform_view_subset(512, PAPER_VIEWS))
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


def measure(checkout: Path, case: str) -> dict:
    run, _, q = _import_side(checkout)
    result = paper_inference(q) if case == "paper inference" \
        else build_case(q, case)
    return {"env": run.environment(), **result}


def cli_wall(checkout: Path) -> dict:
    """Wall time of one ``qnct reconstruct --method qn`` process."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    geometry = ["--beam", "fan", "--views", str(CLI_VIEWS)]
    with tempfile.TemporaryDirectory() as tmp:
        def qnct(*argv):
            subprocess.run([sys.executable, "-m", "qnct.cli", *argv],
                           cwd=tmp, env=env, check=True,
                           capture_output=True)

        qnct("phantom", "--out", "ph.tomo")
        qnct("project", "--image", "ph.tomo", "--out", "s.tomo", *geometry)
        start = time.perf_counter()
        qnct("reconstruct", "--method", "qn", "--sino", "s.tomo",
             "--out", "r.tomo", *geometry)
        wall = time.perf_counter() - start
        digest = hashlib.sha256(Path(tmp, "r.tomo").read_bytes()).hexdigest()
    return {"wall_s": wall, "out_sha256": digest}


def report(parent: Path, change: Path, rounds: int) -> dict:
    out = {"builds": {}, "rounds": rounds}
    for case, (scan, *_) in CASES.items():
        runs = alternate(parent, change, 1 if scan == "paper" else rounds,
                         lambda checkout: child(__file__, "--measure-side",
                                                checkout, "--case", case))
        out["builds"][case] = {side: medians(rs) for side, rs in runs.items()}
        print(f"{case}: " + ", ".join(
            f"{side} {r['forward_project_s']:.2f} s "
            f"{r['peak_rss_mb']:.0f} MB"
            for side, r in out["builds"][case].items()), file=sys.stderr)
    runs = alternate(parent, change, rounds, cli_wall)
    out["cli"] = {"command": f"reconstruct --method qn --beam fan --views "
                             f"{CLI_VIEWS}",
                  **{side: medians(rs) for side, rs in runs.items()}}
    runs = alternate(parent, change, 1,
                     lambda checkout: child(__file__, "--measure-side",
                                            checkout, "--case",
                                            "paper inference"))
    out["paper_inference"] = {side: rs[0] for side, rs in runs.items()}
    out["env"] = out["paper_inference"]["change"].pop("env")
    out["paper_inference"]["parent"].pop("env")
    return out


def main(argv=None) -> int:
    p = bench_parser(__doc__, "alternating desk and CLI runs per side",
                     ["gd:31-40", "qn:31-40", "train:31-35"],
                     "BENCH_scan_build.json")
    p.add_argument("--measure-side", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--case", help=argparse.SUPPRESS)
    args = parse_args(p, argv)
    if args.measure_side:
        print(json.dumps(measure(args.measure_side.resolve(), args.case)))
        return 0
    parent, change = checkouts(p, args)
    return write_report(args, parent, change,
                        report(parent, change, args.rounds))


if __name__ == "__main__":
    sys.exit(main())
