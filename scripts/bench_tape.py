#!/usr/bin/env python3
"""Measure the autodiff tape's memory in a training step, parent against change.

    python3 scripts/bench_tape.py --parent DIR --change DIR \
        [--rounds 3] [--pairs train:61-72 gd:61-65 qn:61-65] \
        [--out BENCH_tape_memory.json]

DIR is a source checkout (with ``src/`` and ``perfbench/``) of each side.
Every measurement runs in a fresh process with one BLAS thread, and the
sides alternate which goes first:

  - ``tape``: the perfbench ``train`` recipe (64², 16 of 180 parallel
    views, d = 48, T = 6) at seed ``PROFILE_SEED`` runs two warm-up steps
    and times three more, in ``--rounds`` processes per side. Their
    median, per round, is ``step_ms_scale``: a scale for
    ``profile_off_cost``, not a comparison of the sides (perfbench
    ``train`` pairs are that). Then one step's forward pass runs under
    ``autodiff.profile``, and ``tape_bytes`` walks its tape from the loss,
    from outside: the node count and, per op, the bytes of the arrays the
    nodes' backward closures (and output rebuilds) reference and of the
    input arrays the nodes hold. The walk reads only each entry's
    ``.node``, its ``.data`` where it has one, and the closures, so it
    measures any commit. The profile's ``kept_bytes`` are given per op as
    well, and, from the step's backward pass, each rebuilt op's
    ``rebuilds`` and ``rebuild_ms``, with the profile's cost when off.
    Last, ``traced_tape_bytes`` is what ``tracemalloc`` sees allocated and
    still held at the end of one more forward pass, with only the loss
    held. These figures are the first round's.
  - ``train_steps``: ``train_unrolled`` for 1 and for 3 steps on a
    parallel 16-of-180-view scan with n_det = 1.5 n, T = 6, k = 2 and
    codec width 32, at each (n, d) of ``STEP_SIZES``: ``ru_maxrss`` before
    the first step and at the end, seconds per step, and each step's loss
    (bit patterns, to compare the sides). Desk scale runs ``--rounds``
    times per side, 128² once. Each figure is the median, and
    ``rounds`` gives each round's peak RSS and seconds per step with
    their quartiles.
  - ``paper_step``: the same at 256², d = 96, for ``PAPER_STEPS`` steps,
    in ``--rounds`` processes per side.

Then ``perfbench/run.py --trace 0`` runs on each listed workload and seed
with the pair runner of ``bench_kernels.py``. ``--pairs ''`` skips this
part.
"""

import argparse
import collections
import json
import statistics
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np

from bench_kernels import (PROFILE_SEED, _import_side, _quartiles, alternate,
                           bench_parser, checkouts, child, medians, parse_args,
                           peak_rss_mb, profile_off_cost, write_report)

STEP_SIZES = ((64, 48), (128, 96))
STEP_COUNTS = (1, 3)
PAPER_SIZE = (256, 96)
PAPER_STEPS = 2


def _owner(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _closure_arrays(ad, fn):
    """The arrays fn references through its closure cells and defaults,
    through the Tensors, tuples and lists among them, and through the
    functions among them that the autodiff module defined: helpers beside
    a closure (conv2d's ``weight_columns``), the readers of an input array
    and the rebuilds they call. Functions defined elsewhere (a linear
    operator's maps) are not followed."""
    seen = set()
    values = [fn]
    while values:
        v = values.pop()
        if isinstance(v, ad.Tensor):
            v = v.data
        if isinstance(v, (tuple, list)):
            values.extend(v)
        elif isinstance(v, np.ndarray):
            yield v
        elif (isinstance(v, types.FunctionType) and id(v) not in seen
              and v.__module__ == ad.__name__):
            seen.add(id(v))
            values += [cell.cell_contents for cell in v.__closure__ or ()]
            values += v.__defaults__ or ()


def tape_bytes(ad, loss) -> dict:
    """The memory the tape recorded up to ``loss`` holds, per op: the arrays
    each node's backward closure and output rebuild reference, then the
    data of any entry of its ``inputs`` that has one (an input Tensor,
    where a node holds those).
    Each buffer counts once, for the oldest node that holds it; leaves'
    data (weights, constants) is not counted, nor is ``loss`` itself. The
    walk follows each input entry's ``.node``, so it reads a tape of input
    Tensors and one of links to the producing nodes alike."""
    nodes, counted = {}, set()
    stack = [loss]
    while stack:
        entry = stack.pop()
        if entry.node is None:
            counted.add(id(_owner(entry.data)))  # a leaf's: not the tape's
        elif id(entry.node) not in nodes:
            nodes[id(entry.node)] = entry.node
            stack.extend(entry.node.inputs)
    per_op = collections.defaultdict(
        lambda: {"nodes": 0, "closure_bytes": 0, "input_bytes": 0})
    for node in sorted(nodes.values(), key=lambda node: node.seq):
        entry = per_op[node.op]
        entry["nodes"] += 1
        closures = (node.backward_fn, getattr(node, "rebuild", None))
        for key, arrays in (
                ("closure_bytes", (a for fn in closures if fn is not None
                                   for a in _closure_arrays(ad, fn))),
                ("input_bytes", [i.data for i in node.inputs
                                 if getattr(i, "data", None) is not None])):
            for a in arrays:
                buf = _owner(a)
                if id(buf) not in counted:
                    counted.add(id(buf))
                    entry[key] += buf.nbytes
    return {"nodes": len(nodes),
            "total_bytes": sum(e["closure_bytes"] + e["input_bytes"]
                               for e in per_op.values()),
            "per_op": dict(sorted(per_op.items()))}


def tape_side(checkout: Path, scale: str = "DESK") -> dict:
    run, workloads, q = _import_side(checkout)
    ad = q.autodiff
    scale = getattr(workloads, scale)
    wl = workloads.Train(q, scale, PROFILE_SEED)
    wl.setup(workloads.Phases())
    for i in range(2):
        wl.op(i)
    times = []
    for i in range(2, 5):
        start = time.perf_counter()
        wl.op(i)
        times.append(1e3 * (time.perf_counter() - start))
    step_ms = statistics.median(times)
    item = wl._item(5)
    n = scale.size

    def forward():
        x = q.unroll.unrolled_forward(item.sino, wl.geometry, wl.model, n, n)
        return q.train.mse_loss(x, item.truth)

    with ad.profile() as prof:
        loss = forward()
        walk = tape_bytes(ad, loss)
        loss.backward()
    kept = {op: entry["kept_bytes"] for op, entry in sorted(prof.stats.items())
            if "kept_bytes" in entry}
    rebuilt = {op: {key: entry[key] for key in ("rebuilds", "rebuild_ms")}
               for op, entry in sorted(prof.stats.items())
               if entry.get("rebuilds")}
    tracemalloc.start()
    loss = forward()
    traced = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return {"env": run.environment(), "step_ms": step_ms, "walk": walk,
            "traced_tape_bytes": traced,
            "profile_kept_bytes": kept or None,
            "profile_rebuilds": rebuilt or None,
            "profile_off_cost": profile_off_cost(ad, prof.stats, step_ms)}


def _spread(values: list) -> dict:
    """Each round's value, with the median and quartiles across rounds
    (the median alone for one round)."""
    return {"per_round": values,
            **(_quartiles(values) if len(values) > 1
               else {"median": values[0]})}


def tape_rounds(rs: list) -> dict:
    """One side's ``tape_side`` rounds: the first round's figures, and each
    round's step time with the median and quartiles across rounds."""
    out = {key: value for key, value in rs[0].items() if key != "step_ms"}
    out["step_ms_scale"] = {
        **_spread([r["step_ms"] for r in rs]),
        "note": "one process's median of 3 steps per round: a scale for "
                "profile_off_cost, not a comparison of the sides"}
    return out


def step_recipe(q, n: int, d: int):
    """Three noisy scans of seeded phantoms on a parallel 16-of-180-view
    geometry with n_det = 1.5 n, and a fresh T = 6, k = 2 model."""
    geo = q.geometry
    g = geo.Geometry(n_det=3 * n // 2, det_spacing_mm=128.0 / n,
                     view_subset=geo.uniform_view_subset(180, 16))
    rng = q.init.substream(0, "data")
    items = []
    for idx in range(3):
        truth = q.phantoms.random_ellipses(n, rng).astype(np.float32)
        sino = geo.forward_project(geo.Image(truth, g.pixel_mm(n)), g)
        sino = geo.simulate_measurement(sino, 1e6, 0.05, seed=idx)
        items.append(q.train.TrainItem(truth, sino.values))
    geo.fbp(geo.Sinogram(items[0].sino), g, h=n, w=n)  # builds FBP's matrix
    model = q.unroll.QnMixerModel.build(
        n, n, 0, q.mixer.MixerConfig().scaled(d),
        q.unroll.UnrollConfig(T=6, codec=q.unroll.CodecConfig(2, 32)))
    return items, g, model


def train_steps(q, n: int, d: int, steps: int) -> dict:
    items, g, model = step_recipe(q, n, d)
    rss_before = peak_rss_mb()
    start = time.perf_counter()
    _, curve = q.train.train_unrolled(
        items, g, model,
        q.train.TrainConfig(epochs=1, lr=1e-3, seed=0, max_steps=steps))
    wall = time.perf_counter() - start
    return {"size": n, "d": d, "steps": steps,
            "rss_before_mb": rss_before, "peak_rss_mb": peak_rss_mb(),
            "s_per_step": wall / steps,
            "losses": [float(c["loss"]).hex() for c in curve]}


def measure(checkout: Path, case: str) -> dict:
    if case == "tape":
        return tape_side(checkout)
    run, _, q = _import_side(checkout)
    return {"env": run.environment(),
            **train_steps(q, *map(int, case.split()))}


def step_row(parent: Path, change: Path, case: str, rounds: int) -> dict:
    """``train_steps`` for ``case`` ("n d steps") on both sides in
    ``rounds`` alternating processes: each figure the median of the
    rounds, each round's peak RSS and seconds per step with their
    quartiles, and whether every round's losses agree."""
    runs = alternate(parent, change, rounds,
                     lambda checkout: child(__file__, "--measure-side",
                                            checkout, "--case", case))
    row = {side: {**medians(rs), "rounds": {
        key: _spread([r[key] for r in rs])
        for key in ("peak_rss_mb", "s_per_step")}}
        for side, rs in runs.items()}
    row["same_losses"] = all(r["losses"] == runs["parent"][0]["losses"]
                             for rs in runs.values() for r in rs)
    print(f"{case}: " + ", ".join(
        f"{side} {row[side]['peak_rss_mb']:.0f} MB "
        f"{row[side]['s_per_step']:.2f} s/step"
        for side in ("parent", "change")), file=sys.stderr)
    return row


def report(parent: Path, change: Path, rounds: int) -> dict:
    out = {"rounds": rounds}
    runs = alternate(parent, change, rounds,
                     lambda checkout: child(__file__, "--measure-side",
                                            checkout, "--case", "tape"))
    out["tape"] = {side: tape_rounds(rs) for side, rs in runs.items()}
    out["env"] = out["tape"]["change"].pop("env")
    out["tape"]["parent"].pop("env")
    out["train_steps"] = {
        f"{n}² d={d} steps={steps}": step_row(
            parent, change, f"{n} {d} {steps}", rounds if n == 64 else 1)
        for n, d in STEP_SIZES for steps in STEP_COUNTS}
    n, d = PAPER_SIZE
    out["paper_step"] = step_row(parent, change, f"{n} {d} {PAPER_STEPS}",
                                 rounds)
    return out


def main(argv=None) -> int:
    p = bench_parser(__doc__, "alternating desk training runs per side",
                     ["train:61-72", "gd:61-65", "qn:61-65"],
                     "BENCH_tape_memory.json")
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
