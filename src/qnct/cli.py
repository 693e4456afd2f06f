"""Command line interface.

One executable, subcommand per protocol step. Every command accepts
--config (flat key=value file) with flags overriding file values, writes
its fully resolved configuration next to the outputs, and exits 0 on
success or nonzero after printing one machine-parsable line
``error <Kind>: <message>`` to stderr. Every flag that changes an output
sets a config key, so a rerun with the resolved configuration, the same
paths and --method reproduces the outputs bit for bit.

A command has a flag only for a key it reads and no input fixes: --seed
only where a random stream is drawn (phantom, noise, train, ood), --size
only where no input fixes the grid (the checkpoint under --method
qn-mixer, the first image with --data-dir, which every other image must
match), and no --views or --n-det on fbp and reconstruct, whose --sino
rows are geometry.views (the uniform subset of geometry.n_views_full)
and columns geometry.n_det. A given flag that the resolved run does not
read is refused: under a --method that does not read it (reconstruct and
ood, _METHOD_FLAGS), --sad and --add under a parallel beam, --phantoms,
--count and --size with --data-dir, phantom --seed for a Shepp-Logan
phantom, --cap without count noise (noise.poisson 0), noise --seed
without any noise, --reg and --delta under solver.mu 0, --delta unless
solver.reg is smoothed_tv, and train --unroll-k for the first-order
variant. A config file may set any key; a value an input fixes wins.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import geometry as geo
from . import metrics as mt
from . import mixer as mx
from . import phantoms
from . import solvers
from . import tomo_io as tio
from . import train as tr
from . import unroll as ur
from .errors import ConfigError, QnctError, ShapeError
from .init import substream


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error usage: {message}", file=sys.stderr)
        raise SystemExit(2)


# flag name -> (config key, help text)
_SEED_FLAGS = {"seed": ("seed", "master seed (substreams: noise, init, ood, data)")}

_SIZE_FLAGS = {"size": ("image.size", "image grid size in pixels")}

# shared by geometry-defining commands
_GEOMETRY_FLAGS = {
    "beam": ("geometry.beam", "beam type: parallel or fan"),
    "views": ("geometry.views", "kept view count (uniform subset of the full set)"),
    "n_views_full": ("geometry.n_views_full", "full view count before subsampling"),
    "n_det": ("geometry.n_det", "detector count"),
    "det_spacing": ("geometry.det_spacing_mm", "detector pitch in mm"),
    "extent": ("geometry.image_extent_mm", "image field of view in mm"),
    "angular_start": ("geometry.angular_start", "first view angle in radians"),
    "angular_end": ("geometry.angular_end", "view angle range end (exclusive) in radians"),
    "sad": ("geometry.sad_mm", "source-to-axis distance in mm (fan)"),
    "add": ("geometry.add_mm", "axis-to-detector distance in mm (fan)"),
}
_SCAN_FLAGS = {flag: entry for flag, entry in _GEOMETRY_FLAGS.items()
               if flag not in ("views", "n_det")}

_NOISE_FLAGS = {
    "poisson": ("noise.poisson", "photon intensity for count noise; 0 disables"),
    "gauss_frac": ("noise.gauss_frac", "gaussian sigma as a fraction of mean |line integral|"),
    "cap": ("noise.attenuation_cap", "attenuation rescale target before count noise"),
}

_TRAIN_FLAGS = {
    "epochs": ("train.epochs", "training epochs"),
    "lr": ("train.lr", "learning rate"),
    "weight_decay": ("train.weight_decay", "decoupled weight decay"),
    "steps": ("train.max_steps", "hard cap on optimizer steps (0 = epochs only)"),
    "variant": ("unroll.variant", "unrolled update rule: qn or first-order"),
    "unroll_T": ("unroll.T", "unrolled iteration count"),
    "unroll_k": ("unroll.k", "codec downsampling stacks (latent factor 2^k)"),
    "mixer_d": ("mixer.d", "mixer embedding width (divisible by 6)"),
    "phantoms": ("train.phantoms", "procedural phantom count when no --data-dir"),
}

_ITERS_FLAGS = {"iters": ("solver.iters", "iteration count (gd/qn)")}

_SOLVER_FLAGS = {
    **_ITERS_FLAGS,
    "step": ("solver.step", "gd step size; 0 estimates 1/L by power iteration"),
    "line_search": ("solver.line_search",
                    "qn line search: strong-wolfe or exact-quadratic"),
    "lam": ("solver.lam", "data fidelity weight"),
    "reg": ("solver.reg", "regularizer: tikhonov or smoothed_tv"),
    "mu": ("solver.mu", "regularizer weight; 0 means no regularizer"),
    "delta": ("solver.delta", "smoothed TV corner rounding"),
}

# config key -> the values it accepts, checked for every command
_CHOICES = {"solver.line_search": tuple(solvers.LINE_SEARCHES),
            "solver.reg": solvers.REGULARIZERS,
            "unroll.fbp_filter": geo.FBP_FILTERS,
            "phantom.kind": ("shepp-logan", "random-ellipses")}


def _add_config_flags(parser, *tables):
    """Add --config and one --flag per config key of the tables, and record
    the merged table on args."""
    parser.add_argument("--config", help="flat key=value config file")
    flags = {flag: entry for table in tables for flag, entry in table.items()}
    for flag, (_key, help_text) in flags.items():
        parser.add_argument("--" + flag.replace("_", "-"), dest=f"cfg_{flag}",
                            default=None, help=help_text)
    parser.set_defaults(cfg_flags=flags)


def _resolve(args) -> dict:
    file_text = None
    if args.config:
        with open(args.config) as fh:
            file_text = fh.read()
    overrides = {key: raw for flag, (key, _help) in args.cfg_flags.items()
                 if (raw := getattr(args, f"cfg_{flag}")) is not None}
    cfg = cfgmod.resolve_config(file_text, overrides)
    for key, choices in _CHOICES.items():
        if cfg[key] not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)}, "
                              f"got {cfg[key]!r}")
    if cfg["geometry.beam"] == geo.PARALLEL:
        _refuse_given(args, ("sad", "add"), "geometry.beam parallel")
    if getattr(args, "data_dir", None):
        _refuse_given(args, ("phantoms", "count", "size"), "--data-dir")
    if cfg["noise.poisson"] == 0:
        _refuse_given(args, ("cap",), "noise.poisson 0")
    if cfg["solver.mu"] == 0:
        _refuse_given(args, ("reg", "delta"), "solver.mu 0")
    if cfg["solver.reg"] != solvers.REG_SMOOTHED_TV:
        _refuse_given(args, ("delta",), f"solver.reg {cfg['solver.reg']}")
    if cfg["unroll.variant"] == ur.VARIANT_FIRST_ORDER:
        _refuse_given(args, ("unroll_k",), "unroll.variant first-order")
    return cfg


def _refuse_given(args, flags, reader: str):
    """One ConfigError naming each of flags given on the command line (and
    its config key): reader, the setting in force, leaves them unread."""
    names = []
    for flag in flags:
        entry = args.cfg_flags.get(flag)
        if getattr(args, f"cfg_{flag}" if entry else flag, None) is not None:
            names.append(f"--{flag.replace('_', '-')}"
                         + (f" ({entry[0]})" if entry else ""))
    if names:
        raise ConfigError(f"{reader} does not read {', '.join(names)}")


def _write_resolved(cfg: dict, out_path: Path, command: str):
    target = out_path / "resolved.cfg" if out_path.is_dir() \
        else out_path.with_name(out_path.name + ".cfg")
    with open(target, "w") as fh:
        fh.write(f"# command: {command}\n")
        fh.write(cfgmod.format_config(cfg))


def _load_image(path) -> np.ndarray:
    values, kind = tio.read_tomo(path)
    if kind != tio.KIND_IMAGE:
        raise QnctError(f"{path} holds a sinogram, expected an image")
    return values


def _load_sino(path) -> geo.Sinogram:
    values, kind = tio.read_tomo(path)
    if kind != tio.KIND_SINOGRAM:
        raise QnctError(f"{path} holds an image, expected a sinogram")
    return geo.Sinogram(values)


def _tomo_files(directory) -> list:
    files = sorted(Path(directory).glob("*.tomo"))
    if not files:
        raise QnctError(f"no .tomo images under {directory}")
    return files


def _truths(data_dir, cfg, key: str, side=None) -> list:
    """The .tomo images under data_dir, all side square (side defaults to
    the first's), or else cfg[key] phantoms; image.size records the side."""
    if data_dir:
        truths = []
        for f in _tomo_files(data_dir):
            image = _load_image(f)
            side = side or image.shape[0]
            if image.shape != (side, side) or not side:
                raise ShapeError(f"{f} is {image.shape}, image.size is {side}")
            truths.append(image)
        cfg["image.size"] = side
        return truths
    if cfg[key] < 1:
        raise ConfigError(f"{key} must be >= 1, got {cfg[key]}")
    rng = substream(cfg["seed"], "data")
    return [phantoms.random_ellipses(cfg["image.size"], rng)
            for _ in range(cfg[key])]


def _load_model(path, cfg):
    """The --weights model and its square grid's side, both recorded in cfg."""
    if not path:
        raise QnctError("--method qn-mixer requires --weights")
    model = tr.model_from_checkpoint(path)
    h, w = mx.image_shape(model.params, model.mixer_config)
    if h != w:
        raise ShapeError(f"{path}: model is for {h}x{w} images, not square")
    cfg.update(tr.model_meta(model))
    cfg["image.size"] = h
    return model, h


def _sino_scan(path, cfg):
    """The sinogram at path and the scan its view and detector counts fix."""
    y = _load_sino(path)
    cfg["geometry.views"], cfg["geometry.n_det"] = y.values.shape
    return y, cfgmod.geometry_from_config(cfg)


def _objective(cfg, g: geo.Geometry, sino: geo.Sinogram):
    """The solver.* objective on the scan g and its data sino."""
    size = cfg["image.size"]
    reg = solvers.Regularizer(cfg["solver.reg"], mu=cfg["solver.mu"],
                              delta=cfg["solver.delta"])
    return solvers.ObjectiveSpec.for_geometry(g, sino, size, size,
                                              cfg["solver.lam"], reg)


def _gd_step(cfg, g: geo.Geometry) -> float:
    """solver.step, or when it is 0 the step estimate_step finds for the
    solver.* objective on g, which depends on the scan, lam and mu but not
    on the data."""
    if cfg["solver.step"]:
        return cfg["solver.step"]
    zeros = geo.Sinogram(np.zeros((g.n_views, g.n_det)))
    return solvers.estimate_step(_objective(cfg, g, zeros), cfg["image.size"])


def _classical(method: str, cfg, g: geo.Geometry, sino: geo.Sinogram,
               step=None):
    """FBP with the unroll.fbp_filter key, then gd or qn from it with the
    solver.* keys ("fbp" stops at FBP); returns (float32 image, trace). gd
    runs at step, else at _gd_step's."""
    size = cfg["image.size"]
    spec = _objective(cfg, g, sino)
    x = geo.fbp(sino, g, cfg["unroll.fbp_filter"], h=size, w=size).values
    trace = []
    if method == "gd":
        x, trace = solvers.gradient_descent(
            spec, x.astype(np.float64),
            step if step is not None else _gd_step(cfg, g),
            cfg["solver.iters"])
    elif method == "qn":
        x, trace, _ = solvers.qn_reconstruct(
            spec, x.astype(np.float64), cfg["solver.iters"],
            line_search=cfg["solver.line_search"])
    return x.astype(np.float32), trace


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_phantom(args):
    cfg = _resolve(args)
    size = cfg["image.size"]
    kind = cfg["phantom.kind"]
    if kind == "shepp-logan":
        _refuse_given(args, ("seed",), "phantom.kind shepp-logan")
        values = phantoms.shepp_logan(size)
    else:
        values = phantoms.random_ellipses(size, substream(cfg["seed"], "data"))
    out = Path(args.out)
    tio.write_tomo(out, values, tio.KIND_IMAGE)
    _write_resolved(cfg, out, "phantom")
    print(f"wrote {out} ({size}x{size} {kind})")
    return 0


def cmd_project(args):
    cfg = _resolve(args)
    g = cfgmod.geometry_from_config(cfg)
    values = _load_image(args.image)
    img = geo.Image(values, g.pixel_mm(values.shape[1]))
    sino = geo.forward_project(img, g)
    out = Path(args.out)
    tio.write_tomo(out, sino.values, tio.KIND_SINOGRAM)
    _write_resolved(cfg, out, "project")
    print(f"wrote {out} ({sino.n_v} views x {sino.n_d} detectors)")
    return 0


def cmd_fbp(args):
    cfg = _resolve(args)
    y, g = _sino_scan(args.sino, cfg)
    size = cfg["image.size"]
    rec = geo.fbp(y, g, cfg["unroll.fbp_filter"], h=size, w=size)
    out = Path(args.out)
    tio.write_tomo(out, rec.values, tio.KIND_IMAGE)
    _write_resolved(cfg, out, "fbp")
    print(f"wrote {out} ({size}x{size})")
    return 0


def cmd_noise(args):
    cfg = _resolve(args)
    if cfg["noise.poisson"] == 0 and cfg["noise.gauss_frac"] == 0:
        _refuse_given(args, ("seed",),
                      "noise.poisson 0 and noise.gauss_frac 0")
    noisy = geo.simulate_measurement(
        _load_sino(args.sino), cfg["noise.poisson"], cfg["noise.gauss_frac"],
        seed=cfg["seed"], attenuation_cap=cfg["noise.attenuation_cap"])
    out = Path(args.out)
    tio.write_tomo(out, noisy.values, tio.KIND_SINOGRAM)
    _write_resolved(cfg, out, "noise")
    print(f"wrote {out}")
    return 0


# flag -> the --method values that read it; reconstruct and ood refuse a
# given flag under any other (ood has only --iters, --weights and --size)
_METHOD_FLAGS = {
    **{flag: ("gd", "qn") for flag in _SOLVER_FLAGS},
    "step": ("gd",),
    "line_search": ("qn",),
    "weights": ("qn-mixer",),
    "reference": ("qn-mixer",),
    "intermediates_dir": ("qn-mixer",),
    "size": ("fbp", "gd", "qn"),
}


def _refuse_unread_flags(args):
    """One ConfigError naming each given flag (and its config key) that
    args.method does not read."""
    _refuse_given(args, [flag for flag, methods in _METHOD_FLAGS.items()
                         if args.method not in methods],
                  f"--method {args.method}")


def cmd_reconstruct(args):
    _refuse_unread_flags(args)
    cfg = _resolve(args)
    y, g = _sino_scan(args.sino, cfg)
    out = Path(args.out)

    if args.method == "qn-mixer":
        model, size = _load_model(args.weights, cfg)
        reference = (tio.read_tomo(args.reference)[0]
                     if args.reference else None)
        img, trace, inter = ur.unrolled_reconstruct(
            y, g, model, size, size, reference=reference,
            keep_intermediates=bool(args.intermediates_dir))
        tio.write_tomo(out, img.values, tio.KIND_IMAGE)
        if args.trace:
            tio.write_csv(args.trace, trace, ur.TRACE_COLUMNS)
        if args.intermediates_dir:
            inter_dir = Path(args.intermediates_dir)
            inter_dir.mkdir(parents=True, exist_ok=True)
            for t, x_t in enumerate(inter):
                tio.write_tomo(inter_dir / f"iter{t:03d}.tomo", x_t,
                               tio.KIND_IMAGE)
    else:
        x, trace = _classical(args.method, cfg, g, y)
        tio.write_tomo(out, x, tio.KIND_IMAGE)
        if args.trace:
            tio.write_csv(args.trace, trace, solvers.TRACE_COLUMNS)
    _write_resolved(cfg, out, f"reconstruct {args.method}")
    print(f"wrote {out}")
    return 0


def cmd_train(args):
    cfg = _resolve(args)
    out_dir = Path(args.out_dir)  # train_unrolled creates it
    truths = _truths(args.data_dir, cfg, "train.phantoms")
    size = cfg["image.size"]
    seed = cfg["seed"]

    full_cfg = dict(cfg)
    full_cfg["geometry.views"] = 0  # full-view projection before subsampling
    g_full = cfgmod.geometry_from_config(full_cfg)
    n_views = cfg["geometry.views"] or g_full.n_views_full
    items, g_sparse = tr.synthesize_dataset(
        truths, g_full, n_views, cfg["noise.poisson"],
        cfg["noise.gauss_frac"], seed, cfg["noise.attenuation_cap"])

    model = ur.QnMixerModel.build(size, size, seed, *tr.model_configs(cfg))
    train_config = tr.TrainConfig(
        epochs=cfg["train.epochs"], lr=cfg["train.lr"],
        weight_decay=cfg["train.weight_decay"],
        lr_decay_factor=cfg["train.lr_decay_factor"],
        lr_decay_after_epoch=cfg["train.lr_decay_after_epoch"],
        seed=seed, max_steps=cfg["train.max_steps"] or None,
        checkpoint_dir=str(out_dir),
    )
    model, curve = tr.train_unrolled(items, g_sparse, model, train_config)
    tio.write_csv(out_dir / "loss.csv", curve, ("step", "epoch", "loss", "lr"))
    _write_resolved(cfg, out_dir, "train")
    print(f"trained {len(curve)} steps; checkpoints and loss.csv in {out_dir}")
    return 0


def cmd_eval(args):
    cfg = _resolve(args)
    levels = cfg["eval.msssim_levels"]
    if not 0 <= levels <= len(mt.MS_SSIM_WEIGHTS):
        raise ConfigError(f"eval.msssim_levels must be in 0..5, got {levels}")
    recon_dir = Path(args.recon_dir)
    ref_dir = Path(args.ref_dir)
    names = sorted(set(p.name for p in recon_dir.glob("*.tomo"))
                   & set(p.name for p in ref_dir.glob("*.tomo")))
    if not names:
        raise QnctError("no matching .tomo file names between the two dirs")
    rows = []
    for name in names:
        x = _load_image(recon_dir / name)
        ref = _load_image(ref_dir / name)
        row = mt.evaluate_pair(x, ref, cfg["eval.data_range"], levels)
        rows.append({"image_id": name, "psnr_db": row["psnr"],
                     "ssim": row["ssim"], "ms_ssim": row["ms_ssim"]})
    out = Path(args.out)
    tio.write_csv(out, rows, ("image_id", "psnr_db", "ssim", "ms_ssim"))
    _write_resolved(cfg, out, "eval")
    psnrs = [r["psnr_db"] for r in rows]
    # identical pairs give +inf rows; their spread is not a number
    with np.errstate(invalid="ignore"):
        spread = np.std(psnrs)
    print(f"wrote {out}: {len(rows)} images, "
          f"PSNR {np.mean(psnrs):.2f}+-{spread:.2f} dB, "
          f"SSIM {np.mean([r['ssim'] for r in rows]):.4f}")
    return 0


def cmd_nps(args):
    cfg = _resolve(args)
    files = _tomo_files(args.dir)
    images = [_load_image(f) for f in files]
    # the ROI layout is laid out once, on the first image's square grid
    size = images[0].shape[0]
    for f, img in zip(files, images):
        if img.shape != (size, size):
            raise ShapeError(f"{f} is {img.shape}; the ROI layout is for "
                             f"{(size, size)}, the first image's square")
    if args.ref_dir:
        refs = {p.name: p for p in Path(args.ref_dir).glob("*.tomo")}
        diffs = []
        for f, img in zip(files, images):
            if f.name not in refs:
                continue
            ref = _load_image(refs[f.name])
            if ref.shape != img.shape:
                raise ShapeError(f"reference {refs[f.name]} is {ref.shape}, "
                                 f"image {f} is {img.shape}")
            diffs.append(img - ref)
        if not diffs:
            raise QnctError("no matching reference images")
        images = diffs
    rois, roi_size = mt.paper_roi_layout(size)
    freq, curve, nps2d = mt.nps_radial(images, rois, roi_size)
    rows = [{"freq_cycles_per_px": f, "nps_hu2px2": v}
            for f, v in zip(freq, curve)]
    out = Path(args.out)
    tio.write_csv(out, rows, ("freq_cycles_per_px", "nps_hu2px2"))
    if args.map:
        tio.write_tomo(args.map, nps2d.astype(np.float32), tio.KIND_IMAGE)
    _write_resolved(cfg, out, "nps")
    print(f"wrote {out} ({len(images)} images x {len(rois)} ROIs)")
    return 0


def cmd_ood(args):
    _refuse_unread_flags(args)
    cfg = _resolve(args)
    g = cfgmod.geometry_from_config(cfg)
    model, side = _load_model(args.weights, cfg) \
        if args.method == "qn-mixer" else (None, None)
    truths = _truths(args.data_dir, cfg, "ood.count", side)
    size = cfg["image.size"]
    if size < mt.SSIM_WINDOW:  # every image is scored by SSIM
        raise ShapeError(f"ood: image {truths[0].shape} is smaller than the "
                         f"{mt.SSIM_WINDOW}-pixel SSIM window")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng_ood = substream(cfg["seed"], "ood")
    # the same scan and objective for every image: one step estimate
    step = _gd_step(cfg, g) if args.method == "gd" else None
    rows = []
    for idx, truth in enumerate(truths):
        stamped, mask = mt.add_circle_ood(truth, rng=rng_ood,
                                          value=cfg["ood.value"])
        img = geo.Image(stamped, g.pixel_mm(size))
        y = geo.forward_project(img, g)  # noise-free per the protocol
        if args.method == "qn-mixer":
            rec, _, _ = ur.unrolled_reconstruct(y, g, model, size, size)
            recon = rec.values
        else:
            recon, _ = _classical(args.method, cfg, g, y, step)
        crop = mt.eval_ood_crop(recon, stamped, mask)
        rows.append({
            "image_id": f"{idx:03d}",
            "full_psnr": mt.psnr(recon, stamped),
            "full_ssim": mt.ssim(recon, stamped),
            "crop_psnr": crop["psnr"],
            "crop_ssim": crop["ssim"],
        })
        tio.write_tomo(out_dir / f"{idx:03d}_truth.tomo", stamped,
                       tio.KIND_IMAGE)
        tio.write_tomo(out_dir / f"{idx:03d}_mask.tomo",
                       mask.astype(np.float32), tio.KIND_IMAGE)
        tio.write_tomo(out_dir / f"{idx:03d}_recon.tomo", recon,
                       tio.KIND_IMAGE)
    tio.write_csv(out_dir / "ood.csv", rows,
                  ("image_id", "full_psnr", "full_ssim", "crop_psnr",
                   "crop_ssim"))
    _write_resolved(cfg, out_dir, "ood")
    print(f"wrote {out_dir}/ood.csv ({len(rows)} images)")
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="qnct",
                     description="sparse-view CT reconstruction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a test object")
    p.add_argument("--out", required=True, help="output TOMO1 image")
    _add_config_flags(p, _SEED_FLAGS, _SIZE_FLAGS, {
        "kind": ("phantom.kind", "test object: shepp-logan or random-ellipses"),
    })
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("project", help="forward-project an image")
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True, help="output TOMO1 sinogram")
    _add_config_flags(p, _GEOMETRY_FLAGS)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("fbp", help="filtered backprojection")
    p.add_argument("--sino", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, _SCAN_FLAGS, _SIZE_FLAGS,
                      {"filter": ("unroll.fbp_filter", "fbp filter: ram-lak or hann")})
    p.set_defaults(func=cmd_fbp)

    p = sub.add_parser("noise", help="simulate measurement noise")
    p.add_argument("--sino", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, _SEED_FLAGS, _NOISE_FLAGS)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("reconstruct", help="reconstruct from a sinogram")
    p.add_argument("--method", choices=("gd", "qn", "qn-mixer"),
                   required=True)
    p.add_argument("--sino", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--weights", help="checkpoint (qn-mixer)")
    p.add_argument("--trace", help="per-iteration trace CSV")
    p.add_argument("--intermediates-dir",
                   help="dump per-iteration images (qn-mixer)")
    p.add_argument("--reference", help="reference image for trace PSNR")
    _add_config_flags(p, _SCAN_FLAGS, _SIZE_FLAGS, _SOLVER_FLAGS)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("train", help="train the unrolled reconstructor")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--data-dir", help="directory of TOMO1 ground truths")
    _add_config_flags(p, _SEED_FLAGS, _GEOMETRY_FLAGS, _SIZE_FLAGS,
                      _NOISE_FLAGS, _TRAIN_FLAGS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score reconstructions against references")
    p.add_argument("--recon-dir", required=True)
    p.add_argument("--ref-dir", required=True)
    p.add_argument("--out", required=True, help="metrics CSV")
    _add_config_flags(p, {
        "msssim_levels": ("eval.msssim_levels", "multi-scale ssim levels (0 = largest feasible)"),
        "data_range": ("eval.data_range", "intensity range for psnr/ssim"),
    })
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("nps", help="noise power spectrum of noise images")
    p.add_argument("--dir", required=True, help="directory of TOMO1 images")
    p.add_argument("--ref-dir", help="subtract same-named references")
    p.add_argument("--out", required=True, help="radial curve CSV")
    p.add_argument("--map", help="optional 2-d spectrum TOMO1 output")
    _add_config_flags(p)
    p.set_defaults(func=cmd_nps)

    p = sub.add_parser("ood", help="white-circle anomaly protocol")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--weights", help="checkpoint (qn-mixer)")
    p.add_argument("--method",
                   choices=("fbp", "gd", "qn", "qn-mixer"), default="fbp")
    p.add_argument("--data-dir", help="directory of TOMO1 ground truths")
    _add_config_flags(p, _SEED_FLAGS, _GEOMETRY_FLAGS, _SIZE_FLAGS,
                      _ITERS_FLAGS, {
        "count": ("ood.count", "procedural phantom count when no --data-dir"),
        "value": ("ood.value", "stamped disk intensity"),
    })
    p.set_defaults(func=cmd_ood)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QnctError as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, MemoryError) as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
