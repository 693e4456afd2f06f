"""Flat key=value run configuration.

One key per line, `key = value`, `#` comments. No sections; dots in key
names give the grouping. CLI flags override file values, and every run
writes its fully resolved configuration next to the outputs so a rerun
from that file reproduces the outputs bit for bit.

The mixer.* and unroll.* keys fix the reconstructor's architecture and are
also the checkpoint schema: a checkpoint's meta holds exactly these keys
(plus epoch and step), and loading one rebuilds the model from them.

Schema (defaults in parentheses). The scan defaults are those of
geometry.desk_geometry for the beam, and SAD/ADD those of its fan scan;
a command's flags set only the keys it reads, but a file may set any key
(an input that fixes one, such as a sinogram's view count, wins; see cli):

  geometry.beam          parallel | fan (parallel)
  geometry.n_views_full  full view count (180)
  geometry.n_det         detector count (96)
  geometry.angular_start radians (0.0)
  geometry.angular_end   radians (pi parallel, 2 pi fan)
  geometry.det_spacing_mm  (2.0 parallel, 3.0 fan)
  geometry.image_extent_mm (128.0)
  geometry.sad_mm        fan only (300.0)
  geometry.add_mm        fan only (150.0)
  geometry.views         kept view count, 0 for all (0)
  image.size             reconstruction grid (64)
  noise.poisson          photon intensity, 0 disables (0.0)
  noise.gauss_frac       relative gaussian level (0.0)
  noise.attenuation_cap  pre-noise rescale target (4.0)
  mixer.patch / mixer.d / mixer.n_layers   (4 / 48 / 2)
  unroll.T / unroll.k / unroll.codec_width (6 / 2 / 32)
  unroll.fbp_filter      ram-lak | hann (ram-lak)
  unroll.variant         qn | first-order (qn)
  train.epochs / train.lr / train.weight_decay (50 / 1e-4 / 1e-2)
  train.lr_decay_factor / train.lr_decay_after_epoch (0.1 / 40)
  train.max_steps        0 means unlimited (0)
  train.phantoms         procedural phantoms without a data dir (20)
  solver.iters           gd/qn iterations (30)
  solver.step            gd step, 0 estimates 1/L (0.0)
  solver.line_search     qn line search: strong-wolfe | exact-quadratic
                         (strong-wolfe)
  solver.lam             data fidelity weight (1.0)
  solver.reg             tikhonov | smoothed_tv (tikhonov)
  solver.mu / solver.delta  regularizer weight, 0 for none / smoothed TV
                         corner (0.05 / 1e-3)
  phantom.kind           shepp-logan | random-ellipses (shepp-logan)
  ood.count / ood.value  stamped phantoms / disk intensity (5 / 1.0)
  eval.msssim_levels     0 means auto (0)
  eval.data_range        (1.0)
  seed                   master seed (0)
"""

from __future__ import annotations

from . import geometry as geo
from .errors import ConfigError


def default_config(beam: str = geo.PARALLEL) -> dict:
    """The defaults; the scan keys are geo.desk_geometry(beam)'s, and the
    fan-only SAD/ADD the desk fan scan's for either beam."""
    desk = geo.desk_geometry(beam)
    fan = geo.desk_geometry(geo.FAN)
    start, end = desk.angular_range
    return {
        "geometry.beam": beam,
        "geometry.n_views_full": desk.n_views_full,
        "geometry.n_det": desk.n_det,
        "geometry.angular_start": float(start),
        "geometry.angular_end": float(end),
        "geometry.det_spacing_mm": float(desk.det_spacing_mm),
        "geometry.image_extent_mm": float(desk.image_extent_mm),
        "geometry.sad_mm": float(fan.sad_mm),
        "geometry.add_mm": float(fan.add_mm),
        "geometry.views": 0,
        "image.size": 64,
        "noise.poisson": 0.0,
        "noise.gauss_frac": 0.0,
        "noise.attenuation_cap": 4.0,
        "mixer.patch": 4,
        "mixer.d": 48,
        "mixer.n_layers": 2,
        "unroll.T": 6,
        "unroll.k": 2,
        "unroll.codec_width": 32,
        "unroll.fbp_filter": "ram-lak",
        "unroll.variant": "qn",
        "train.epochs": 50,
        "train.lr": 1e-4,
        "train.weight_decay": 1e-2,
        "train.lr_decay_factor": 0.1,
        "train.lr_decay_after_epoch": 40,
        "train.max_steps": 0,
        "train.phantoms": 20,
        "solver.iters": 30,
        "solver.step": 0.0,
        "solver.line_search": "strong-wolfe",
        "solver.lam": 1.0,
        "solver.reg": "tikhonov",
        "solver.mu": 0.05,
        "solver.delta": 1e-3,
        "phantom.kind": "shepp-logan",
        "ood.count": 5,
        "ood.value": 1.0,
        "eval.msssim_levels": 0,
        "eval.data_range": 1.0,
        "seed": 0,
    }


def _coerce(key: str, raw: str, template):
    if isinstance(template, int):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected integer, got {raw!r}") from exc
    if isinstance(template, float):
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected number, got {raw!r}") from exc
    return raw


def parse_config(text: str, base: dict | None = None) -> dict:
    cfg = dict(base or default_config())
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in cfg:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        cfg[key] = _coerce(key, raw, cfg[key])
    return cfg


def format_config(cfg: dict) -> str:
    lines = [f"{key} = {cfg[key]}" for key in sorted(cfg)]
    return "\n".join(lines) + "\n"


def geometry_from_config(cfg: dict) -> geo.Geometry:
    beam = cfg["geometry.beam"]
    if beam not in (geo.PARALLEL, geo.FAN):
        raise ConfigError(f"geometry.beam must be parallel or fan, got {beam!r}")
    kwargs = dict(
        beam=beam,
        n_views_full=cfg["geometry.n_views_full"],
        n_det=cfg["geometry.n_det"],
        angular_range=(cfg["geometry.angular_start"],
                       cfg["geometry.angular_end"]),
        det_spacing_mm=cfg["geometry.det_spacing_mm"],
        image_extent_mm=cfg["geometry.image_extent_mm"],
        n_views=cfg["geometry.views"] or None,  # 0 keeps every view
    )
    if beam == geo.FAN:
        kwargs.update(sad_mm=cfg["geometry.sad_mm"], add_mm=cfg["geometry.add_mm"])
    return geo.Geometry(**kwargs)


def resolve_config(file_text: str | None, overrides: dict) -> dict:
    """Defaults <- file <- overrides, with beam-aware defaults.

    The beam choice is resolved first so that untouched beam-dependent keys
    (angular range, detector spacing) start from the right defaults.
    """
    override_text = "\n".join(f"{k} = {v}" for k, v in overrides.items())
    probe = default_config()
    if file_text:
        probe = parse_config(file_text, probe)
    probe = parse_config(override_text, probe)
    cfg = default_config(probe["geometry.beam"])
    if file_text:
        cfg = parse_config(file_text, cfg)
    cfg = parse_config(override_text, cfg)
    if cfg["image.size"] < 1:
        raise ConfigError(f"image.size must be >= 1, got {cfg['image.size']}")
    return cfg
