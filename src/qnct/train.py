"""End-to-end training of the unrolled reconstructor.

Sinograms are synthesized from ground-truth phantoms (full-view projection,
photon noise, view subsampling) once per item and cached; each step runs
the unrolled forward on one item, backpropagates the mean squared error,
and applies a decoupled-weight-decay adaptive-moment update. The data
weights lambda_t and PReLU slopes are excluded from decay: pulling
lambda to zero would erase the data term.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import config as cfgmod
from . import geometry as geo
from . import init as pinit
from . import mixer as mx
from .autodiff import Tensor
from .errors import (CheckpointError, ConfigError, NonFiniteError, QnctError,
                     ShapeError)
from .unroll import CodecConfig, QnMixerModel, UnrollConfig, unrolled_forward


@dataclass
class TrainConfig:
    epochs: int = 50
    lr: float = 1e-4
    weight_decay: float = 1e-2
    lr_decay_factor: float = 0.1
    lr_decay_after_epoch: int = 40
    seed: int = 0
    max_steps: int | None = None
    checkpoint_dir: str | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ShapeError(f"epochs must be >= 0, got {self.epochs}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ShapeError(
                f"max_steps must be >= 1 (or None), got {self.max_steps}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ShapeError(f"lr must be finite and > 0, got {self.lr}")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ShapeError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0.0 <= self.lr_decay_factor <= 1.0:
            raise ShapeError("lr decay factor must be in [0, 1]")


class TrainingAborted(QnctError):
    """Loss became non-finite; carries the last good checkpoint path."""

    def __init__(self, message, checkpoint_path=None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


class AdamW:
    """Adaptive moments with decoupled weight decay.

    beta1 0.9, beta2 0.999, eps 1e-8; decay multiplies the weight by
    (1 - lr * wd) independently of the gradient step. A parameter keeps
    wd = 0 when a dotted part of its name starts with an entry of no_decay,
    so "prelu" exempts "inception.b2.prelu1" as well as "encoder.0.prelu".
    """

    def __init__(self, params: dict, lr: float, weight_decay: float = 0.0,
                 no_decay=()):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.no_decay = tuple(no_decay)
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in self.params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in self.params.items()}

    def _decays(self, name: str) -> bool:
        return not any(part.startswith(p) for part in name.split(".")
                       for p in self.no_decay)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            if self.weight_decay and self._decays(name):
                p.data *= 1.0 - self.lr * self.weight_decay
            p.data -= (self.lr * update).astype(p.data.dtype)


NO_DECAY = ("lambda", "prelu")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def default_optimizer(model: QnMixerModel, config: TrainConfig) -> AdamW:
    return AdamW(model.params, config.lr, config.weight_decay,
                 no_decay=NO_DECAY)


@dataclass
class TrainItem:
    truth: np.ndarray
    sino: np.ndarray


def synthesize_dataset(truths, full_geometry: geo.Geometry, n_views: int,
                       poisson: float, gaussian_frac: float, seed: int,
                       attenuation_cap: float = 4.0):
    """Project, add measurement noise, and subsample each ground truth.

    Returns (items, sparse_geometry); noise is seeded per item so the
    dataset is a pure function of (truths, geometry, noise, seed).
    attenuation_cap is simulate_measurement's.
    """
    sparse_geometry = replace(full_geometry, n_views=n_views)
    items = []
    for idx, truth in enumerate(truths):
        truth = np.asarray(truth, dtype=np.float32)
        img = geo.Image(truth, full_geometry.pixel_mm(truth.shape[1]))
        y_full = geo.forward_project(img, full_geometry)
        y_noisy = geo.simulate_measurement(
            y_full, poisson, gaussian_frac, seed=(int(seed) * 100_003 + idx),
            attenuation_cap=attenuation_cap)
        y_sub, _ = geo.subsample_views(y_noisy, full_geometry, n_views)
        items.append(TrainItem(truth, y_sub.values))
    return items, sparse_geometry


def mse_loss(x: Tensor, target: np.ndarray) -> Tensor:
    diff = ad.sub(x, Tensor(np.asarray(target, dtype=x.dtype)
                            .reshape(x.shape)))
    return ad.mean(ad.mul(diff, diff))


def train_unrolled(items, geometry: geo.Geometry, model: QnMixerModel,
                   config: TrainConfig, optimizer: AdamW | None = None):
    """Optimize the model on TrainItems; returns (model, loss_curve).

    Deterministic under config.seed (data order included). Checkpoints are
    written per epoch when checkpoint_dir is set; a non-finite loss, or a
    non-finite iterate in the forward pass, aborts with the last good
    checkpoint attached.
    """
    h, w = items[0].truth.shape
    optimizer = optimizer or default_optimizer(model, config)
    order_rng = pinit.substream(config.seed, "data")
    curve = []
    step = 0
    lr0 = config.lr
    ckpt_dir = Path(config.checkpoint_dir) if config.checkpoint_dir else None
    if ckpt_dir:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    last_ckpt = None
    for epoch in range(config.epochs):
        lr = lr0 * (config.lr_decay_factor
                    if epoch >= config.lr_decay_after_epoch else 1.0)
        optimizer.lr = lr
        for idx in order_rng.permutation(len(items)):
            item = items[int(idx)]
            optimizer.zero_grad()
            try:
                x = unrolled_forward(item.sino, geometry, model, h, w)
            except NonFiniteError as err:  # an iterate reached the projector
                raise TrainingAborted(
                    f"unrolled forward became non-finite at step {step}",
                    checkpoint_path=last_ckpt,
                ) from err
            loss = mse_loss(x, item.truth)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingAborted(
                    f"loss became non-finite at step {step}",
                    checkpoint_path=last_ckpt,
                )
            loss.backward()
            optimizer.step()
            curve.append({"step": step, "epoch": epoch, "loss": value,
                          "lr": lr})
            step += 1
            if config.max_steps is not None and step >= config.max_steps:
                if ckpt_dir:
                    last_ckpt = _save(ckpt_dir, model, epoch, step)
                return model, curve
        if ckpt_dir:
            last_ckpt = _save(ckpt_dir, model, epoch, step)
    return model, curve


def _save(ckpt_dir: Path, model: QnMixerModel, epoch: int, step: int):
    path = ckpt_dir / f"epoch{epoch:04d}.ckpt"
    meta = model_meta(model)
    meta.update({"epoch": epoch, "step": step})
    ad.save_checkpoint(model.params, path, meta)
    return path


# The config keys that fix the architecture; also the checkpoint meta schema.
MODEL_KEYS = tuple(key for key in cfgmod.default_config()
                   if key.startswith(("mixer.", "unroll.")))


def model_configs(cfg: dict) -> tuple:
    """(MixerConfig, UnrollConfig) from the mixer.* and unroll.* config keys."""
    mixer_config = mx.MixerConfig(patch=cfg["mixer.patch"],
                                  n_layers=cfg["mixer.n_layers"])
    unroll_config = UnrollConfig(
        T=cfg["unroll.T"],
        codec=CodecConfig(cfg["unroll.k"], cfg["unroll.codec_width"]),
        fbp_filter=cfg["unroll.fbp_filter"],
        variant=cfg["unroll.variant"],
    )
    return mixer_config.scaled(cfg["mixer.d"]), unroll_config


def model_meta(model: QnMixerModel) -> dict:
    """The model's mixer.* and unroll.* config keys (the checkpoint meta)."""
    mc = model.mixer_config
    uc = model.unroll_config
    return {
        "mixer.patch": mc.patch,
        "mixer.d": mc.d,
        "mixer.n_layers": mc.n_layers,
        "unroll.T": uc.T,
        "unroll.k": uc.codec.k,
        "unroll.codec_width": uc.codec.width,
        "unroll.fbp_filter": uc.fbp_filter,
        "unroll.variant": uc.variant,
    }


def model_from_checkpoint(path) -> QnMixerModel:
    """Rebuild a model: configs from the meta keys, weights bit-exact.

    The weights must have exactly the names and shapes of the architecture
    the meta describes, at the image size their token MLPs were built for.
    Older checkpoints also record unroll.pseudo_inverse; every model now
    starts from FBP, so any value but fbp is refused.
    """
    arrays, meta = ad.load_checkpoint(path)
    start = meta.get("unroll.pseudo_inverse", "fbp").strip()
    if start != "fbp":
        raise CheckpointError(f"{path}: meta key unroll.pseudo_inverse is "
                              f"{start!r}; only fbp models load")
    try:
        cfg = cfgmod.parse_config("\n".join(f"{key} = {meta[key]}"
                                            for key in MODEL_KEYS))
        mixer_config, unroll_config = model_configs(cfg)
        h, w = mx.image_shape(arrays, mixer_config)
    except KeyError as exc:
        raise CheckpointError(f"{path}: lacks meta key or weight {exc}") from None
    except (ConfigError, ShapeError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    got = {name: arr.shape for name, arr in arrays.items()}

    def mismatch(name, want):
        return CheckpointError(
            f"{path}: weight {name!r} is {got.get(name, 'missing')}, "
            f"the architecture in its meta expects {want}")

    # Shapes only, generated one at a time: a crafted meta (a patch of 999,
    # a billion layers) is refused at its first weight the file does not
    # hold, before anything is allocated.
    expected = set()
    for name, shape, _ in QnMixerModel.layout(h, w, mixer_config,
                                              unroll_config):
        if got.get(name) != shape:
            raise mismatch(name, shape)
        expected.add(name)
    for name in got:
        if name not in expected:
            raise mismatch(name, "none")
    params = {name: Tensor(arr, requires_grad=True)
              for name, arr in arrays.items()}
    return QnMixerModel(mixer_config, unroll_config, params)
