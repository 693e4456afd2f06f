"""Unrolled quasi-Newton reconstruction with a latent secant update.

Each unrolled iteration encodes the current learned gradient into a small
latent vector r = E(grad J(x)), takes the preconditioned latent step
s = -H r, decodes it back to image space, and refines H with the rank-two
secant update using (s, z = r' - r). H is the classical solver's
solvers.BfgsState: the accepted curvature pairs, applied by the two-loop
recursion, never a matrix. It lives outside the autodiff tape (the step
treats it as a constant symmetric operator, and its update runs detached
in float64); everything else, including the per-iteration data weight and
the FBP path, is differentiable end to end.

The first-order variant drops H and the codec and steps x - grad J(x)
directly, which is the equal-budget baseline for the quasi-Newton model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import geometry as geo
from . import init as pinit
from . import mixer as mx
from .autodiff import Tensor
from .errors import ShapeError
from .solvers import (BfgsState, bfgs_update, check_pair_budget,
                      secant_diagnostics, symmetry_index)

VARIANT_QN = "qn"
VARIANT_FIRST_ORDER = "first-order"

# si and secant_residual mean what they mean in solvers.TRACE_COLUMNS;
# frobenius_step is |H' - H|_F of the update (0.0 when it was skipped)
TRACE_COLUMNS = ("t", "psnr", "si", "secant_residual", "frobenius_step")


@dataclass(frozen=True)
class CodecConfig:
    """Gradient encoder / direction decoder layout.

    The encoder stacks k rounds of [3x3 conv, instance norm, PReLU,
    2x2 max pool] and finishes with a 1x1 conv to a one-channel latent;
    the decoder mirrors it with 2x2 stride-2 transposed convs.
    """

    k: int = 2
    width: int = 32

    def __post_init__(self):
        if self.k < 1:
            raise ShapeError("codec needs at least one downsampling stack")
        if self.width < 1:
            raise ShapeError("codec width must be >= 1")

    @property
    def factor(self) -> int:
        return 2 ** self.k

    def latent_shape(self, h: int, w: int) -> tuple:
        f = self.factor
        if h % f or w % f:
            raise ShapeError(
                f"image {h}x{w} not divisible by the codec factor {f}"
            )
        return h // f, w // f


@dataclass(frozen=True)
class UnrollConfig:
    """Unrolled loop shape: iteration count, codec depth, operator choices."""

    T: int = 6
    codec: CodecConfig = field(default_factory=CodecConfig)
    fbp_filter: str = geo.FILTER_RAM_LAK
    variant: str = VARIANT_QN

    def __post_init__(self):
        if self.T < 1:
            raise ShapeError("unroll needs T >= 1")
        if self.fbp_filter not in geo.FBP_FILTERS:
            raise ShapeError(f"unknown fbp filter {self.fbp_filter!r}")
        if self.variant not in (VARIANT_QN, VARIANT_FIRST_ORDER):
            raise ShapeError(f"unknown unroll variant {self.variant!r}")


def codec_layout(config: CodecConfig):
    """(name, shape, init) of every codec weight, in init order (see
    ``init.materialize``): Xavier conv weights, zero biases, unit norms,
    0.25 PReLU slopes."""
    for side, conv, k in (("encoder", "conv", 3), ("decoder", "convt", 2)):
        in_c = 1
        for i in range(config.k):
            base = f"{side}.{i}"
            # a conv2d kernel is (out, in, k, k), a transposed one (in, out, k, k)
            shape = ((config.width, in_c, k, k) if side == "encoder"
                     else (in_c, config.width, k, k))
            yield (f"{base}.{conv}.w", shape,
                   ("xavier", in_c * k * k, config.width * k * k))
            yield f"{base}.{conv}.b", (config.width,), pinit.ZEROS
            yield f"{base}.norm.gamma", (config.width,), pinit.ONES
            yield f"{base}.norm.beta", (config.width,), pinit.ZEROS
            yield f"{base}.prelu", (config.width,), ("const", 0.25)
            in_c = config.width
        yield (f"{side}.head.w", (1, config.width, 1, 1),
               ("xavier", config.width, 1))
        yield f"{side}.head.b", (1,), pinit.ZEROS


def encode_gradient(grad: Tensor, params: dict, config: CodecConfig) -> Tensor:
    """(1,1,h,w) gradient to a flat latent of length (h w) / 4^k."""
    if grad.data.ndim != 4 or grad.shape[0] != 1 or grad.shape[1] != 1:
        raise ShapeError(f"encode_gradient: expected (1,1,h,w), got {grad.shape}")
    lh, lw = config.latent_shape(grad.shape[2], grad.shape[3])
    v = grad
    for i in range(config.k):
        base = f"encoder.{i}"
        v = ad.conv2d(v, params[base + ".conv.w"], params[base + ".conv.b"],
                      padding=1)
        v = ad.instance_norm_prelu(v, params[base + ".norm.gamma"],
                                   params[base + ".norm.beta"],
                                   params[base + ".prelu"])
        v = ad.maxpool2d(v, 2)
    v = ad.conv2d(v, params["encoder.head.w"], params["encoder.head.b"])
    return ad.reshape(v, (lh * lw,))


def decode_direction(latent: Tensor, params: dict, config: CodecConfig,
                     h: int, w: int) -> Tensor:
    """Flat latent back to a (1,1,h,w) update field."""
    lh, lw = config.latent_shape(h, w)
    if latent.shape != (lh * lw,):
        raise ShapeError(
            f"decode_direction: latent {latent.shape} vs expected ({lh * lw},)"
        )
    v = ad.reshape(latent, (1, 1, lh, lw))
    for i in range(config.k):
        base = f"decoder.{i}"
        v = ad.conv_transpose2d(v, params[base + ".convt.w"],
                                params[base + ".convt.b"])
        v = ad.instance_norm_prelu(v, params[base + ".norm.gamma"],
                                   params[base + ".norm.beta"],
                                   params[base + ".prelu"])
    return ad.conv2d(v, params["decoder.head.w"], params["decoder.head.b"])


# ---------------------------------------------------------------------------
# model bundle
# ---------------------------------------------------------------------------

@dataclass
class QnMixerModel:
    """Weights plus configuration for the unrolled reconstructor."""

    mixer_config: mx.MixerConfig
    unroll_config: UnrollConfig
    params: dict

    @classmethod
    def build(cls, h: int, w: int, seed: int,
              mixer_config: mx.MixerConfig | None = None,
              unroll_config: UnrollConfig | None = None) -> "QnMixerModel":
        mixer_config = mixer_config or mx.desk_mixer_config()
        unroll_config = unroll_config or UnrollConfig()
        rng = pinit.substream(seed, "init")
        layout = cls.layout(h, w, mixer_config, unroll_config)
        return cls(mixer_config, unroll_config,
                   pinit.materialize(layout, rng))

    @staticmethod
    def layout(h: int, w: int, mixer_config: mx.MixerConfig,
               unroll_config: UnrollConfig):
        """(name, shape, init) of every weight, in init order; generated
        lazily, so a caller can check shapes without allocating any."""
        yield from mx.mixer_layout(mixer_config, h, w)
        if unroll_config.variant == VARIANT_QN:
            yield from codec_layout(unroll_config.codec)
        for t in range(unroll_config.T):
            yield f"lambda.{t}", (1,), pinit.ZEROS

    def lam(self, t: int) -> Tensor:
        return self.params[f"lambda.{t}"]


# ---------------------------------------------------------------------------
# learned gradient and the latent-BFGS iteration
# ---------------------------------------------------------------------------

class _Physics:
    """Differentiable scan operators for one geometry and image size.

    The pseudo-inverse is FBP with the model's filter.
    """

    def __init__(self, geometry: geo.Geometry, h: int, w: int,
                 fbp_filter: str):
        self.op = geo.ScanOperator(geometry, h, w, fbp_filter)
        self.h, self.w = h, w

    def project(self, x: Tensor) -> Tensor:
        return ad.linear_operator(
            x, lambda v: self.op.forward(v[0, 0]),
            lambda g: self.op.adjoint(g)[None, None], name="forward_project")

    def pinv(self, r: Tensor) -> Tensor:
        return ad.linear_operator(
            r, lambda v: self.op.fbp(v)[None, None],
            lambda g: self.op.fbp_transpose(g[0, 0]), name="fbp")


def learned_gradient(x: Tensor, y: Tensor, physics: _Physics, model:
                     QnMixerModel, t: int) -> Tensor:
    """lambda_t * FBP(A x - y) + G(x), differentiable in params and x."""
    residual = ad.sub(physics.project(x), y)
    data_term = ad.mul(physics.pinv(residual), model.lam(t))
    reg = mx.incept_mixer_forward(x, model.params, model.mixer_config)
    return ad.add(data_term, reg)


@dataclass
class LatentBfgsState:
    """Latent inverse Hessian (curvature pairs), the current latent r, and
    the diagnostics of the last update (TRACE_COLUMNS)."""

    bfgs: BfgsState
    r: Tensor
    si: float = 0.0
    secant_residual: float = 0.0
    frobenius_step: float = 0.0

    @classmethod
    def initial(cls, r: Tensor, updates: int):
        """H0 = I; refuses a loop whose pairs could exceed HESSIAN_BYTE_LIMIT."""
        check_pair_budget(updates, r.size, f"a {r.size}-dim latent",
                          "use fewer iterations or a deeper codec (larger k)")
        return cls(BfgsState(), r)

    def updated(self, s64: np.ndarray, z64: np.ndarray,
                r_next: Tensor) -> "LatentBfgsState":
        """Secant-update H with (s, z) and roll the latent forward."""
        bfgs, accepted = bfgs_update(self.bfgs, s64, z64)
        if not accepted:
            # a skipped update leaves H, and so its symmetry index, unchanged
            return LatentBfgsState(bfgs, r_next, self.si, np.nan, 0.0)
        _, secant, si = secant_diagnostics(
            bfgs.apply, s64, z64, r_next.data.astype(np.float64),
            index=symmetry_index)
        step = _update_norm(s64, z64, self.bfgs.apply(z64), bfgs.pairs[-1][2])
        return LatentBfgsState(bfgs, r_next, si, secant, step)


def _update_norm(s, z, u, rho) -> float:
    """|H' - H|_F of the secant update with (s, z) and u = H z, in closed
    form: H' - H = c s s^T - rho (s u^T + u s^T) with c = rho^2 z.u + rho."""
    ss, uu, su = float(s @ s), float(u @ u), float(s @ u)
    c = rho * rho * float(z @ u) + rho
    sq = (2.0 * rho * rho * (ss * uu + su * su) + c * c * ss * ss
          - 4.0 * rho * c * ss * su)
    return math.sqrt(max(sq, 0.0))


def _latent_step(bfgs: BfgsState, r: Tensor) -> Tensor:
    # H is a constant symmetric operator in the differentiation graph; only
    # r carries grads, and the adjoint of -H is -H
    return ad.linear_operator(r, lambda v: -bfgs.apply(v),
                              lambda g: -bfgs.apply(g), name="latent_step")


def qn_mixer_iterate(state: LatentBfgsState, x: Tensor, y: Tensor,
                     physics: _Physics, model: QnMixerModel, t: int,
                     is_last: bool):
    """One unrolled iteration; skips the H update on the last iteration."""
    codec = model.unroll_config.codec
    s = _latent_step(state.bfgs, state.r)
    step_img = decode_direction(s, model.params, codec, physics.h, physics.w)
    x_next = ad.add(x, step_img)
    if is_last:
        return x_next, state
    grad = learned_gradient(x_next, y, physics, model, t + 1)
    r_next = encode_gradient(grad, model.params, codec)

    s64 = s.data.astype(np.float64)
    z64 = r_next.data.astype(np.float64) - state.r.data.astype(np.float64)
    return x_next, state.updated(s64, z64, r_next)


def unrolled_forward(y: np.ndarray, geometry: geo.Geometry,
                     model: QnMixerModel, h: int, w: int, collect=None):
    """Run the unrolled loop from x0 = FBP(y); returns the final image tensor.

    collect, when given, receives (t, x_tensor, state_or_None) after every
    iteration for tracing; state is None for the first-order variant.
    """
    mh, mw = mx.image_shape(model.params, model.mixer_config)
    if (mh, mw) != (h, w):
        raise ShapeError(f"model is for {mh}x{mw} images, got {h}x{w}")
    cfg = model.unroll_config
    dtype = model.params["expand.conv.w"].dtype
    physics = _Physics(geometry, h, w, cfg.fbp_filter)
    y_arr = np.asarray(y, dtype=dtype)
    y_t = Tensor(y_arr)
    x0 = physics.op.fbp(y_arr)
    x = Tensor(np.asarray(x0, dtype=dtype).reshape(1, 1, h, w))

    if cfg.variant == VARIANT_FIRST_ORDER:
        for t in range(cfg.T):
            grad = learned_gradient(x, y_t, physics, model, t)
            x = ad.sub(x, grad)
            if collect is not None:
                collect(t, x, None)
        return x

    grad0 = learned_gradient(x, y_t, physics, model, 0)
    state = LatentBfgsState.initial(encode_gradient(grad0, model.params,
                                                    cfg.codec), cfg.T - 1)
    for t in range(cfg.T):
        x, state = qn_mixer_iterate(state, x, y_t, physics, model, t,
                                    is_last=(t == cfg.T - 1))
        if collect is not None:
            collect(t, x, state)
    return x


def unrolled_reconstruct(sino: geo.Sinogram, geometry: geo.Geometry,
                         model: QnMixerModel, h: int, w: int,
                         reference: np.ndarray | None = None,
                         keep_intermediates: bool = False):
    """Inference-mode reconstruction; returns (Image, trace, intermediates)."""
    from .metrics import psnr  # local import to avoid a cycle

    trace = []
    intermediates = []

    def collect(t, x_t, state):
        row = {
            "t": t,
            "psnr": (float(psnr(x_t.data[0, 0], reference))
                     if reference is not None else np.nan),
        }
        for column in TRACE_COLUMNS[2:]:
            row[column] = np.nan if state is None else getattr(state, column)
        trace.append(row)
        if keep_intermediates:
            intermediates.append(x_t.data[0, 0].copy())

    with ad.no_grad():
        x = unrolled_forward(sino.values, geometry, model, h, w,
                             collect=collect)
    img = geo.Image(x.data[0, 0].copy(), geometry.pixel_mm(w))
    return img, trace, intermediates
