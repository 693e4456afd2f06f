"""Learned regularization-gradient network.

Pipeline: a four-branch inception block lifts the single-channel image to d
feature channels, a patch embedding (one shared linear map of each p x p
patch's d p^2 features, run as a 1x1 conv over the space-to-depth view of
the features) tokenizes them to a (h/p, w/p, d) grid, N mixer layers
alternate height/width token MLPs with a channel MLP (each
wrapped as residual around a layer norm), and a patch-expansion stage
(linear d -> p^2 d without bias, per-pixel layer norm, 1x1 conv) returns a
single-channel image of the input size. The final 1x1 conv initializes to
zero so an untrained network contributes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import init as pinit
from .autodiff import Tensor
from .errors import ShapeError


# Fixed by the architecture, not by a checkpoint: the token MLP hidden width
# is TOKEN_HIDDEN_RATIO times the token count, the channel MLP's
# CHANNEL_HIDDEN_RATIO times d.
TOKEN_HIDDEN_RATIO = 4
CHANNEL_HIDDEN_RATIO = 4


@dataclass(frozen=True)
class MixerConfig:
    """The three numbers a checkpoint records (mixer.patch, mixer.d,
    mixer.n_layers); the inception branch widths split d 1:2:2:1."""

    patch: int = 4
    d: int = 96
    n_layers: int = 2

    def __post_init__(self):
        if self.patch < 1 or self.n_layers < 1:
            raise ShapeError("patch size and layer count must be >= 1")
        if self.d < 6 or self.d % 6:
            raise ShapeError(
                f"d={self.d} must be a positive multiple of 6 to split the "
                "inception branches 1:2:2:1"
            )

    @property
    def branch_channels(self) -> tuple:
        unit = self.d // 6
        return unit, 2 * unit, 2 * unit, unit

    def check_size(self, h: int, w: int):
        if h % self.patch or w % self.patch:
            raise ShapeError(
                f"image {h}x{w} not divisible by patch size {self.patch}"
            )

    def scaled(self, d: int) -> "MixerConfig":
        """Same layout at a different width."""
        return MixerConfig(self.patch, d, self.n_layers)


def desk_mixer_config() -> MixerConfig:
    return MixerConfig().scaled(48)


def image_shape(params: dict, config: MixerConfig) -> tuple:
    """The (h, w) image size the token MLPs of a parameter set were built for."""
    return (params["mixer.0.height.w1"].shape[0] * config.patch,
            params["mixer.0.width.w1"].shape[0] * config.patch)


def _conv_layout(name, out_c, in_c, k, bias=True):
    yield name + ".w", (out_c, in_c, k, k), ("xavier", in_c * k * k,
                                             out_c * k * k)
    if bias:
        yield name + ".b", (out_c,), pinit.ZEROS


def _mlp_layout(name, d_in, hidden, d_out):
    yield name + ".w1", (d_in, hidden), ("normal", 0.02)
    yield name + ".b1", (hidden,), pinit.ZEROS
    yield name + ".w2", (hidden, d_out), ("normal", 0.02)
    yield name + ".b2", (d_out,), pinit.ZEROS


def _norm_layout(name, d):
    yield name + ".gamma", (d,), pinit.ONES
    yield name + ".beta", (d,), pinit.ZEROS


def mixer_layout(config: MixerConfig, h: int, w: int):
    """(name, shape, init) of every weight for an h x w input, in init order
    (see ``init.materialize``).

    Convs get Xavier uniform weights, MLPs truncated normal (std 0.02,
    cut at 2 std), biases and the final 1x1 conv start at zero, PReLU
    slopes at 0.25.
    """
    config.check_size(h, w)
    c1, c2, c3, c4 = config.branch_channels
    bottleneck = c1
    slope = ("const", 0.25)
    yield from _conv_layout("inception.b1.conv", c1, 1, 1)
    yield "inception.b1.prelu", (c1,), slope
    yield from _conv_layout("inception.b2.conv1", bottleneck, 1, 1)
    yield "inception.b2.prelu1", (bottleneck,), slope
    yield from _conv_layout("inception.b2.conv2", c2, bottleneck, 3)
    yield "inception.b2.prelu2", (c2,), slope
    yield from _conv_layout("inception.b3.conv1", bottleneck, 1, 1)
    yield "inception.b3.prelu1", (bottleneck,), slope
    yield from _conv_layout("inception.b3.conv2", c3, bottleneck, 5)
    yield "inception.b3.prelu2", (c3,), slope
    yield from _conv_layout("inception.b4.conv", c4, 1, 1)
    yield "inception.b4.prelu", (c4,), slope

    yield from _conv_layout("patch_embed", config.d, config.d, config.patch,
                            bias=False)

    th, tw = h // config.patch, w // config.patch
    for i in range(config.n_layers):
        base = f"mixer.{i}"
        yield from _norm_layout(base + ".ln1", config.d)
        yield from _mlp_layout(base + ".height", th,
                               TOKEN_HIDDEN_RATIO * th, th)
        yield from _mlp_layout(base + ".width", tw,
                               TOKEN_HIDDEN_RATIO * tw, tw)
        yield from _norm_layout(base + ".ln2", config.d)
        yield from _mlp_layout(base + ".channel", config.d,
                               CHANNEL_HIDDEN_RATIO * config.d,
                               config.d)

    yield ("expand.linear.w", (config.d, config.patch * config.patch * config.d),
           ("normal", 0.02))
    yield from _norm_layout("expand.ln", config.d)
    yield "expand.conv.w", (1, config.d, 1, 1), pinit.ZEROS
    yield "expand.conv.b", (1,), pinit.ZEROS


def _conv_block(x, params, name, padding=0):
    return ad.conv2d(x, params[name + ".w"], params[name + ".b"],
                     padding=padding)


def inception_forward(x: Tensor, params: dict, config: MixerConfig) -> Tensor:
    """Four parallel branches concatenated to d channels, size preserved."""
    if x.data.ndim != 4 or x.shape[1] != 1:
        raise ShapeError(f"inception_forward: expected (n,1,h,w), got {x.shape}")
    b1 = ad.prelu(_conv_block(x, params, "inception.b1.conv"),
                  params["inception.b1.prelu"])
    b2 = ad.prelu(_conv_block(x, params, "inception.b2.conv1"),
                  params["inception.b2.prelu1"])
    b2 = ad.prelu(_conv_block(b2, params, "inception.b2.conv2", padding=1),
                  params["inception.b2.prelu2"])
    b3 = ad.prelu(_conv_block(x, params, "inception.b3.conv1"),
                  params["inception.b3.prelu1"])
    b3 = ad.prelu(_conv_block(b3, params, "inception.b3.conv2", padding=2),
                  params["inception.b3.prelu2"])
    b4 = ad.maxpool2d(x, 3, stride=1, padding=1)
    b4 = ad.prelu(_conv_block(b4, params, "inception.b4.conv"),
                  params["inception.b4.prelu"])
    return ad.concat([b1, b2, b3, b4])


def patch_embed(f: Tensor, w: Tensor) -> Tensor:
    """The p x p, stride-p patch embedding of NCHW features f by a weight
    w of shape (d_out, d, p, p): a 1x1 conv over the space-to-depth view
    of f, whose (n, d p^2, h/p, w/p) channels run in w's (channel, row,
    column) order."""
    error = ShapeError(f"patch_embed: features {f.shape}, weight {w.shape}")
    if f.data.ndim != 4 or w.data.ndim != 4:
        raise error
    n, d, h, wd = f.shape
    oc, ic, p, q = w.shape
    if ic != d or q != p or h % p or wd % p:
        raise error
    s = ad.reshape(f, (n, d, h // p, p, wd // p, p))
    s = ad.permute(s, (0, 1, 3, 5, 2, 4))  # (n, d, p, p, h/p, w/p)
    s = ad.reshape(s, (n, d * p * p, h // p, wd // p))
    return ad.conv2d(s, ad.reshape(w, (oc, d * p * p, 1, 1)))


def _mlp(x, params, name):
    return ad.mlp(x, params[name + ".w1"], params[name + ".b1"],
                  params[name + ".w2"], params[name + ".b2"])


def mixer_layer(e: Tensor, params: dict, config: MixerConfig, idx: int) -> Tensor:
    """Token mixing (height then width MLP) and channel mixing, residual.

    e is channels-last (n, th, tw, d). Each MLP acts on its own axis with
    weights shared across the other axes.
    """
    base = f"mixer.{idx}"
    th, tw = e.shape[1], e.shape[2]
    if params[base + ".height.w1"].shape[0] != th or \
            params[base + ".width.w1"].shape[0] != tw:
        raise ShapeError(
            f"mixer_layer: token grid {th}x{tw} does not match parameters"
        )
    v = ad.layer_norm(e, params[base + ".ln1.gamma"], params[base + ".ln1.beta"])
    v = ad.permute(v, (0, 3, 2, 1))  # (n, d, tw, th): height tokens last
    v = _mlp(v, params, base + ".height")
    v = ad.permute(v, (0, 1, 3, 2))  # (n, d, th, tw): width tokens last
    v = _mlp(v, params, base + ".width")
    v = ad.permute(v, (0, 2, 3, 1))  # back to (n, th, tw, d)
    e = ad.add(e, v)
    u = ad.layer_norm(e, params[base + ".ln2.gamma"], params[base + ".ln2.beta"])
    u = _mlp(u, params, base + ".channel")
    return ad.add(e, u)


def patch_expand(e: Tensor, params: dict, config: MixerConfig) -> Tensor:
    """Tokens back to pixels: linear to p^2 d, norm over d, 1x1 conv to 1."""
    n, th, tw, d = e.shape
    pch = config.patch
    y = ad.linear(e, params["expand.linear.w"])  # (n, th, tw, p*p*d), no bias
    y = ad.reshape(y, (n, th, tw, pch, pch, d))
    y = ad.layer_norm(y, params["expand.ln.gamma"], params["expand.ln.beta"])
    y = ad.permute(y, (0, 5, 1, 3, 2, 4))  # (n, d, th, p, tw, p)
    y = ad.reshape(y, (n, d, th * pch, tw * pch))
    return ad.conv2d(y, params["expand.conv.w"], params["expand.conv.b"])


def incept_mixer_forward(x: Tensor, params: dict, config: MixerConfig) -> Tensor:
    """Full regularization-gradient network, (n,1,h,w) -> (n,1,h,w)."""
    config.check_size(x.shape[2], x.shape[3])
    f = inception_forward(x, params, config)
    e = patch_embed(f, params["patch_embed.w"])
    e = ad.permute(e, (0, 2, 3, 1))  # channels last token grid
    for i in range(config.n_layers):
        e = mixer_layer(e, params, config, i)
    return patch_expand(e, params, config)


def count_params(params: dict) -> dict:
    """Parameter totals per stage, in raw counts."""
    stages = {"inception": 0, "patch_embed": 0, "expand": 0}
    for name, t in params.items():
        size = t.size if isinstance(t, Tensor) else np.asarray(t).size
        if name.startswith("mixer."):
            key = "mixer." + name.split(".")[1]
            stages[key] = stages.get(key, 0) + size
        else:
            for stage in ("inception", "patch_embed", "expand"):
                if name.startswith(stage):
                    stages[stage] += size
    stages["total"] = sum(v for k, v in stages.items())
    return stages
