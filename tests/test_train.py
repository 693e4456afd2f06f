import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from qnct import config as cfgmod
from qnct import geometry as geo
from qnct import init as pinit
from qnct import mixer as mx
from qnct import train as tr
from qnct import unroll as ur
from qnct.autodiff import Tensor, load_checkpoint, save_checkpoint
from qnct.errors import CheckpointError, ConfigError, ShapeError
from qnct.init import substream
from qnct.phantoms import random_ellipses


def tiny_setup(n_items=3, seed=0, variant="qn", T=2, size=32):
    g_full = geo.Geometry(n_views_full=48, n_det=48, det_spacing_mm=2.0,
                          image_extent_mm=64.0)
    rng = substream(seed, "data")
    truths = [random_ellipses(size, rng) for _ in range(n_items)]
    items, g_sparse = tr.synthesize_dataset(truths, g_full, 12, 1e6, 0.05,
                                            seed=seed)
    mixer_cfg = mx.MixerConfig(patch=4, d=12, n_layers=1)
    unroll_cfg = ur.UnrollConfig(T=T, codec=ur.CodecConfig(2, 8),
                                 variant=variant)
    model = ur.QnMixerModel.build(size, size, seed, mixer_cfg, unroll_cfg)
    return items, g_sparse, model


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self):
        params = {"w": Tensor(np.arange(4.0, dtype=np.float32),
                              requires_grad=True)}
        before = params["w"].data.copy()
        opt = tr.AdamW(params, lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_array_equal(params["w"].data, before)

    def test_decay_skips_lambda_and_prelu(self):
        params = {
            "lambda.0": Tensor(np.full(1, 0.5, np.float32), requires_grad=True),
            "inception.b1.prelu": Tensor(np.full(3, 0.25, np.float32),
                                         requires_grad=True),
            "mixer.0.channel.w1": Tensor(np.full((2, 2), 1.0, np.float32),
                                         requires_grad=True),
        }
        opt = tr.AdamW(params, lr=0.1, weight_decay=0.5, no_decay=tr.NO_DECAY)
        opt.step()
        np.testing.assert_array_equal(params["lambda.0"].data, 0.5)
        np.testing.assert_array_equal(params["inception.b1.prelu"].data, 0.25)
        np.testing.assert_allclose(params["mixer.0.channel.w1"].data, 0.95)

    def test_model_decay_exempts_every_prelu_and_lambda(self):
        model = ur.QnMixerModel.build(64, 64, 0)
        before = {name: p.data.copy() for name, p in model.params.items()}
        cfg = tr.TrainConfig(lr=0.1, weight_decay=0.5)
        tr.default_optimizer(model, cfg).step()  # every gradient is zero
        exempt = [name for name in before
                  if name.startswith("lambda.")
                  or name.split(".")[-1].startswith("prelu")]
        assert len(exempt) == 6 + 6 + 4  # lambda_t, inception, codec
        for name, p in model.params.items():
            if name in exempt:
                np.testing.assert_array_equal(p.data, before[name], name)
            else:
                np.testing.assert_array_equal(
                    p.data, before[name] * (1.0 - 0.1 * 0.5), name)
                if np.any(before[name]):
                    assert np.abs(p.data).sum() < np.abs(before[name]).sum()

    def test_moves_against_gradient(self):
        params = {"w": Tensor(np.zeros(3, np.float32), requires_grad=True)}
        params["w"].grad = np.array([1.0, -1.0, 2.0], dtype=np.float32)
        opt = tr.AdamW(params, lr=0.01)
        opt.step()
        assert params["w"].data[0] < 0 < params["w"].data[1]

    def test_config_validation(self):
        with pytest.raises(ShapeError):
            tr.TrainConfig(lr=0.0)
        for lr in (np.nan, np.inf):
            with pytest.raises(ShapeError, match="lr"):
                tr.TrainConfig(lr=lr)
        for decay in (np.nan, np.inf, -0.1):
            with pytest.raises(ShapeError, match="weight_decay"):
                tr.TrainConfig(weight_decay=decay)
        assert tr.TrainConfig(weight_decay=0.0).weight_decay == 0.0
        with pytest.raises(ShapeError):
            tr.TrainConfig(lr_decay_factor=1.5)
        with pytest.raises(ShapeError, match="epochs"):
            tr.TrainConfig(epochs=-1)
        for steps in (0, -3):
            with pytest.raises(ShapeError, match="max_steps"):
                tr.TrainConfig(max_steps=steps)
        # no epochs is a valid (empty) run
        assert tr.TrainConfig(epochs=0, max_steps=None).epochs == 0


class TestTrainLoop:
    def test_cold_start_first_loss_is_fbp_mse(self):
        items, g, model = tiny_setup(n_items=1)
        cfg = tr.TrainConfig(epochs=1, lr=1e-3, lr_decay_after_epoch=10,
                             seed=0, max_steps=1)
        _, curve = tr.train_unrolled(items, g, model, cfg)
        x_fbp = geo.fbp(geo.Sinogram(items[0].sino), g, h=32, w=32).values
        expected = float(np.mean((x_fbp - items[0].truth) ** 2))
        assert curve[0]["loss"] == pytest.approx(expected, rel=1e-6)

    def test_bit_reproducible_under_seed(self):
        def run():
            items, g, model = tiny_setup(seed=3)
            cfg = tr.TrainConfig(epochs=2, lr=1e-3, lr_decay_after_epoch=10,
                                 seed=3, max_steps=6)
            model, curve = tr.train_unrolled(items, g, model, cfg)
            return curve, model

        curve_a, model_a = run()
        curve_b, model_b = run()
        assert [c["loss"] for c in curve_a] == [c["loss"] for c in curve_b]
        for name in model_a.params:
            assert np.array_equal(model_a.params[name].data,
                                  model_b.params[name].data), name

    def test_lr_decay_at_epoch_boundary(self):
        items, g, model = tiny_setup(n_items=2)
        cfg = tr.TrainConfig(epochs=2, lr=1e-3, lr_decay_factor=0.1,
                             lr_decay_after_epoch=1, seed=0)
        _, curve = tr.train_unrolled(items, g, model, cfg)
        lrs = [c["lr"] for c in curve]
        assert lrs[:2] == [1e-3, 1e-3]
        assert lrs[2:] == [1e-4, 1e-4]

    def test_gradients_flow_after_steps(self):
        items, g, model = tiny_setup()
        cfg = tr.TrainConfig(epochs=1, lr=1e-3, lr_decay_after_epoch=10,
                             seed=0, max_steps=2)
        tr.train_unrolled(items, g, model, cfg)
        opt = tr.AdamW(model.params, lr=1e-3)
        opt.zero_grad()
        x = ur.unrolled_forward(items[0].sino, g, model, 32, 32)
        tr.mse_loss(x, items[0].truth).backward()
        for group in ("lambda.0", "encoder.0.conv.w", "decoder.head.w",
                      "patch_embed.w", "expand.conv.w"):
            grad = model.params[group].grad
            assert grad is not None and np.any(grad != 0.0), group

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts(self):
        items, g, model = tiny_setup()
        # a destructive learning rate blows the weights up within a few steps
        cfg = tr.TrainConfig(epochs=50, lr=1e8, lr_decay_after_epoch=99,
                             seed=0, max_steps=40)
        with pytest.raises(tr.TrainingAborted):
            tr.train_unrolled(items, g, model, cfg)

    def test_checkpoints_written_and_reloadable(self, tmp_path):
        items, g, model = tiny_setup()
        cfg = tr.TrainConfig(epochs=2, lr=1e-3, lr_decay_after_epoch=10,
                             seed=0, checkpoint_dir=str(tmp_path))
        model, _ = tr.train_unrolled(items, g, model, cfg)
        ckpts = sorted(tmp_path.glob("epoch*.ckpt"))
        assert len(ckpts) == 2
        reloaded = tr.model_from_checkpoint(ckpts[-1])
        assert reloaded.unroll_config == model.unroll_config
        assert reloaded.mixer_config == model.mixer_config
        for name in model.params:
            assert np.array_equal(reloaded.params[name].data,
                                  model.params[name].data), name
        a = ur.unrolled_reconstruct(geo.Sinogram(items[0].sino), g, model,
                                    32, 32)[0]
        b = ur.unrolled_reconstruct(geo.Sinogram(items[0].sino), g, reloaded,
                                    32, 32)[0]
        assert np.array_equal(a.values, b.values)


def test_a_step_never_overlaps_the_last_steps_tape():
    # backward frees the tape as it runs, so the loss and image still bound
    # from step k hold no graph while step k + 1 records its own
    items, g, model = tiny_setup()

    def peak(steps):
        cfg = tr.TrainConfig(epochs=1, lr=1e-3, seed=0, max_steps=steps)
        tracemalloc.start()
        try:
            tr.train_unrolled(items, g, model, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # builds the scan matrices every later step reuses
    assert peak(3) <= 1.15 * peak(1)


def test_synthesize_dataset_deterministic():
    g_full = geo.Geometry(n_views_full=48, n_det=48, det_spacing_mm=2.0,
                          image_extent_mm=64.0)
    truths = [random_ellipses(32, substream(1, "data")) for _ in range(2)]
    a, ga = tr.synthesize_dataset(truths, g_full, 12, 1e6, 0.05, seed=5)
    b, gb = tr.synthesize_dataset(truths, g_full, 12, 1e6, 0.05, seed=5)
    assert ga == gb
    for x, y in zip(a, b):
        assert np.array_equal(x.sino, y.sino)
    c, _ = tr.synthesize_dataset(truths, g_full, 12, 1e6, 0.05, seed=6)
    assert not np.array_equal(a[0].sino, c[0].sino)


def test_loss_trend_over_first_50_steps():
    # per-step losses on rotating items are noisy; the decreasing trend is
    # asserted on window means after the scale-calibration transient
    items, g, model = tiny_setup(n_items=8, T=3)
    cfg = tr.TrainConfig(epochs=10, lr=1e-3, lr_decay_after_epoch=99,
                         seed=0, max_steps=50)
    _, curve = tr.train_unrolled(items, g, model, cfg)
    losses = [c["loss"] for c in curve]
    assert np.mean(losses[40:50]) < np.mean(losses[1:11])
    assert losses[-1] < losses[1]


NON_DEFAULT_MODEL = {
    "mixer.patch": "2", "mixer.d": "12", "mixer.n_layers": "1",
    "unroll.T": "2", "unroll.k": "3", "unroll.codec_width": "8",
    "unroll.fbp_filter": "hann", "unroll.variant": "first-order",
}


@pytest.mark.parametrize("overrides", [{}, NON_DEFAULT_MODEL],
                         ids=["defaults", "non-defaults"])
def test_model_meta_round_trips_the_config_keys(overrides):
    cfg = cfgmod.resolve_config(None, overrides)
    model = ur.QnMixerModel.build(16, 16, 0, *tr.model_configs(cfg))
    assert tr.model_meta(model) == {key: cfg[key] for key in tr.MODEL_KEYS}
    assert set(tr.MODEL_KEYS) == {key for key in cfg
                                  if key.startswith(("mixer.", "unroll."))}
    # every MixerConfig field is a key the checkpoint records
    assert {f"mixer.{f.name}" for f in fields(mx.MixerConfig)} == \
        {key for key in tr.MODEL_KEYS if key.startswith("mixer.")}


def tiny_checkpoint(path, T=2, codec_width=8, size=16):
    cfg = cfgmod.resolve_config(None, {"mixer.d": "12", "mixer.n_layers": "1",
                                       "unroll.T": str(T),
                                       "unroll.codec_width": str(codec_width)})
    model = ur.QnMixerModel.build(size, size, 0, *tr.model_configs(cfg))
    save_checkpoint(model.params, path, tr.model_meta(model))
    return model


def rewrite_checkpoint(path, drop=(), **meta_edits):
    arrays, meta = load_checkpoint(path)
    meta.update(meta_edits)
    save_checkpoint({k: v for k, v in arrays.items() if k not in drop},
                    path, meta)


def test_checkpoint_with_parent_meta_loads(tmp_path):
    # checkpoints once carried mixer.branch_channels and
    # unroll.pseudo_inverse beside epoch and step
    path = tmp_path / "old.ckpt"
    model = tiny_checkpoint(path)
    rewrite_checkpoint(path, **{"mixer.branch_channels": "2,4,4,2",
                                "unroll.pseudo_inverse": "fbp",
                                "epoch": "0", "step": "1"})
    reloaded = tr.model_from_checkpoint(path)
    assert reloaded.mixer_config == model.mixer_config
    assert reloaded.unroll_config == model.unroll_config
    for name, t in model.params.items():
        assert np.array_equal(reloaded.params[name].data, t.data), name


@pytest.mark.parametrize("codec_width,drop,meta_edits,match", [
    (8, ("lambda.1",), {}, "'lambda.1' is missing"),
    (8, (), {"unroll.T": "3"}, "'lambda.2' is missing"),
    (32, (), {"unroll.codec_width": "8"}, r"'encoder.0.conv.w' is \(32,"),
    (8, (), {"mixer.n_layers": "2"}, "'mixer.1.ln1.gamma' is missing"),
    (8, ("mixer.0.width.w1",), {}, "mixer.0.width.w1"),
    (8, (), {"unroll.pseudo_inverse": "adjoint"},
     "unroll.pseudo_inverse is 'adjoint'"),
])
def test_checkpoint_weights_must_match_the_meta(tmp_path, codec_width, drop,
                                                meta_edits, match):
    path = tmp_path / "bad.ckpt"
    tiny_checkpoint(path, codec_width=codec_width)
    rewrite_checkpoint(path, drop=drop, **meta_edits)
    with pytest.raises(CheckpointError, match=match):
        tr.model_from_checkpoint(path)


@pytest.mark.parametrize("key,value,weight", [
    ("mixer.patch", "999", "patch_embed.w"),
    ("mixer.d", "996", "inception.b1.conv.w"),
    ("mixer.n_layers", "999", "mixer.1.ln1.gamma"),
    ("unroll.T", "999", "lambda.2"),
    ("unroll.k", "999", "encoder.2.conv.w"),
    ("unroll.codec_width", "999", "encoder.0.conv.w"),
])
def test_meta_that_sizes_a_large_model_is_refused_before_building(
        tmp_path, monkeypatch, key, value, weight):
    # a patch of 999 would build ~1 GB of random weights for a 16x16 file
    path = tmp_path / "crafted.ckpt"
    tiny_checkpoint(path)
    rewrite_checkpoint(path, **{key: value})

    def no_weights(*args, **kwargs):
        raise AssertionError("model_from_checkpoint allocated weights")

    monkeypatch.setattr(pinit, "materialize", no_weights)
    with pytest.raises(CheckpointError, match=f"'{weight}'"):
        tr.model_from_checkpoint(path)


def test_checkpoint_with_unexpected_weight_is_refused(tmp_path):
    path = tmp_path / "extra.ckpt"
    model = tiny_checkpoint(path)
    params = dict(model.params, **{"lambda.9": model.params["lambda.0"]})
    save_checkpoint(params, path, tr.model_meta(model))
    with pytest.raises(CheckpointError,
                       match=r"'lambda.9' is \(1,\), .* expects none"):
        tr.model_from_checkpoint(path)


@pytest.mark.parametrize("key,value,kind,message", [
    ("mixer.patch", "x", ConfigError, "mixer.patch: expected integer, got 'x'"),
    ("unroll.variant", "newton", ShapeError, "unknown unroll variant 'newton'"),
])
def test_bad_meta_value_names_the_checkpoint(tmp_path, key, value, kind,
                                             message):
    path = tmp_path / "bad.ckpt"
    tiny_checkpoint(path)
    rewrite_checkpoint(path, **{key: value})
    with pytest.raises(kind) as err:
        tr.model_from_checkpoint(path)
    assert str(err.value) == f"{path}: {message}"
