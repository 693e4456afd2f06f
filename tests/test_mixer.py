import numpy as np
import pytest

from qnct import autodiff as ad
from qnct import mixer as mx
from qnct.autodiff import Tensor
from qnct.errors import ShapeError
from qnct.init import materialize, substream


def tiny_config():
    return mx.MixerConfig(patch=4, d=12, n_layers=1)


def test_config_branches_must_sum_to_d():
    # the branches split d 1:2:2:1, so d must be a positive multiple of 6
    assert mx.MixerConfig().branch_channels == (16, 32, 32, 16)
    assert sum(mx.MixerConfig(d=48).branch_channels) == 48
    for d in (0, -6, 10, 100):
        with pytest.raises(ShapeError, match="multiple of 6"):
            mx.MixerConfig(d=d)
    with pytest.raises(ShapeError, match="multiple of 6"):
        mx.desk_mixer_config().scaled(50)


def test_inception_output_shape_and_zero_response():
    cfg = mx.MixerConfig()
    params = materialize(mx.mixer_layout(cfg, 64, 64), substream(0, "init"))
    x = Tensor(np.random.default_rng(1).normal(size=(1, 1, 64, 64)).astype(np.float32))
    out = mx.inception_forward(x, params, cfg)
    assert out.shape == (1, 96, 64, 64)
    zero = mx.inception_forward(Tensor(np.zeros((1, 1, 64, 64), np.float32)),
                                params, cfg)
    np.testing.assert_array_equal(zero.data, 0.0)


def test_paper_parameter_counts():
    cfg = mx.MixerConfig()
    params = materialize(mx.mixer_layout(cfg, 256, 256), substream(0, "init"))
    counts = mx.count_params(params)
    # the per-layer mixer total and the expansion stage land exactly on the
    # reference values; inception within 1%
    assert counts["mixer.0"] == 140768
    assert counts["mixer.1"] == 140768
    assert counts["expand"] == 147745
    assert abs(counts["inception"] - 17600) / 17600 < 0.01
    assert counts["patch_embed"] == 96 * 96 * 16


def test_mixer_layer_zero_params_is_identity():
    cfg = tiny_config()
    params = materialize(mx.mixer_layout(cfg, 16, 16), substream(0, "init"))
    for name, t in params.items():
        if name.startswith("mixer."):
            t.data[...] = 0.0
    e = Tensor(np.random.default_rng(2).normal(size=(1, 4, 4, 12)).astype(np.float32))
    out = mx.mixer_layer(e, params, cfg, 0)
    np.testing.assert_array_equal(out.data, e.data)


def test_mixer_layer_axis_sharing_commutes_with_permutation():
    # zeroing the other-axis MLPs leaves a map that is shared across that
    # axis, so permuting along it commutes with the layer
    cfg = tiny_config()
    rng = np.random.default_rng(3)

    def permuted_commutes(zero_names, axis):
        params = materialize(mx.mixer_layout(cfg, 16, 16), substream(5, "init"))
        for name, t in params.items():
            if any(z in name for z in zero_names):
                t.data[...] = 0.0
        e = rng.normal(size=(1, 4, 4, 12)).astype(np.float32)
        perm = rng.permutation(e.shape[axis])
        out = mx.mixer_layer(Tensor(e), params, cfg, 0).data
        e_perm = np.take(e, perm, axis=axis)
        out_perm = mx.mixer_layer(Tensor(e_perm), params, cfg, 0).data
        np.testing.assert_allclose(np.take(out, perm, axis=axis), out_perm,
                                   atol=1e-6)

    permuted_commutes(("width", "channel"), axis=2)   # height MLP active
    permuted_commutes(("height", "channel"), axis=1)  # width MLP active


def test_forward_shape_for_divisible_sizes():
    cfg = tiny_config()
    for h, w in ((16, 16), (32, 16), (24, 40)):
        params = materialize(mx.mixer_layout(cfg, h, w), substream(0, "init"))
        x = Tensor(np.random.default_rng(4).normal(size=(1, 1, h, w)).astype(np.float32))
        out = mx.incept_mixer_forward(x, params, cfg)
        assert out.shape == (1, 1, h, w)


def test_forward_rejects_indivisible_size():
    cfg = tiny_config()
    with pytest.raises(ShapeError, match="divisible"):
        materialize(mx.mixer_layout(cfg, 18, 16), substream(0, "init"))
    params = materialize(mx.mixer_layout(cfg, 16, 16), substream(0, "init"))
    with pytest.raises(ShapeError, match="divisible"):
        mx.incept_mixer_forward(Tensor(np.zeros((1, 1, 18, 16), np.float32)),
                                params, cfg)


def test_forward_is_deterministic_and_pure():
    cfg = tiny_config()
    params = materialize(mx.mixer_layout(cfg, 16, 16), substream(0, "init"))
    x = np.random.default_rng(5).normal(size=(1, 1, 16, 16)).astype(np.float32)
    a = mx.incept_mixer_forward(Tensor(x), params, cfg).data
    b = mx.incept_mixer_forward(Tensor(x.copy()), params, cfg).data
    assert np.array_equal(a, b)


class TestInit:
    def test_same_seed_bit_identical(self):
        cfg = mx.MixerConfig()
        a = materialize(mx.mixer_layout(cfg, 64, 64), substream(42, "init"))
        b = materialize(mx.mixer_layout(cfg, 64, 64), substream(42, "init"))
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name].data, b[name].data), name

    def test_mlp_std_near_002(self):
        cfg = mx.MixerConfig()
        params = materialize(mx.mixer_layout(cfg, 256, 256),
                             substream(7, "init"))
        w = params["mixer.0.channel.w1"].data  # 96 x 384 = 36864 samples
        assert w.size >= 10_000
        assert 0.017 < w.std() < 0.023
        assert np.abs(w).max() <= 0.04 + 1e-6  # truncated at 2 std

    def test_prelu_and_final_conv_init(self):
        cfg = mx.MixerConfig()
        params = materialize(mx.mixer_layout(cfg, 64, 64), substream(0, "init"))
        np.testing.assert_array_equal(params["inception.b2.prelu2"].data, 0.25)
        np.testing.assert_array_equal(params["expand.conv.w"].data, 0.0)
        np.testing.assert_array_equal(params["expand.conv.b"].data, 0.0)
        np.testing.assert_array_equal(params["inception.b1.conv.b"].data, 0.0)


def test_gradient_check_tiny_config():
    # checked at a parameter point with healthy magnitudes: the 0.02-std
    # init leaves token-MLP gradients at the FD noise floor, which probes
    # nothing; the backward itself is scale-free
    cfg = tiny_config()
    params = materialize(mx.mixer_layout(cfg, 16, 16), substream(11, "init"),
                         np.float64)
    rng = np.random.default_rng(12)
    for name, t in params.items():
        if name.endswith((".w1", ".w2", ".w")) or ".linear" in name:
            t.data[...] = rng.normal(0.0, 0.3, size=t.shape)
        elif name.endswith((".b1", ".b2", ".b", ".beta")):
            t.data[...] = rng.normal(0.0, 0.05, size=t.shape)
    x = Tensor(np.asarray(rng.normal(size=(1, 1, 16, 16)), dtype=np.float64),
               requires_grad=True)
    target = Tensor(np.asarray(rng.normal(size=(1, 1, 16, 16)), dtype=np.float64))

    def loss():
        out = mx.incept_mixer_forward(x, params, cfg)
        diff = ad.sub(out, target)
        return ad.mean(ad.mul(diff, diff))

    tensors = [x] + [params[k] for k in sorted(params)]
    report = ad.grad_check(loss, tensors, eps=1e-6, max_coords=12, seed=0)
    assert report["max_rel_err"] < 1e-6, report
