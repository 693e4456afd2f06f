import numpy as np
import pytest

from qnct import autodiff as ad
from qnct import geometry as geo
from qnct import mixer as mx
from qnct import solvers
from qnct import unroll as ur
from qnct.autodiff import Tensor
from qnct.errors import MemoryGuardError, ShapeError
from qnct.init import materialize, substream
from qnct.phantoms import shepp_logan
from qnct.unroll import (
    CodecConfig,
    LatentBfgsState,
    QnMixerModel,
    UnrollConfig,
    codec_layout,
    decode_direction,
    encode_gradient,
    unrolled_reconstruct,
)


def small_geometry(n_v=12):
    return geo.Geometry(n_views_full=48, n_det=48, det_spacing_mm=2.0,
                        image_extent_mm=64.0,
                        view_subset=geo.uniform_view_subset(48, n_v))


def tiny_model(h=32, w=32, seed=1, variant="qn", T=3, dtype=np.float32):
    mixer_cfg = mx.MixerConfig(patch=4, d=12, n_layers=1)
    unroll_cfg = UnrollConfig(T=T, codec=CodecConfig(2, 8), variant=variant)
    return QnMixerModel.build(h, w, seed, mixer_cfg, unroll_cfg, dtype=dtype)


class TestCodec:
    def test_latent_shapes(self):
        cfg = CodecConfig(k=2)
        assert cfg.latent_shape(256, 256) == (64, 64)
        assert cfg.latent_shape(64, 64) == (16, 16)
        with pytest.raises(ShapeError, match="divisible"):
            cfg.latent_shape(66, 64)

    def test_round_trip_shapes(self):
        for k, h, w in ((1, 16, 16), (2, 64, 64), (3, 32, 64)):
            cfg = CodecConfig(k=k, width=8)
            params = materialize(codec_layout(cfg), substream(0, "init"))
            g = Tensor(np.random.default_rng(0).normal(
                size=(1, 1, h, w)).astype(np.float32))
            r = encode_gradient(g, params, cfg)
            assert r.shape == (h * w // 4 ** k,)
            out = decode_direction(r, params, cfg, h, w)
            assert out.shape == (1, 1, h, w)

    def test_zero_gradient_zero_biases_encode_to_zero(self):
        cfg = CodecConfig(k=2, width=8)
        params = materialize(codec_layout(cfg), substream(3, "init"))
        r = encode_gradient(Tensor(np.zeros((1, 1, 32, 32), np.float32)),
                            params, cfg)
        np.testing.assert_array_equal(r.data, 0.0)
        out = decode_direction(r, params, cfg, 32, 32)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_gradient_check_64bit(self):
        cfg = CodecConfig(k=2, width=6)
        params = materialize(codec_layout(cfg), substream(5, "init"),
                             np.float64)
        rng = np.random.default_rng(6)
        g = Tensor(np.asarray(rng.normal(size=(1, 1, 16, 16)), dtype=np.float64),
                   requires_grad=True)
        target = Tensor(np.asarray(rng.normal(size=(1, 1, 16, 16)), dtype=np.float64))

        def loss():
            r = encode_gradient(g, params, cfg)
            out = decode_direction(r, params, cfg, 16, 16)
            diff = ad.sub(out, target)
            return ad.mean(ad.mul(diff, diff))

        tensors = [g] + [params[k] for k in sorted(params)]
        report = ad.grad_check(loss, tensors, eps=1e-6, max_coords=10, seed=1)
        assert report["max_rel_err"] < 1e-6, report


class TestLearnedGradient:
    def test_zero_init_gives_zero_gradient(self):
        g = small_geometry()
        model = tiny_model()
        ph = shepp_logan(32)
        y = geo.forward_project(geo.Image(ph, g.pixel_mm(32)), g)
        physics = ur._Physics(g, 32, 32, "ram-lak")
        grad = ur.learned_gradient(Tensor(ph[None, None]),
                                   Tensor(y.values), physics, model, 0)
        np.testing.assert_array_equal(grad.data, 0.0)

    def test_zero_residual_with_unit_lambda(self):
        g = small_geometry()
        model = tiny_model()
        model.params["lambda.0"].data[:] = 1.0
        ph = shepp_logan(32)
        y = geo.forward_project(geo.Image(ph, g.pixel_mm(32)), g)
        physics = ur._Physics(g, 32, 32, "ram-lak")
        grad = ur.learned_gradient(Tensor(ph[None, None]),
                                   Tensor(y.values), physics, model, 0)
        np.testing.assert_allclose(grad.data, 0.0, atol=1e-5)

    def test_finite_difference_wrt_lambda(self):
        # T = 1 so the (deliberately non-differentiated) H update never
        # runs; finite differences then see exactly the analytic path
        g = small_geometry(n_v=8)
        model = tiny_model(seed=2, T=1, dtype=np.float64)
        rng = np.random.default_rng(7)
        model.params["expand.conv.w"].data[...] = rng.normal(
            0, 0.1, size=model.params["expand.conv.w"].shape)
        model.params["lambda.0"].data[:] = rng.uniform(0.2, 0.5)
        ph = shepp_logan(32).astype(np.float64)
        y = geo.forward_project(geo.Image(ph, g.pixel_mm(32)), g)
        target = rng.normal(size=(1, 1, 32, 32))

        def loss():
            x = ur.unrolled_forward(y.values, g, model, 32, 32)
            diff = ad.sub(x, Tensor(target))
            return ad.mean(ad.mul(diff, diff))

        report = ad.grad_check(loss, [model.params["lambda.0"]], eps=1e-6)
        assert report["max_rel_err"] < 1e-5, report

    def test_finite_difference_wrt_lambda_first_order(self):
        # no latent state at all in this variant: the whole T-step chain is
        # differentiable, so every lambda_t must pass the FD oracle
        g = small_geometry(n_v=8)
        model = tiny_model(seed=5, T=3, variant="first-order",
                           dtype=np.float64)
        rng = np.random.default_rng(11)
        model.params["expand.conv.w"].data[...] = rng.normal(
            0, 0.1, size=model.params["expand.conv.w"].shape)
        for t in range(3):
            model.params[f"lambda.{t}"].data[:] = rng.uniform(0.1, 0.3)
        ph = shepp_logan(32).astype(np.float64)
        y = geo.forward_project(geo.Image(ph, g.pixel_mm(32)), g)
        target = rng.normal(size=(1, 1, 32, 32))

        def loss():
            x = ur.unrolled_forward(y.values, g, model, 32, 32)
            diff = ad.sub(x, Tensor(target))
            return ad.mean(ad.mul(diff, diff))

        lams = [model.params[f"lambda.{t}"] for t in range(3)]
        report = ad.grad_check(loss, lams, eps=1e-6)
        assert report["max_rel_err"] < 1e-5, report


class TestColdStart:
    @pytest.mark.parametrize("T", [1, 6])
    def test_qn_cold_start_equals_fbp(self, T):
        g = small_geometry()
        model = tiny_model(T=T)
        ph = shepp_logan(32)
        y = geo.forward_project(geo.Image(ph, g.pixel_mm(32)), g)
        x_fbp = geo.fbp(y, g, h=32, w=32)
        img, trace, _ = unrolled_reconstruct(y, g, model, 32, 32)
        assert np.array_equal(img.values, x_fbp.values)
        assert len(trace) == T

    def test_first_order_cold_start_equals_fbp(self):
        g = small_geometry()
        model = tiny_model(variant="first-order", T=4)
        ph = shepp_logan(32)
        y = geo.forward_project(geo.Image(ph, g.pixel_mm(32)), g)
        x_fbp = geo.fbp(y, g, h=32, w=32)
        img, _, _ = unrolled_reconstruct(y, g, model, 32, 32)
        assert np.array_equal(img.values, x_fbp.values)


def diagnostics(state):
    return tuple(getattr(state, c) for c in ur.TRACE_COLUMNS[2:])


class TestLatentBfgs:
    def test_fixed_point_diagnostics_are_zero(self):
        r = Tensor(np.zeros(4, dtype=np.float32))
        state = LatentBfgsState.initial(r, 1)
        e1 = np.zeros(4)
        e1[0] = 1.0
        new = state.updated(e1, e1, r)
        assert diagnostics(new) == (0.0, 0.0, 0.0)
        assert len(new.bfgs.pairs) == 1
        v = np.random.default_rng(2).normal(size=4)
        np.testing.assert_array_equal(new.bfgs.apply(v), v)

    def test_curvature_skip_keeps_h(self):
        r = Tensor(np.zeros(3, dtype=np.float32))
        state = LatentBfgsState.initial(r, 1)
        e1 = np.array([1.0, 0.0, 0.0])
        new = state.updated(e1, -e1, r)
        assert new.bfgs.skips == 1
        assert new.bfgs.pairs == []
        si, secant, step = diagnostics(new)
        assert np.isnan(secant) and step == 0.0 and si == state.si

    def test_symmetry_index_reports_an_asymmetric_h(self):
        skew = np.zeros((4, 4))
        skew[0, 1] = 0.1

        class Skewed(solvers.BfgsState):
            def apply(self, v):
                return super().apply(v) + skew @ v

        r = Tensor(np.array([0.0, 1.0, 0.0, 0.0], dtype=np.float32))
        s = np.array([1.0, 0.5, 0.0, 0.0])
        new = LatentBfgsState(Skewed(), r).updated(s, 2.0 * s, r)
        assert isinstance(new.bfgs, Skewed)
        assert new.si > 1e-3

    def test_run_diagnostics_secant_and_symmetry(self):
        # nonzero weights so the latent updates carry real curvature
        g = small_geometry()
        model = tiny_model(seed=3, T=6)
        rng = np.random.default_rng(8)
        model.params["expand.conv.w"].data[...] = rng.normal(
            0, 0.05, size=model.params["expand.conv.w"].shape)
        for t in range(6):
            model.params[f"lambda.{t}"].data[:] = 0.3
        ph = shepp_logan(32)
        y = geo.forward_project(geo.Image(ph, g.pixel_mm(32)), g)
        _, trace, inter = unrolled_reconstruct(y, g, model, 32, 32,
                                               reference=ph,
                                               keep_intermediates=True)
        assert len(inter) == 6
        accepted = [row for row in trace
                    if np.isfinite(row["secant_residual"])]
        assert accepted, "no update was accepted during the run"
        for row in trace:
            assert row["si"] < 1e-8
        for row in accepted:
            assert row["secant_residual"] < 1e-5
        assert np.isfinite([row["frobenius_step"] for row in trace]).all()

    def test_one_h_product_per_latent_update(self, monkeypatch):
        # T = 6 with every update accepted: the first step forms H r, and
        # each update forms H z, H r and H_old z, so 1 + 5 * 3; the step
        # after an update reuses that update's H r
        calls = []
        apply = solvers.BfgsState.apply

        def counting(self, v):
            calls.append(1)
            return apply(self, v)

        monkeypatch.setattr(solvers.BfgsState, "apply", counting)
        g = small_geometry()
        model = tiny_model(seed=3, T=6)
        rng = np.random.default_rng(8)
        model.params["expand.conv.w"].data[...] = rng.normal(
            0, 0.05, size=model.params["expand.conv.w"].shape)
        for t in range(6):
            model.params[f"lambda.{t}"].data[:] = 0.3
        ph = shepp_logan(32)
        y = geo.forward_project(geo.Image(ph, g.pixel_mm(32)), g)
        states = []
        with ad.no_grad():
            ur.unrolled_forward(y.values, g, model, 32, 32,
                                collect=lambda t, x, st: states.append(st))
        assert len(states[-1].bfgs.pairs) == 5 and states[-1].bfgs.skips == 0
        assert len(calls) == 16
        # the carried H r is the product the step would form, bit for bit
        for state in states[:-1]:
            assert np.array_equal(state.Hr, apply(state.bfgs, state.r.data))

    def test_memory_scales_with_latent_size(self):
        # latent grid (256 / 2^k)^2; each accepted pair stores s and z in
        # float64, so the state grows as 2 * 8 * dim bytes per update
        rng = np.random.default_rng(4)
        for k in (2, 3, 4, 5):
            side = 256 // 2 ** k
            dim = side * side
            state = LatentBfgsState.initial(
                Tensor(np.zeros(dim, dtype=np.float32)), 3)
            for _ in range(3):
                s = rng.normal(size=dim)
                state = state.updated(s, 2.0 * s, state.r)
            held = sum(s.nbytes + z.nbytes for s, z, _ in state.bfgs.pairs)
            assert held == 3 * 2 * dim * 8


class TestConfigValidation:
    def test_bad_variant(self):
        with pytest.raises(ShapeError, match="variant"):
            UnrollConfig(variant="newton")

    def test_bad_T(self):
        with pytest.raises(ShapeError, match="T >= 1"):
            UnrollConfig(T=0)

    def test_codec_k(self):
        with pytest.raises(ShapeError, match="stack"):
            CodecConfig(k=0)


def test_gradients_reach_weights_but_not_h():
    g = small_geometry()
    model = tiny_model(seed=4, T=2)
    rng = np.random.default_rng(9)
    model.params["expand.conv.w"].data[...] = rng.normal(
        0, 0.05, size=model.params["expand.conv.w"].shape)
    model.params["lambda.0"].data[:] = 0.2
    model.params["lambda.1"].data[:] = 0.2
    ph = shepp_logan(32)
    y = geo.forward_project(geo.Image(ph, g.pixel_mm(32)), g)

    states = []
    x = ur.unrolled_forward(y.values, g, model, 32, 32,
                            collect=lambda t, xt, st: states.append(st))
    diff = ad.sub(x, Tensor(ph[None, None]))
    ad.mean(ad.mul(diff, diff)).backward()

    assert np.any(model.params["lambda.0"].grad != 0.0)
    assert np.any(model.params["encoder.0.conv.w"].grad != 0.0)
    assert np.any(model.params["decoder.head.w"].grad != 0.0)
    assert np.any(model.params["patch_embed.w"].grad != 0.0)
    # H is plain numpy state outside the tape: the update got arrays
    pairs = states[0].bfgs.pairs
    assert pairs
    assert all(type(s) is np.ndarray and type(z) is np.ndarray
               for s, z, _ in pairs)
    # and the latent step's backward is its exact adjoint (H is symmetric)
    rng = np.random.default_rng(10)
    r = Tensor(rng.normal(size=pairs[0][0].size), requires_grad=True)
    w = rng.normal(size=r.size)
    out = ur._latent_step(states[0].bfgs, r)
    ad.mean(ad.mul(out, Tensor(w))).backward()
    adjoint_w = r.grad * r.size
    assert abs(adjoint_w @ r.data - w @ out.data) \
        <= 1e-12 * np.linalg.norm(w) * np.linalg.norm(out.data)


def test_latent_hessian_memory_guard():
    # the paper's k = 1 latent (128x128) with T = 6 holds 5 pairs, 1.3 MB
    r = Tensor(np.zeros(128 * 128))
    assert LatentBfgsState.initial(r, 5).bfgs.pairs == []
    # 2 * updates * dim * 8 bytes: 8192 updates reach the limit exactly,
    # one more is refused before any pair is stored
    LatentBfgsState.initial(r, 8192)
    with pytest.raises(MemoryGuardError, match="latent"):
        LatentBfgsState.initial(r, 8193)
