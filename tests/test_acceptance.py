"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Criteria 5 (learning trend) and 6 (latent-size trend) have no test
yet; ROADMAP.md item 1 plans them.
"""

import time

import numpy as np

from qnct import autodiff as ad
from qnct import geometry as geo
from qnct import metrics as mt
from qnct import mixer as mx
from qnct import solvers
from qnct import unroll as ur
from qnct.autodiff import Tensor
from qnct.init import materialize, substream
from qnct.phantoms import shepp_logan

from test_metrics import brute_force_ssim
from test_solvers import minimizer, random_quadratic


def verdict(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: operator adjointness across the geometry matrix
# ---------------------------------------------------------------------------

def test_criterion_1_adjointness():
    start = time.time()
    limited = (0.0, np.pi / 2.0)
    matrix = []
    for beam in (geo.PARALLEL, geo.FAN):
        fan_kwargs = dict(sad_mm=300.0, add_mm=150.0, det_spacing_mm=3.0) \
            if beam == geo.FAN else {}
        span = (0.0, 2.0 * np.pi) if beam == geo.FAN else (0.0, np.pi)
        matrix.append(geo.Geometry(beam=beam, angular_range=span,
                                   **fan_kwargs))
        matrix.append(geo.Geometry(beam=beam, angular_range=span,
                                   n_views=32, **fan_kwargs))
        matrix.append(geo.Geometry(beam=beam, angular_range=limited,
                                   n_views_full=45, **fan_kwargs))
    worst = 0.0
    rng = np.random.default_rng(1)
    for g in matrix:
        x = geo.Image(rng.normal(size=(64, 64)).astype(np.float32),
                      g.pixel_mm(64))
        y = geo.Sinogram(rng.normal(size=(g.n_views, g.n_det))
                         .astype(np.float32))
        lhs = float(np.vdot(geo.forward_project(x, g).values.astype(np.float64),
                            y.values))
        rhs = float(np.vdot(x.values,
                            geo.back_project(y, g, 64, 64).values
                            .astype(np.float64)))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    elapsed = time.time() - start
    verdict(1, worst < 1e-5 and elapsed < 10.0,
            f"dot-test gap {worst:.2e} over {len(matrix)} geometries "
            f"in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 2: BFGS correctness on random convex quadratics
# ---------------------------------------------------------------------------

def test_criterion_2_bfgs_quadratics():
    start = time.time()
    rng = np.random.default_rng(2)
    worst_secant = 0.0
    worst_si = 0.0
    for _ in range(20):
        quad = random_quadratic(rng, 16)
        x, trace, _ = qn(quad)
        assert trace[-1]["grad_norm"] < 1e-8
        assert len(trace) - 1 <= 40
        np.testing.assert_allclose(x, minimizer(quad), atol=1e-6)
        for row in trace:
            if np.isfinite(row["secant_residual"]):
                worst_secant = max(worst_secant, row["secant_residual"])
            worst_si = max(worst_si, row["si"])
    elapsed = time.time() - start
    verdict(2, worst_secant < 1e-10 and worst_si < 1e-8 and elapsed < 5.0,
            f"20 quadratics solved; secant {worst_secant:.2e}, "
            f"SI {worst_si:.2e}, {elapsed:.1f} s")


def qn(quad):
    # slope-based exact line search: value-based Wolfe tests saturate at
    # the float64 resolution floor of J (~1e-7 grad norm), which the
    # 1e-8 target sits below
    return solvers.qn_reconstruct(quad, np.zeros(16), 40,
                                  line_search="exact-quadratic", gtol=1e-8)


# ---------------------------------------------------------------------------
# criterion 3: finite-difference gradient fidelity in 64-bit
# ---------------------------------------------------------------------------

def test_criterion_3_gradient_fidelity():
    start = time.time()
    # (a) variational objective gradient on a 16x16 scan
    g = geo.Geometry(n_views_full=24, n_det=24, det_spacing_mm=2.0,
                     image_extent_mm=32.0)
    rng = np.random.default_rng(3)
    truth = rng.uniform(size=(16, 16))
    sino = geo.forward_project(geo.Image(truth, g.pixel_mm(16)), g)
    spec = solvers.ObjectiveSpec.for_geometry(
        g, sino, 16, 16, lam=0.8,
        regularizer=solvers.Regularizer("smoothed_tv", mu=0.05))
    x = rng.uniform(size=(16, 16))
    analytic = spec.grad(x)
    numeric = np.zeros_like(x)
    flat, out = x.reshape(-1), numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + 1e-6
        fp = spec.value(x)
        flat[i] = orig - 1e-6
        fm = spec.value(x)
        flat[i] = orig
        out[i] = (fp - fm) / 2e-6
    err_a = float(np.abs(analytic - numeric).max() / np.abs(numeric).max())

    # (b) the full regularization network at the tiny configuration
    cfg = mx.MixerConfig(patch=4, d=12, n_layers=1)
    params = materialize(mx.mixer_layout(cfg, 16, 16), substream(11, "init"),
                         np.float64)
    for name, t in params.items():
        if name.endswith((".w1", ".w2", ".w")) or ".linear" in name:
            t.data[...] = rng.normal(0.0, 0.3, size=t.shape)
    xin = Tensor(np.asarray(rng.normal(size=(1, 1, 16, 16)), dtype=np.float64),
                 requires_grad=True)
    target = Tensor(np.asarray(rng.normal(size=(1, 1, 16, 16)), dtype=np.float64))

    def mixer_loss():
        diff = ad.sub(mx.incept_mixer_forward(xin, params, cfg), target)
        return ad.mean(ad.mul(diff, diff))

    rep_b = ad.grad_check(mixer_loss, [xin] + [params[k] for k in sorted(params)],
                          eps=1e-6, max_coords=10, seed=0)

    # (c) the latent codec
    ccfg = ur.CodecConfig(k=2, width=6)
    cparams = materialize(ur.codec_layout(ccfg), substream(5, "init"),
                          np.float64)
    gin = Tensor(np.asarray(rng.normal(size=(1, 1, 16, 16)), dtype=np.float64),
                 requires_grad=True)

    def codec_loss():
        r = ur.encode_gradient(gin, cparams, ccfg)
        out = ur.decode_direction(r, cparams, ccfg, 16, 16)
        diff = ad.sub(out, target)
        return ad.mean(ad.mul(diff, diff))

    rep_c = ad.grad_check(codec_loss,
                          [gin] + [cparams[k] for k in sorted(cparams)],
                          eps=1e-6, max_coords=10, seed=0)
    elapsed = time.time() - start
    ok = err_a < 1e-6 and rep_b["max_rel_err"] < 1e-6 \
        and rep_c["max_rel_err"] < 1e-6 and elapsed < 60.0
    verdict(3, ok, f"FD errors: objective {err_a:.2e}, mixer "
                   f"{rep_b['max_rel_err']:.2e}, codec "
                   f"{rep_c['max_rel_err']:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 4: cold-start identity
# ---------------------------------------------------------------------------

def test_criterion_4_cold_start():
    g = geo.desk_geometry(n_views=16)
    ph = shepp_logan(64)
    sino = geo.forward_project(geo.Image(ph, g.pixel_mm(64)), g)
    noisy = geo.simulate_measurement(sino, 1e6, 0.05, seed=4)
    x_fbp = geo.fbp(noisy, g, h=64, w=64)
    ok = True
    for T in (1, 6):
        model = ur.QnMixerModel.build(
            64, 64, seed=4, mixer_config=mx.desk_mixer_config(),
            unroll_config=ur.UnrollConfig(T=T))
        img, _, _ = ur.unrolled_reconstruct(noisy, g, model, 64, 64)
        ok = ok and np.array_equal(img.values, x_fbp.values)
    verdict(4, ok, "zero-initialized unrolled model returns FBP bit-exactly "
                   "for T in {1, 6}")


# ---------------------------------------------------------------------------
# criterion 7: metric oracles
# ---------------------------------------------------------------------------

def test_criterion_7_metric_oracles():
    base = np.zeros((16, 16))
    psnr_exact = (
        abs(mt.psnr(base + 0.1, base, 1.0) - 20.0) < 1e-9
        and abs(mt.psnr(base + 0.01, base, 1.0) - 40.0) < 1e-9
        and mt.psnr(base, base) == np.inf
    )
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(16, 16))
    ref = np.clip(x + rng.normal(0, 0.2, x.shape), 0, 1)
    ssim_gap = abs(mt.ssim(x, ref) - brute_force_ssim(x, ref))
    anti = rng.normal(0, 0.5, (16, 16))
    ssim_gap = max(ssim_gap,
                   abs(mt.ssim(0.5 + anti, 0.5 - anti)
                       - brute_force_ssim(0.5 + anti, 0.5 - anti)))
    sigma = 0.3
    images = [rng.normal(0, sigma, size=(64, 64)) for _ in range(4)]
    rois = [(r, c) for r in range(0, 64, 16) for c in range(0, 64, 16)]
    _, _, nps2d = mt.nps_radial(images, rois, 16)
    parseval_gap = abs(mt.nps_integral(nps2d, 16) - sigma ** 2) / sigma ** 2
    ok = psnr_exact and ssim_gap < 1e-6 and parseval_gap < 0.05
    verdict(7, ok, f"psnr closed forms exact, ssim-vs-oracle gap "
                   f"{ssim_gap:.2e}, nps integral off by {parseval_gap:.1%}")


# ---------------------------------------------------------------------------
# criterion 8: protocol reproducibility
# ---------------------------------------------------------------------------

def test_criterion_8_protocols():
    img = shepp_logan(64)
    a, mask_a = mt.add_circle_ood(img, substream(8, "ood"))
    b, mask_b = mt.add_circle_ood(img, substream(8, "ood"))
    reproducible = np.array_equal(a, b) and np.array_equal(mask_a, mask_b)

    mask = mt.circle_mask(64, 64, cx=10, cy=10, radius=5)
    brute = sum(1 for i in range(64) for j in range(64)
                if (j - 10) ** 2 + (i - 10) ** 2 <= 25)
    forced = int(mask.sum()) == brute == 81

    # cropped-region scoring end to end on a reconstruction fixture
    g = geo.desk_geometry(n_views=32)
    sino = geo.forward_project(geo.Image(a, g.pixel_mm(64)), g)
    recon = geo.fbp(sino, g, h=64, w=64).values
    crop = mt.eval_ood_crop(recon, a, mask_a)
    end_to_end = np.isfinite(crop["psnr"]) and -1.0 <= crop["ssim"] <= 1.0
    verdict(8, reproducible and forced and end_to_end,
            f"seeded masks bit-identical, forced circle has 81 px, "
            f"crop eval runs (crop psnr {crop['psnr']:.1f} dB)")


# ---------------------------------------------------------------------------
# criterion 9: shape and parameter-count conformance at the full-scale config
# ---------------------------------------------------------------------------

def test_criterion_9_shapes_and_counts():
    cfg = mx.MixerConfig()  # patch 4, d 96, N 2 at 256x256
    params = materialize(mx.mixer_layout(cfg, 256, 256), substream(9, "init"))
    x = Tensor(np.random.default_rng(9).normal(size=(1, 1, 256, 256))
               .astype(np.float32))
    f = mx.inception_forward(x, params, cfg)
    e = mx.patch_embed(f, params["patch_embed.w"])
    out = mx.incept_mixer_forward(x, params, cfg)
    shapes_ok = (params["patch_embed.w"].shape == (96, 96, 4, 4)
                 and f.shape == (1, 96, 256, 256) and e.shape == (1, 96, 64, 64)
                 and out.shape == (1, 1, 256, 256))

    counts = mx.count_params(params)
    mixer_ok = abs(counts["mixer.0"] - 140_800) / 140_800 < 0.01

    # exact counts from the config: the patch embedding is a p x p,
    # stride-p conv from d to d channels with no bias; the expansion is a
    # d -> p*p*d linear (no bias), a LayerNorm (2d) and a 1x1 conv d -> 1
    # with bias (d + 1)
    p, d = cfg.patch, cfg.d
    assert counts["patch_embed"] == p * p * d * d
    assert counts["expand"] == d * p * p * d + 2 * d + d + 1

    # Erratum: the table prints 145.5k for the patch embedding, which no
    # 4x4, stride-4, 96->96 conv reaches under any bias or norm convention
    # (147,456 weights, +96 bias, +192 LayerNorm); it reads as a digit
    # transposition of 147.5k, the table's own count for the d -> p*p*d
    # expansion linear, which holds the same 147,456 weights.
    patch_embed_ref = 147_500
    patch_embed_ok = abs(counts["patch_embed"] - patch_embed_ref) \
        / patch_embed_ref < 0.01

    ok = shapes_ok and mixer_ok and patch_embed_ok
    verdict(9, ok,
            f"shapes {'ok' if shapes_ok else 'BAD'}; mixer layer "
            f"{counts['mixer.0']} (ref 140.8k, "
            f"{'within' if mixer_ok else 'outside'} 1%); patch embed "
            f"{counts['patch_embed']} vs ref 147.5k "
            f"({'within' if patch_embed_ok else 'outside'} 1%; "
            f"printed 145.5k, erratum)")
