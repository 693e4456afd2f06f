import logging
import warnings

import numpy as np
import pytest

from qnct import metrics as mt
from qnct.errors import ShapeError
from qnct.init import substream
from qnct.phantoms import shepp_logan


def gaussian_window(size=11, sigma=1.5):
    """The 2-D SSIM window, built here and not from mt.gaussian_kernel."""
    half = (size - 1) / 2.0
    window = np.array([[np.exp(-((i - half) ** 2 + (j - half) ** 2)
                               / (2.0 * sigma * sigma))
                        for j in range(size)] for i in range(size)])
    return window / window.sum()


def brute_force_terms(x, ref, data_range=1.0, size=11, sigma=1.5):
    """(mean luminance * cs, mean cs) over every window, via explicit loops."""
    kernel = gaussian_window(size, sigma)
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    h, w = x.shape
    ssims, css = [], []
    for i in range(h - size + 1):
        for j in range(w - size + 1):
            wx = x[i:i + size, j:j + size]
            wy = ref[i:i + size, j:j + size]
            mu_x = float((kernel * wx).sum())
            mu_y = float((kernel * wy).sum())
            var_x = float((kernel * wx * wx).sum()) - mu_x ** 2
            var_y = float((kernel * wy * wy).sum()) - mu_y ** 2
            cov = float((kernel * wx * wy).sum()) - mu_x * mu_y
            cs = (2 * cov + c2) / (var_x + var_y + c2)
            css.append(cs)
            ssims.append(cs * (2 * mu_x * mu_y + c1)
                         / (mu_x ** 2 + mu_y ** 2 + c1))
    return float(np.mean(ssims)), float(np.mean(css))


def brute_force_ssim(x, ref, data_range=1.0, size=11, sigma=1.5):
    """Windowed SSIM via explicit loops, the independent oracle."""
    return brute_force_terms(x, ref, data_range, size, sigma)[0]


def brute_force_ms_ssim(x, ref, levels, weights=mt.MS_SSIM_WEIGHTS):
    """MS-SSIM from the brute-force terms at every level, 2x2 mean pooled
    between levels."""
    score = 1.0
    for level in range(levels):
        full, cs = brute_force_terms(x, ref)
        term = full if level == levels - 1 else cs
        score *= max(term, 0.0) ** weights[level]
        h, w = (n - n % 2 for n in x.shape)
        x = (x[0:h:2, 0:w:2] + x[1:h:2, 0:w:2]
             + x[0:h:2, 1:w:2] + x[1:h:2, 1:w:2]) / 4.0
        ref = (ref[0:h:2, 0:w:2] + ref[1:h:2, 0:w:2]
               + ref[0:h:2, 1:w:2] + ref[1:h:2, 1:w:2]) / 4.0
    return score


def noisy_pair(rng, shape, sigma=0.15):
    x = rng.uniform(size=shape)
    return x, np.clip(x + rng.normal(0, sigma, size=shape), 0, 1)


class TestPsnr:
    def test_identical_is_inf(self):
        x = np.random.default_rng(0).normal(size=(8, 8))
        assert mt.psnr(x, x) == np.inf

    def test_closed_form_offsets(self):
        base = np.zeros((16, 16))
        assert mt.psnr(base + 0.1, base, 1.0) == pytest.approx(20.0, abs=1e-9)
        assert mt.psnr(base + 0.01, base, 1.0) == pytest.approx(40.0, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        assert mt.psnr(a, b) == mt.psnr(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mt.psnr(np.zeros((4, 4)), np.zeros((5, 5)))


class TestSsim:
    def test_identical_is_one(self):
        x = np.random.default_rng(2).uniform(size=(16, 16))
        assert mt.ssim(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_constant_images_luminance_only(self):
        a = np.full((16, 16), 0.5)
        b = np.full((16, 16), 0.6)
        expected = (2 * 0.5 * 0.6 + 1e-4) / (0.25 + 0.36 + 1e-4)
        assert mt.ssim(a, b, 1.0) == pytest.approx(expected, abs=1e-9)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(16, 16))
        ref = np.clip(x + rng.normal(0, 0.15, size=(16, 16)), 0, 1)
        assert mt.ssim(x, ref) == pytest.approx(
            brute_force_ssim(x, ref), abs=1e-6)

    def test_anticorrelated_can_be_negative(self):
        rng = np.random.default_rng(4)
        pattern = rng.normal(0, 0.5, size=(16, 16))
        x = 0.5 + pattern
        ref = 0.5 - pattern
        score = mt.ssim(x, ref)
        assert score < 0.0
        assert score == pytest.approx(brute_force_ssim(x, ref), abs=1e-6)

    def test_too_small_image(self):
        with pytest.raises(ShapeError, match="kernel"):
            mt.ssim(np.zeros((8, 8)), np.zeros((8, 8)))

    @pytest.mark.parametrize("shape", [(11, 11), (13, 29), (29, 13),
                                       (40, 64), (17, 17)])
    def test_brute_force_oracle_on_rectangular_and_odd_shapes(self, shape):
        x, ref = noisy_pair(np.random.default_rng(sum(shape)), shape)
        assert mt.ssim(x, ref) == pytest.approx(
            brute_force_ssim(x, ref), abs=1e-6)

    def test_kernel_is_separable_gaussian(self):
        taps = mt.gaussian_kernel()
        assert taps.shape == (11,)
        assert taps.sum() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(taps, taps[::-1], rtol=0, atol=0)
        np.testing.assert_allclose(np.outer(taps, taps), gaussian_window(),
                                   rtol=1e-14, atol=0)

    def test_shared_taps_are_the_kernel_bit_for_bit_and_read_only(self):
        assert mt._SSIM_TAPS.tobytes() == mt.gaussian_kernel().tobytes()
        assert not mt._SSIM_TAPS.flags.writeable
        with pytest.raises(ValueError):
            mt._SSIM_TAPS[0] = 0.0


class TestMsSsim:
    def test_identical_is_one(self):
        x = np.random.default_rng(5).uniform(size=(192, 192))
        assert mt.ms_ssim(x, x, levels=5) == pytest.approx(1.0, abs=1e-9)

    def test_level_feasibility(self):
        assert mt.max_msssim_levels((256, 256)) == 5
        assert mt.max_msssim_levels((64, 64)) == 3
        assert mt.max_msssim_levels((16, 16)) == 1
        with pytest.raises(ShapeError, match="smaller"):
            mt.ms_ssim(np.zeros((64, 64)), np.zeros((64, 64)), levels=5)

    def test_three_levels_on_desk_images(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(size=(64, 64))
        ref = np.clip(x + rng.normal(0, 0.1, size=(64, 64)), 0, 1)
        score = mt.ms_ssim(x, ref, levels=3)
        assert 0.0 < score < 1.0

    def test_anti_correlated_pair_is_finite(self):
        # the mean contrast-structure term is negative here; a fractional
        # power of it would be NaN
        x = np.random.default_rng(8).uniform(size=(256, 256))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            score = mt.ms_ssim(1.0 - x, x)
        assert np.isfinite(score) and 0.0 <= score <= 1.0

    @pytest.mark.parametrize("shape, levels", [((64, 64), 3),
                                               ((48, 80), 2),
                                               ((45, 23), 2)])
    def test_matches_brute_force_oracle(self, shape, levels):
        x, ref = noisy_pair(np.random.default_rng(levels), shape, 0.1)
        assert mt.ms_ssim(x, ref, levels=levels) == pytest.approx(
            brute_force_ms_ssim(x, ref, levels), abs=1e-6)

    def test_degrades_with_noise(self):
        rng = np.random.default_rng(7)
        ref = shepp_logan(192)
        a = np.clip(ref + rng.normal(0, 0.02, ref.shape), 0, 1)
        b = np.clip(ref + rng.normal(0, 0.2, ref.shape), 0, 1)
        assert mt.ms_ssim(b, ref) < mt.ms_ssim(a, ref)


class TestNps:
    def test_white_noise_integral_matches_variance(self):
        # 4 x (4x4 grid of 16-pixel ROIs) = 64 ROIs
        rng = np.random.default_rng(8)
        sigma = 0.35
        images = [rng.normal(0, sigma, size=(64, 64)) for _ in range(4)]
        rois = [(r, c) for r in range(0, 64, 16) for c in range(0, 64, 16)]
        freq, curve, nps2d = mt.nps_radial(images, rois, 16)
        integral = mt.nps_integral(nps2d, 16)
        assert abs(integral - sigma ** 2) / sigma ** 2 < 0.05
        assert freq.shape == curve.shape
        assert np.all(curve >= 0.0)

    def test_constant_images_zero_spectrum(self):
        images = [np.full((32, 32), 0.7)]
        rois, roi = mt.paper_roi_layout(32)
        _, curve, nps2d = mt.nps_radial(images, rois, roi)
        np.testing.assert_array_equal(curve, 0.0)
        np.testing.assert_array_equal(nps2d, 0.0)

    def test_paper_layout_has_29_rois(self):
        rois, roi = mt.paper_roi_layout(256)
        assert len(rois) == 29
        assert roi == 20
        # all ROIs inside the image
        for r, c in rois:
            assert 0 <= r and r + roi <= 256
            assert 0 <= c and c + roi <= 256

    def test_roi_outside_image_rejected(self):
        with pytest.raises(ShapeError, match="outside"):
            mt.nps_radial([np.zeros((16, 16))], [(10, 10)], 8)


class TestCircleProtocol:
    def test_forced_geometry_has_81_pixels(self):
        mask = mt.circle_mask(64, 64, cx=10, cy=10, radius=5)
        brute = sum(1 for i in range(64) for j in range(64)
                    if (j - 10) ** 2 + (i - 10) ** 2 <= 25)
        assert brute == 81
        assert int(mask.sum()) == 81

    def test_seeded_reproducibility(self):
        img = shepp_logan(64)
        a, mask_a = mt.add_circle_ood(img, substream(5, "ood"))
        b, mask_b = mt.add_circle_ood(img, substream(5, "ood"))
        assert np.array_equal(a, b)
        assert np.array_equal(mask_a, mask_b)
        c, mask_c = mt.add_circle_ood(img, substream(6, "ood"))
        assert not np.array_equal(mask_a, mask_c)

    def test_default_value_and_radius_range(self):
        img = np.zeros((64, 64), dtype=np.float32)
        for seed in range(8):
            out, mask = mt.add_circle_ood(img, substream(seed, "ood"))
            assert out[mask].min() == out[mask].max() == 1.0
            # radius in [5, 20): area strictly between r=4 and r=20 disks
            area = mask.sum()
            assert np.pi * 4.5 ** 2 < area < np.pi * 20.5 ** 2

    def test_small_image_rescales_radius(self, caplog):
        img = np.zeros((32, 32), dtype=np.float32)
        with caplog.at_level(logging.INFO, logger="qnct.metrics"):
            _, mask = mt.add_circle_ood(img, substream(1, "ood"))
        assert mask.sum() > 0
        assert "rescaled" in caplog.text

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 64), (64, 1)])
    def test_image_with_a_side_below_3_is_refused(self, shape):
        rng = substream(0, "ood")
        with pytest.raises(ShapeError, match=rf"image \({shape[0]}, {shape[1]}\)"):
            mt.add_circle_ood(np.zeros(shape, dtype=np.float32), rng)
        assert rng.bit_generator.state == substream(0, "ood").bit_generator.state

    def test_smallest_image_gets_a_disk(self):
        out, mask = mt.add_circle_ood(np.zeros((3, 3)), substream(0, "ood"))
        assert mask.sum() > 0 and out[mask].min() == 1.0

    def test_input_not_mutated(self):
        img = np.zeros((64, 64), dtype=np.float32)
        mt.add_circle_ood(img, substream(0, "ood"))
        assert img.sum() == 0.0


class TestOodCrop:
    def test_identical_crop_is_inf(self):
        img = shepp_logan(64)
        stamped, mask = mt.add_circle_ood(img, substream(2, "ood"))
        out = mt.eval_ood_crop(stamped, stamped, mask)
        assert out["psnr"] == np.inf

    def test_full_coverage_equals_full_image(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(size=(32, 32))
        ref = rng.uniform(size=(32, 32))
        mask = np.ones((32, 32), dtype=bool)
        out = mt.eval_ood_crop(x, ref, mask)
        assert out["bbox"] == (0, 0, 32, 32)
        assert out["psnr"] == pytest.approx(mt.psnr(x, ref))
        assert out["ssim"] == pytest.approx(mt.ssim(x, ref))

    def test_empty_mask_rejected(self):
        with pytest.raises(ShapeError, match="empty"):
            mt.eval_ood_crop(np.zeros((16, 16)), np.zeros((16, 16)),
                             np.zeros((16, 16), dtype=bool))

    def test_narrow_box_widens_to_the_window(self):
        # with the 4-pixel pad a one-pixel mask boxes 9x9, and a radius-1
        # disk at the border 7x7, both narrower than the 11 window; the box
        # grows about its center, and at the border into the image
        rng = np.random.default_rng(12)
        x, ref = noisy_pair(rng, (16, 16))
        for (cx, cy), radius, bbox in (((8, 7), 0, (2, 3, 13, 14)),
                                       ((1, 14), 1, (5, 0, 16, 11))):
            mask = mt.circle_mask(16, 16, cx=cx, cy=cy, radius=radius)
            out = mt.eval_ood_crop(x, ref, mask)
            assert out["bbox"] == bbox
            r0, c0, r1, c1 = bbox
            assert out["ssim"] == mt.ssim(x[r0:r1, c0:c1], ref[r0:r1, c0:c1])

    def test_box_of_window_size_unchanged(self):
        rng = np.random.default_rng(13)
        x, ref = noisy_pair(rng, (64, 64))
        pad = mt.OOD_CROP_PAD
        for radius in (5, 1, 2):
            mask = mt.circle_mask(64, 64, cx=30, cy=20, radius=radius)
            side = 2 * radius + 1 + 2 * pad
            out = mt.eval_ood_crop(x, ref, mask)
            assert out["bbox"] == (20 - radius - pad, 30 - radius - pad,
                                   20 - radius - pad + side,
                                   30 - radius - pad + side)

    def test_image_smaller_than_window_rejected(self):
        mask = np.zeros((8, 12), dtype=bool)
        mask[4, 6] = True
        with pytest.raises(ShapeError, match="kernel"):
            mt.eval_ood_crop(np.zeros((8, 12)), np.zeros((8, 12)), mask)

    def test_crop_scores_below_full_image_on_anomaly_failure_fixture(self):
        # fixture mimicking a model that reconstructs familiar anatomy well
        # but misses the unseen disk: good everywhere, wrong inside the
        # anomaly; the crop isolates the failure, the full image dilutes it
        rng = np.random.default_rng(11)
        truth = shepp_logan(64)
        stamped, mask = mt.add_circle_ood(truth, substream(3, "ood"))
        recon = stamped + rng.normal(0, 0.01, stamped.shape)
        recon[mask] = truth[mask]  # the disk never appears in the output
        crop = mt.eval_ood_crop(recon, stamped, mask)
        assert crop["psnr"] < mt.psnr(recon, stamped)
        assert crop["ssim"] < mt.ssim(recon, stamped)


def test_scores_pinned_on_seeded_desk_pair():
    # values of the 2-D window einsum this filter replaced
    rng = np.random.default_rng(12)
    ref = shepp_logan(64).astype(np.float64)
    x = np.clip(ref + rng.normal(0, 0.05, ref.shape), 0, 1)
    assert mt.ssim(x, ref) == pytest.approx(0.645672428936646, abs=1e-12)
    assert mt.ms_ssim(x, ref, levels=3) == pytest.approx(
        0.9719446632243337, abs=1e-12)


@pytest.mark.parametrize("score", [
    mt.psnr, mt.ssim, lambda x, ref, r: mt.ms_ssim(x, ref, r, levels=2)],
    ids=["psnr", "ssim", "ms_ssim"])
@pytest.mark.parametrize("data_range", [0.0, -1.0, np.nan, np.inf])
def test_scores_refuse_a_data_range_not_finite_and_positive(score,
                                                            data_range):
    x = np.random.default_rng(14).uniform(size=(32, 32))
    with pytest.raises(ShapeError, match="data_range must be finite and > 0"):
        score(x, x, data_range)


def test_evaluate_pair_row():
    rng = np.random.default_rng(10)
    x = rng.uniform(size=(64, 64))
    ref = np.clip(x + rng.normal(0, 0.05, size=(64, 64)), 0, 1)
    row = mt.evaluate_pair(x, ref)
    assert set(row) == {"psnr", "ssim", "ms_ssim"}
    assert row["psnr"] > 20.0
    assert 0 < row["ssim"] <= 1.0
    assert 0 < row["ms_ssim"] <= 1.0


@pytest.mark.parametrize("shape,dtype", [((64, 64), np.float32),
                                         ((96, 70), np.float64),
                                         ((12, 12), np.float64)])
def test_evaluate_pair_scores_equal_separate_calls(shape, dtype):
    rng = np.random.default_rng(11)
    ref = rng.uniform(size=shape).astype(dtype)
    x = np.clip(ref + rng.normal(0, 0.05, size=shape), 0, 1).astype(dtype)
    levels = mt.max_msssim_levels(shape)
    row = mt.evaluate_pair(x, ref, 2.0)
    assert row["psnr"] == mt.psnr(x, ref, 2.0)
    assert row["ssim"] == mt.ssim(x, ref, 2.0)
    assert row["ms_ssim"] == mt.ms_ssim(x, ref, 2.0, levels=levels)


def test_evaluate_pair_filters_each_level_once(monkeypatch):
    calls = []

    def counting(x, y, taps):
        calls.append(x.shape)
        return local_stats(x, y, taps)

    local_stats = mt._local_stats
    monkeypatch.setattr(mt, "_local_stats", counting)
    rng = np.random.default_rng(13)
    x, ref = rng.uniform(size=(2, 64, 64))
    mt.evaluate_pair(x, ref)
    assert calls == [(64, 64), (32, 32), (16, 16)]
    calls.clear()
    mt.evaluate_pair(x, ref, msssim_levels=1)
    assert calls == [(64, 64)]


@pytest.mark.parametrize("shape", [(16, 16), (17, 23), (64, 64), (100, 37),
                                   (255, 256), (256, 256)])
@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e3, 1e15])
def test_mean_pool2_is_numpys_mean_bit_for_bit(shape, scale):
    h, w = shape
    rng = np.random.default_rng([h, w, round(np.log10(scale)) + 20])
    x = scale * (rng.normal(size=shape) + rng.uniform())
    even = x[: h - h % 2, : w - w % 2]
    ref = even.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
    assert mt._mean_pool2(x).tobytes() == ref.tobytes()
