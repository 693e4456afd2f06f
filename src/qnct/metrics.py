"""Image quality metrics and evaluation protocols.

PSNR, windowed SSIM and its multi-scale product, radially averaged noise
power spectra (in pixel units) over a standard two-circle ROI layout, and
the white-circle anomaly protocol with cropped-region scoring. The SSIM
window (11x11 Gaussian, sigma 1.5, applied as two 1-D passes; Wang et al.
2004) and the MS-SSIM weights (Wang, Simoncelli and Bovik 2003) are fixed.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import ShapeError

log = logging.getLogger("qnct.metrics")

MS_SSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
SSIM_WINDOW = 11  # Gaussian window side
SSIM_SIGMA = 1.5
OOD_CROP_PAD = 4  # pixels around the anomaly's bounding box


def _check_data_range(op, data_range):
    if not (np.isfinite(data_range) and data_range > 0):
        raise ShapeError(f"{op}: data_range must be finite and > 0, "
                         f"got {data_range}")


def psnr(x: np.ndarray, ref: np.ndarray, data_range: float = 1.0) -> float:
    """10 log10(range^2 / MSE); +inf for identical inputs."""
    _check_data_range("psnr", data_range)
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise ShapeError(f"psnr: shapes {x.shape} vs {ref.shape}")
    mse = float(np.mean((x - ref) ** 2))
    if mse == 0.0:
        return np.inf
    return 10.0 * np.log10(data_range * data_range / mse)


def gaussian_kernel() -> np.ndarray:
    """Normalized 1-D Gaussian taps; the SSIM window is their outer
    product, so filtering rows and then columns with them applies it."""
    half = (SSIM_WINDOW - 1) / 2.0
    coords = np.arange(SSIM_WINDOW) - half
    g = np.exp(-(coords ** 2) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    return g / g.sum()


# the taps every SSIM pass uses, built once and shared, so read-only
_SSIM_TAPS = gaussian_kernel()
_SSIM_TAPS.flags.writeable = False


def _local_stats(x, y, taps):
    """Gaussian-weighted means, variances and covariance over every valid
    window: one separable pass over the stacked (x, y, x², y², xy) maps."""
    windows = np.lib.stride_tricks.sliding_window_view
    maps = np.stack([x, y, x * x, y * y, x * y])
    rows = windows(maps, taps.size, axis=-1) @ taps
    mu_x, mu_y, xx, yy, xy = windows(rows, taps.size, axis=-2) @ taps
    return mu_x, mu_y, xx - mu_x ** 2, yy - mu_y ** 2, xy - mu_x * mu_y


def _ssim_terms(x, y, data_range):
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    mu_x, mu_y, var_x, var_y, cov = _local_stats(x, y, _SSIM_TAPS)
    luminance = (2 * mu_x * mu_y + c1) / (mu_x ** 2 + mu_y ** 2 + c1)
    cs = (2 * cov + c2) / (var_x + var_y + c2)
    return luminance, cs


def _ssim_inputs(op, x, ref):
    """x and ref as float64, checked to match and to hold one window."""
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise ShapeError(f"{op}: shapes {x.shape} vs {ref.shape}")
    if min(x.shape) < SSIM_WINDOW:
        raise ShapeError(
            f"{op}: image {x.shape} smaller than the {SSIM_WINDOW} kernel"
        )
    return x, ref


def ssim(x: np.ndarray, ref: np.ndarray, data_range: float = 1.0, *,
         level0=None) -> float:
    """Mean windowed structural similarity (Gaussian 11x11, sigma 1.5).

    ``level0`` is the ``_ssim_terms`` of (x, ref), when the caller already
    has them (``evaluate_pair`` shares them with ``ms_ssim``)."""
    _check_data_range("ssim", data_range)
    x, ref = _ssim_inputs("ssim", x, ref)
    if level0 is None:
        level0 = _ssim_terms(x, ref, data_range)
    luminance, cs = level0
    return float(np.mean(luminance * cs))


def _mean_pool2(x: np.ndarray) -> np.ndarray:
    """2x2 means over four strided views, summed in the pairing numpy's
    reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3)) uses, so bit for bit
    its result without its reduction overhead."""
    h, w = x.shape
    x = x[: h - h % 2, : w - w % 2]
    return ((x[0::2, 0::2] + x[0::2, 1::2])
            + (x[1::2, 0::2] + x[1::2, 1::2])) / 4


def max_msssim_levels(shape) -> int:
    levels = 0
    size = min(shape)
    while size >= SSIM_WINDOW and levels < 5:
        levels += 1
        size //= 2
    return levels


def ms_ssim(x: np.ndarray, ref: np.ndarray, data_range: float = 1.0,
            levels: int = 5, *, level0=None) -> float:
    """Multi-scale SSIM: contrast/structure across scales, luminance at the
    coarsest; scales connect by 2x2 mean pooling. ``level0`` is as in
    ``ssim``: the full-size level's terms, if the caller has them."""
    _check_data_range("ms_ssim", data_range)
    x, ref = _ssim_inputs("ms_ssim", x, ref)
    if levels < 1 or levels > len(MS_SSIM_WEIGHTS):
        raise ShapeError(f"ms_ssim: levels must be in 1..{len(MS_SSIM_WEIGHTS)}")
    weights = np.asarray(MS_SSIM_WEIGHTS[:levels], dtype=np.float64)
    score = 1.0
    terms = level0
    for level in range(levels):
        if min(x.shape) < SSIM_WINDOW:
            raise ShapeError(
                f"ms_ssim: level {level + 1} image {x.shape} smaller than "
                f"the {SSIM_WINDOW} kernel"
            )
        if terms is None:
            terms = _ssim_terms(x, ref, data_range)
        luminance, cs = terms
        terms = None
        # an anti-correlated pair has a negative mean cs, which has no
        # fractional power; clamp at 0 as reference MS-SSIM code does
        if level == levels - 1:
            score *= max(float(np.mean(luminance * cs)), 0.0) ** weights[level]
        else:
            score *= max(float(np.mean(cs)), 0.0) ** weights[level]
            x = _mean_pool2(x)
            ref = _mean_pool2(ref)
    return float(score)


# ---------------------------------------------------------------------------
# noise power spectrum
# ---------------------------------------------------------------------------

def paper_roi_layout(image_size: int):
    """Two-circle ROI layout scaled from the 256 reference: one central ROI,
    8 on the inner circle (radius 25), 20 on the outer (radius 50); ROIs are
    20x20 at the reference size."""
    scale = image_size / 256
    roi = max(4, int(round(20 * scale)))
    center = image_size / 2.0
    corners = []

    def add(cy, cx):
        r = int(round(cy - roi / 2.0))
        c = int(round(cx - roi / 2.0))
        corners.append((r, c))

    add(center, center)
    for count, radius in ((8, 25.0 * scale), (20, 50.0 * scale)):
        for i in range(count):
            ang = 2.0 * np.pi * i / count
            add(center + radius * np.sin(ang), center + radius * np.cos(ang))
    return corners, roi


def nps_radial(noise_images, rois, roi_size: int):
    """Averaged periodogram of mean-subtracted ROIs, plus its radial profile.

    Returns (freq_centers, curve, nps2d). nps2d integrates (du dv) to the
    noise variance, so sum(nps2d) / roi_size^2 recovers it.
    """
    images = [np.asarray(img, dtype=np.float64) for img in noise_images]
    if not images or not rois:
        raise ShapeError("nps_radial needs at least one image and one ROI")
    acc = np.zeros((roi_size, roi_size), dtype=np.float64)
    count = 0
    for img in images:
        h, w = img.shape
        for r, c in rois:
            if r < 0 or c < 0 or r + roi_size > h or c + roi_size > w:
                raise ShapeError(
                    f"ROI at ({r},{c}) size {roi_size} outside image {img.shape}"
                )
            patch = img[r:r + roi_size, c:c + roi_size]
            patch = patch - patch.mean()
            spec = np.abs(np.fft.fft2(patch)) ** 2
            acc += spec
            count += 1
    nps2d = acc / (roi_size * roi_size * count)

    fx = np.fft.fftfreq(roi_size)
    radius = np.sqrt(fx[None, :] ** 2 + fx[:, None] ** 2)
    n_bins = roi_size // 2
    edges = np.linspace(0.0, 0.5, n_bins + 1)  # up to Nyquist
    which = np.clip(np.digitize(radius.ravel(), edges) - 1, 0, n_bins - 1)
    sums = np.bincount(which, weights=nps2d.ravel(), minlength=n_bins)
    counts = np.bincount(which, minlength=n_bins)
    curve = sums / np.maximum(counts, 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, curve, np.fft.fftshift(nps2d)


def nps_integral(nps2d: np.ndarray, roi_size: int) -> float:
    """Integral of the 2D spectrum over frequency; equals noise variance."""
    dudv = 1.0 / roi_size ** 2
    return float(nps2d.sum() * dudv)


# ---------------------------------------------------------------------------
# anomaly (white circle) protocol
# ---------------------------------------------------------------------------

def circle_mask(h: int, w: int, cx: int, cy: int, radius: int) -> np.ndarray:
    yy, xx = np.ogrid[:h, :w]
    dist = np.sqrt((xx - cx) ** 2 + (yy - cy) ** 2)
    return dist <= radius


def add_circle_ood(image: np.ndarray, rng: np.random.Generator,
                   value: float = 1.0):
    """Stamp a random bright disk, drawn from rng, into a copy of the image;
    returns (stamped, mask). Radius is uniform in [5, 20), the center keeps
    the disk inside; small images rescale the radius range (logged), and
    an image with a side below 3 has no room for a disk."""
    img = np.array(image, copy=True)
    if img.ndim != 2:
        raise ShapeError(f"add_circle_ood: expected 2-d image, got {img.shape}")
    h, w = img.shape
    if min(h, w) < 3:
        raise ShapeError(f"add_circle_ood: image {img.shape} has a side below 3")
    lo, hi = 5, 20
    if min(h, w) <= 2 * hi:
        hi = max(2, min(h, w) // 4)
        lo = max(1, hi // 4)
        log.info("add_circle_ood: small image, radius range rescaled to "
                 "[%d, %d)", lo, hi)
    radius = int(rng.integers(lo, hi))
    cx = int(rng.integers(radius, w - radius))
    cy = int(rng.integers(radius, h - radius))
    mask = circle_mask(h, w, cx, cy, radius)
    img[mask] = value
    return img, mask


def _widen(lo: int, hi: int, limit: int):
    """[lo, hi) grown about its center to at least the SSIM window, kept
    inside [0, limit); a side that meets the border passes its share on."""
    short = SSIM_WINDOW - (hi - lo)
    if short <= 0:
        return lo, hi
    lo -= short // 2
    hi += short - short // 2
    if lo < 0:
        lo, hi = 0, hi - lo
    if hi > limit:
        lo, hi = max(0, lo - (hi - limit)), limit
    return lo, hi


def eval_ood_crop(x: np.ndarray, ref: np.ndarray, mask: np.ndarray) -> dict:
    """PSNR/SSIM on the bounding box of the anomaly mask, padded by
    OOD_CROP_PAD and widened to the SSIM window where the image allows
    (small disks on small images)."""
    x = np.asarray(x)
    ref = np.asarray(ref)
    if x.shape != ref.shape or x.shape != mask.shape:
        raise ShapeError(
            f"eval_ood_crop: shapes {x.shape}/{ref.shape}/{mask.shape}"
        )
    rows = np.any(mask, axis=1)
    cols = np.any(mask, axis=0)
    if not rows.any():
        raise ShapeError("eval_ood_crop: empty mask")
    r0, r1 = np.where(rows)[0][[0, -1]]
    c0, c1 = np.where(cols)[0][[0, -1]]
    r0 = max(0, r0 - OOD_CROP_PAD)
    c0 = max(0, c0 - OOD_CROP_PAD)
    r1 = min(mask.shape[0], r1 + 1 + OOD_CROP_PAD)
    c1 = min(mask.shape[1], c1 + 1 + OOD_CROP_PAD)
    r0, r1 = _widen(r0, r1, mask.shape[0])
    c0, c1 = _widen(c0, c1, mask.shape[1])
    xc = x[r0:r1, c0:c1]
    rc = ref[r0:r1, c0:c1]
    return {
        "psnr": psnr(xc, rc),
        "ssim": ssim(xc, rc),
        "bbox": (int(r0), int(c0), int(r1), int(c1)),
    }


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate_pair(x: np.ndarray, ref: np.ndarray, data_range: float = 1.0,
                  msssim_levels: int = 0) -> dict:
    """psnr / ssim / ms_ssim row; 0 levels means the largest feasible.
    ssim and ms_ssim share one pass over the full-size windows."""
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if not msssim_levels:
        msssim_levels = max_msssim_levels(x.shape)
    row = {"psnr": psnr(x, ref, data_range)}
    level0 = _ssim_terms(*_ssim_inputs("ssim", x, ref), data_range)
    row["ssim"] = ssim(x, ref, data_range, level0=level0)
    row["ms_ssim"] = (ms_ssim(x, ref, data_range, levels=msssim_levels,
                              level0=level0)
                      if msssim_levels >= 1 else np.nan)
    return row
