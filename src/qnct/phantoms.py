"""Procedural test objects: Shepp-Logan, random ellipse bodies, smooth disks.

All phantoms are normalized attenuation maps with values in [0, 1] on the
unit square [-1, 1]^2, rasterized at pixel centers. Supersampling
anti-aliases edges where line-integral accuracy matters.
"""

import numpy as np

SUPERSAMPLE = 2  # sub-pixels per side of shepp_logan and random_ellipses

# (x0, y0, a, b, angle_deg, value): the common modified Shepp-Logan set,
# whose summed values already land in [0, 1].
_SHEPP_LOGAN = [
    (0.0, 0.0, 0.69, 0.92, 0.0, 1.0),
    (0.0, -0.0184, 0.6624, 0.874, 0.0, -0.8),
    (0.22, 0.0, 0.11, 0.31, -18.0, -0.2),
    (-0.22, 0.0, 0.16, 0.41, 18.0, -0.2),
    (0.0, 0.35, 0.21, 0.25, 0.0, 0.1),
    (0.0, 0.1, 0.046, 0.046, 0.0, 0.1),
    (0.0, -0.1, 0.046, 0.046, 0.0, 0.1),
    (-0.08, -0.605, 0.046, 0.023, 0.0, 0.1),
    (0.0, -0.605, 0.023, 0.023, 0.0, 0.1),
    (0.06, -0.605, 0.023, 0.046, 0.0, 0.1),
]


def _grid(m: int):
    coords = (np.arange(m) + 0.5) / m * 2.0 - 1.0
    return np.meshgrid(coords, -coords)  # row 0 at the top, y up


def _downsample(img: np.ndarray, ss: int) -> np.ndarray:
    n = img.shape[0] // ss
    return img.reshape(n, ss, n, ss).mean(axis=(1, 3))


def _add_ellipse(img, x, y, x0, y0, a, b, angle_deg, value):
    theta = np.deg2rad(angle_deg)
    ct, st = np.cos(theta), np.sin(theta)
    xr = (x - x0) * ct + (y - y0) * st
    yr = -(x - x0) * st + (y - y0) * ct
    img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += value


def shepp_logan(n: int) -> np.ndarray:
    """Modified Shepp-Logan head phantom, n x n, values in [0, 1]."""
    x, y = _grid(n * SUPERSAMPLE)
    img = np.zeros_like(x)
    for params in _SHEPP_LOGAN:
        _add_ellipse(img, x, y, *params)
    return np.clip(_downsample(img, SUPERSAMPLE), 0.0, 1.0).astype(np.float32)


def random_ellipses(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random body ellipse with 4..8 internal structures, values in [0, 1]."""
    x, y = _grid(n * SUPERSAMPLE)
    img = np.zeros_like(x)
    body_a = rng.uniform(0.65, 0.9)
    body_b = rng.uniform(0.65, 0.9)
    body_angle = rng.uniform(0.0, 180.0)
    _add_ellipse(img, x, y, rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
                 body_a, body_b, body_angle, rng.uniform(0.25, 0.45))
    for _ in range(int(rng.integers(4, 9))):
        a = rng.uniform(0.05, 0.35)
        b = rng.uniform(0.05, 0.35)
        cx = rng.uniform(-0.5, 0.5)
        cy = rng.uniform(-0.5, 0.5)
        value = rng.uniform(0.08, 0.4) * rng.choice([-1.0, 1.0])
        _add_ellipse(img, x, y, cx, cy, a, b, rng.uniform(0.0, 180.0), value)
    return np.clip(_downsample(img, SUPERSAMPLE), 0.0, 1.0).astype(np.float32)


def disk(n: int, radius_frac: float, value: float = 1.0,
         supersample: int = 8) -> np.ndarray:
    """Centered anti-aliased disk; radius as a fraction of the half extent."""
    x, y = _grid(n * supersample)
    img = np.zeros_like(x)
    _add_ellipse(img, x, y, 0.0, 0.0, radius_frac, radius_frac, 0.0, value)
    return _downsample(img, supersample).astype(np.float32)
