"""Parameter initializers and seeded substream handling.

All randomness in the package flows from one user seed through named
substreams, so each protocol (noise, init, ood, data order) is
independently reproducible.
"""

import numpy as np

from .autodiff import Tensor

# Fixed substream tags; changing these changes every seeded artifact.
_STREAMS = {"noise": 1, "init": 2, "ood": 3, "data": 4}


def substream(seed: int, name: str) -> np.random.Generator:
    """Derive the named RNG substream of a user seed."""
    if name not in _STREAMS:
        raise KeyError(f"unknown rng substream {name!r}")
    return np.random.default_rng([int(seed), _STREAMS[name]])


def xavier_uniform(shape, fan_in: int, fan_out: int, rng, dtype=np.float32) -> Tensor:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    data = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return Tensor(data, requires_grad=True)


def truncated_normal(shape, std: float, rng, dtype=np.float32) -> Tensor:
    """Normal(0, std) resampled until all draws fall inside +-2 std."""
    data = rng.normal(0.0, std, size=shape)
    bad = np.abs(data) > 2.0 * std
    while np.any(bad):
        data[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(data) > 2.0 * std
    return Tensor(data.astype(dtype), requires_grad=True)


def full(shape, value: float, dtype=np.float32) -> Tensor:
    return Tensor(np.full(shape, value, dtype=dtype), requires_grad=True)


ZEROS = ("const", 0.0)
ONES = ("const", 1.0)


def materialize(layout, rng, dtype=np.float32) -> dict:
    """The weights of a layout: (name, shape, init) entries, drawn from rng
    in layout order. init is ("xavier", fan_in, fan_out), ("normal", std)
    for a truncated normal, or ("const", value)."""
    params = {}
    for name, shape, (kind, *args) in layout:
        if kind == "xavier":
            params[name] = xavier_uniform(shape, *args, rng, dtype)
        elif kind == "normal":
            params[name] = truncated_normal(shape, *args, rng, dtype)
        else:
            params[name] = full(shape, *args, dtype)
    return params
