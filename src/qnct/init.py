"""Seeded substreams and the initial weights of a layout.

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


ZEROS = ("const", 0.0)
ONES = ("const", 1.0)


def materialize(layout, rng, dtype=np.float32) -> dict:
    """The weights of a layout: (name, shape, init) entries, drawn from rng
    in layout order. init is ("xavier", fan_in, fan_out) for a Xavier
    uniform draw, ("normal", std) for Normal(0, std) redrawn until every
    entry lies inside +-2 std, or ("const", value)."""
    params = {}
    for name, shape, (kind, *args) in layout:
        if kind == "xavier":
            fan_in, fan_out = args
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            data = rng.uniform(-bound, bound, size=shape)
        elif kind == "normal":
            (std,) = args
            data = rng.normal(0.0, std, size=shape)
            bad = np.abs(data) > 2.0 * std
            while np.any(bad):
                data[bad] = rng.normal(0.0, std, size=int(bad.sum()))
                bad = np.abs(data) > 2.0 * std
        else:
            data = np.full(shape, *args)
        params[name] = Tensor(data.astype(dtype), requires_grad=True)
    return params
