"""Fuzz the file boundary: garbled input may only raise QnctError subclasses.

Valid files (a TOMO1 image, a small checkpoint) are truncated
or have bytes flipped, and garbled text is fed to the config parser. Any
exception other than a QnctError fails the test. Runs are derandomized and
short so they stay in the tier-1 time budget.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnct import autodiff as ad
from qnct import config as cfgmod
from qnct import tomo_io as tio
from qnct import train as tr
from qnct import unroll as ur
from qnct.errors import QnctError

FUZZ = settings(max_examples=60, derandomize=True, deadline=None,
                database=None)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    tio.write_tomo(root / "x.tomo", rng.uniform(size=(4, 5)).astype(np.float32),
                   tio.KIND_IMAGE)
    cfg = cfgmod.resolve_config(None, {"mixer.d": "12", "mixer.n_layers": "1",
                                       "unroll.T": "2",
                                       "unroll.codec_width": "8"})
    model = ur.QnMixerModel.build(16, 16, 0, *tr.model_configs(cfg))
    ad.save_checkpoint(model.params, root / "x.ckpt", tr.model_meta(model))
    blobs = {ext: (root / f"x.{ext}").read_bytes()
             for ext in ("tomo", "ckpt")}
    return root, blobs


def garble(blob: bytes, data, span: int) -> bytes:
    """Truncate, or XOR up to four bytes among the first `span`."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    out = bytearray(blob)
    flips = data.draw(st.lists(st.tuples(st.integers(0, span - 1),
                                         st.integers(1, 255)),
                               min_size=1, max_size=4), label="flips")
    for pos, mask in flips:
        out[pos] ^= mask
    return bytes(out)


def only_qnct_errors(fn, path):
    try:
        fn(path)
    except QnctError:
        pass


@pytest.mark.parametrize("ext,reader", [
    ("tomo", tio.read_tomo),
    ("ckpt", ad.load_checkpoint),
    ("ckpt", tr.model_from_checkpoint),
], ids=["read_tomo", "load_checkpoint", "model_from_checkpoint"])
@FUZZ
@given(data=st.data())
def test_garbled_file_raises_only_qnct_errors(valid, ext, reader, data):
    root, blobs = valid
    blob = blobs[ext]
    # flips past the checkpoint manifest only change weight values
    span = blob.find(b"END\n") + 4 if ext == "ckpt" else len(blob)
    path = root / f"garbled.{ext}"
    path.write_bytes(garble(blob, data, span))
    only_qnct_errors(reader, path)


@settings(FUZZ, max_examples=300)
@given(data=st.data())
def test_checkpoint_meta_and_weight_names_are_validated(valid, data):
    root, _ = valid
    arrays, meta = ad.load_checkpoint(root / "x.ckpt")
    key = data.draw(st.sampled_from(tr.MODEL_KEYS), label="key")
    meta[key] = data.draw(st.text(alphabet="0123456789-x", max_size=3),
                          label="value")
    drop = data.draw(st.sets(st.sampled_from(sorted(arrays)), max_size=2),
                     label="drop")
    path = root / "edited.ckpt"
    ad.save_checkpoint({k: v for k, v in arrays.items() if k not in drop},
                       path, meta)
    only_qnct_errors(tr.model_from_checkpoint, path)


@FUZZ
@given(text=st.text(max_size=200))
def test_garbled_config_text_raises_only_config_errors(text):
    only_qnct_errors(cfgmod.parse_config, text)


@FUZZ
@given(data=st.data())
def test_flipped_config_file_raises_only_config_errors(data):
    text = cfgmod.format_config(cfgmod.default_config())
    chars = list(text)
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(chars) - 1),
                                         st.characters()),
                               min_size=1, max_size=4), label="flips")
    for pos, char in flips:
        chars[pos] = char
    only_qnct_errors(cfgmod.parse_config, "".join(chars))
