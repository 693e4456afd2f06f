"""File formats: TOMO1 arrays, CSV traces and curves.

TOMO1 layout (little endian): magic "TOMO", u8 version (1), u8 kind
(0 image, 1 sinogram), u16 reserved (0), u32 rows, u32 cols, then f32
row-major payload.
"""

from __future__ import annotations

import csv
import os
import struct

import numpy as np

from .errors import QnctError

KIND_IMAGE = 0
KIND_SINOGRAM = 1

_HEADER = struct.Struct("<4sBBHII")


def write_tomo(path, values: np.ndarray, kind: int):
    values = np.asarray(values)
    if values.ndim != 2:
        raise QnctError(f"TOMO1 stores 2-d arrays, got shape {values.shape}")
    if kind not in (KIND_IMAGE, KIND_SINOGRAM):
        raise QnctError(f"TOMO1 kind must be 0 or 1, got {kind}")
    rows, cols = values.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(b"TOMO", 1, kind, 0, rows, cols))
        fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def read_tomo(path):
    """Returns (values float32 array, kind)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise QnctError(f"{path}: truncated TOMO1 header")
        magic, version, kind, _reserved, rows, cols = _HEADER.unpack(head)
        if magic != b"TOMO":
            raise QnctError(f"{path}: bad magic {magic!r}")
        if version != 1:
            raise QnctError(f"{path}: unsupported TOMO version {version}")
        if kind not in (KIND_IMAGE, KIND_SINOGRAM):
            raise QnctError(f"{path}: unknown TOMO1 kind {kind}")
        stored = os.fstat(fh.fileno()).st_size - _HEADER.size
        if stored < rows * cols * 4:
            raise QnctError(f"{path}: truncated TOMO1 payload: header gives "
                            f"{rows}x{cols} values, file holds {stored} bytes")
        payload = fh.read(rows * cols * 4)
    values = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).copy()
    return values, kind


def write_csv(path, rows, columns):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in columns})


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
