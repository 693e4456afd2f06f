"""File formats: TOMO1 arrays, PGM images, CSV traces and curves.

TOMO1 layout (little endian): magic "TOMO", u8 version (1), u8 kind
(0 image, 1 sinogram), u16 reserved (0), u32 rows, u32 cols, then f32
row-major payload. PGM export is max-normalized to the chosen bit depth.
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


def write_pgm(path, values: np.ndarray, bits: int = 16):
    """Max-normalized binary PGM, 8 or 16 bit."""
    if bits not in (8, 16):
        raise QnctError("PGM export supports 8 or 16 bits")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise QnctError(f"PGM stores 2-d arrays, got shape {values.shape}")
    maxval = (1 << bits) - 1
    top = values.max()
    scaled = np.zeros_like(values) if top <= 0 else values / top * maxval
    scaled = np.clip(np.round(scaled), 0, maxval)
    data = scaled.astype(">u2" if bits == 16 else "u1")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{values.shape[1]} {values.shape[0]}\n{maxval}\n"
                 .encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Binary PGM to float32 in [0, 1] (divided by the stored maxval)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"P5"):
        raise QnctError(f"{path}: only binary (P5) PGM is supported")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if not blob[start:pos].isdigit():
            raise QnctError(f"{path}: malformed PGM header")
        fields.append(int(blob[start:pos]))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if not 0 < maxval < 65536:
        raise QnctError(f"{path}: PGM maxval {maxval} outside 1..65535")
    dtype = ">u2" if maxval > 255 else "u1"
    count = width * height
    if len(blob) - pos < count * np.dtype(dtype).itemsize:
        raise QnctError(f"{path}: truncated PGM payload")
    data = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
    return (data.reshape(height, width).astype(np.float32) / maxval)


def write_csv(path, rows, columns):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in columns})


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
