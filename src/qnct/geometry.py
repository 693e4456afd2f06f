"""Scan geometry, matched projector pair, FBP, view subsampling, and noise.

The forward projector is ray-driven with Joseph-style bilinear sampling at a
fixed step of half a pixel. It is assembled once per (scan, image size) as a
sparse matrix A over the scan's own views (a sparse-view scan never builds
the full-view matrix), in place: view by view into CSR arrays that grow to
fit, with int32 indices unless the matrix needs int64, so the build peaks
near A's own size. A is cached with its transposed view Aᵀ, built once per
cache entry and sharing A's arrays; the adjoint applies that view, so the
pair is a matched transpose by construction. FBP uses the spatial-domain
ramp kernel realized over a zero-padded FFT (even kernel, hence a symmetric
filter matrix) and a pixel-driven backprojection B, cached the same way (Bᵀ
and its view B), so the whole FBP map dθ·B·ramp(cosw·y) is usable as a
differentiable linear op. ScanOperator bundles the four maps for one image
size on plain arrays.

The process keeps one scan's A and B, the most that a training step, an
unrolled inference, a gd/qn solve or a CLI command uses at once; a third
matrix evicts the least recently used, so training lets go of the
full-view A its data was synthesized with. Built matrices are also kept on
disk, in $QNCT_CACHE_DIR (else $XDG_CACHE_HOME/qnct, else ~/.cache/qnct),
under a key that hashes everything their bytes depend on, so an evicted
matrix, or a later process, loads A and B byte for byte instead of
building them again (22 ms for the desk 180-view fan A, 1.0 s for the
paper full-view A).

Units: image values are attenuation per mm times mm of path, i.e. line
integrals are in mm when the image holds unit density.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import re
import tempfile
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy
from scipy import sparse

from .errors import GeometryError, MemoryGuardError, NonFiniteError
from .init import substream

PARALLEL = "parallel"
FAN = "fan"


@dataclass(frozen=True)
class Geometry:
    """Scan description; defines the forward operator.

    angular_range is [start, end) in radians over the full view set; a
    limited-angle scan is just a narrower range. The scan keeps n_views of
    the n_views_full uniformly spaced views, those of uniform_views;
    None keeps them all.
    """

    beam: str = PARALLEL
    n_views_full: int = 180
    n_det: int = 96
    angular_range: tuple = (0.0, np.pi)
    det_spacing_mm: float = 2.0
    image_extent_mm: float = 128.0
    sad_mm: float | None = None
    add_mm: float | None = None
    n_views: int | None = None

    def __post_init__(self):
        if self.beam not in (PARALLEL, FAN):
            raise GeometryError(f"unknown beam type {self.beam!r}")
        if self.beam == FAN:
            if self.sad_mm is None or self.add_mm is None:
                raise GeometryError("fan beam requires sad_mm and add_mm")
        elif self.sad_mm is not None or self.add_mm is not None:
            raise GeometryError("sad_mm/add_mm are fan-beam fields")
        if self.n_views_full < 1 or self.n_det < 1:
            raise GeometryError("n_views_full and n_det must be positive")
        sizes = ("det_spacing_mm", "image_extent_mm")
        if self.beam == FAN:
            sizes += ("sad_mm", "add_mm")
        for name in sizes:
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise GeometryError(f"{name} must be finite and > 0, got {value}")
        start, end = self.angular_range
        if not (np.isfinite(start) and np.isfinite(end) and end > start):
            raise GeometryError(
                f"angular_range must be finite with end > start, got "
                f"({start}, {end})")
        n_v = self.n_views_full if self.n_views is None else self.n_views
        if n_v != int(n_v) or not 1 <= n_v <= self.n_views_full:
            raise GeometryError(
                f"cannot keep {n_v} of {self.n_views_full} views")
        # a plain int, so the repr (and the disk-cache key) is canonical
        object.__setattr__(self, "n_views", int(n_v))
        diagonal = self.image_extent_mm * np.sqrt(2.0)
        coverage = self.n_det * self.det_spacing_mm
        if self.beam == FAN:
            coverage *= self.sad_mm / (self.sad_mm + self.add_mm)
        if coverage < diagonal:
            warnings.warn(
                f"detector coverage {coverage:.1f} mm is below the image "
                f"diagonal {diagonal:.1f} mm; rays will truncate",
                stacklevel=3,  # past the generated __init__ to its caller
            )

    def view_angles(self) -> np.ndarray:
        start, end = self.angular_range
        step = (end - start) / self.n_views_full
        keep = uniform_views(self.n_views_full, self.n_views)
        return start + step * np.asarray(keep, dtype=np.float64)

    def full_circle(self) -> bool:
        start, end = self.angular_range
        return end - start >= 2.0 * np.pi - 1e-9

    def pixel_mm(self, w: int) -> float:
        return self.image_extent_mm / w


@dataclass
class Image:
    """Pixel grid of attenuation values, row-major, y axis pointing up."""

    values: np.ndarray
    pixel_mm: float

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise GeometryError(f"image must be 2-d, got shape {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise NonFiniteError("image contains non-finite values")

    @property
    def h(self) -> int:
        return self.values.shape[0]

    @property
    def w(self) -> int:
        return self.values.shape[1]


@dataclass
class Sinogram:
    """Line-integral grid, one row per kept view in angle order."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise GeometryError(
                f"sinogram must be 2-d, got shape {self.values.shape}"
            )
        if not np.isfinite(self.values).all():
            raise NonFiniteError("sinogram contains non-finite values")

    @property
    def n_v(self) -> int:
        return self.values.shape[0]

    @property
    def n_d(self) -> int:
        return self.values.shape[1]


def desk_geometry(beam: str = PARALLEL, n_views: int | None = None) -> Geometry:
    """Default desk-scale scan: 64x64 image, 96 detectors, n_views of 180
    full views (all by default)."""
    if beam == FAN:
        return Geometry(
            beam=FAN, n_views_full=180, n_det=96,
            angular_range=(0.0, 2.0 * np.pi), det_spacing_mm=3.0,
            image_extent_mm=128.0, sad_mm=300.0, add_mm=150.0,
            n_views=n_views,
        )
    return Geometry(n_views=n_views)


def paper_geometry(n_views: int | None = None) -> Geometry:
    """Full-scale scan: 256x256 image, 512 detectors, n_views of 512 fan
    views (all by default)."""
    return Geometry(
        beam=FAN, n_views_full=512, n_det=512,
        angular_range=(0.0, 2.0 * np.pi), det_spacing_mm=1.2,
        image_extent_mm=256.0, sad_mm=600.0, add_mm=290.0,
        n_views=n_views,
    )


# ---------------------------------------------------------------------------
# scan matrices
# ---------------------------------------------------------------------------

# bytes a scan matrix's arrays may grow to while it is assembled: above the
# paper-scale full-view A's projected 1.37 GB
SCAN_MATRIX_BYTE_LIMIT = 2**31

# one scan's A and FBP's B: no training step, unrolled inference, gd/qn
# solve or CLI command uses more at once, so synthesis's full-view A goes
# as soon as training resolves its sparse pair; one entry would swap A and
# B through the disk on every op
@functools.lru_cache(maxsize=2)
def _scan_matrix(tables, geometry: Geometry, h: int, w: int):
    """(M, M.T): the CSR matrix with one row per (view, detector) and one
    column per pixel, and its transposed CSC view.

    ``tables(geometry, h, w)`` yields, for each of the geometry's own views
    in order, (detector, pixel, weight) arrays; repeated (detector, pixel)
    pairs are summed and zero weights dropped. A view's rows depend only on
    its angle, so a sparse-view scan's matrix holds the full-view matrix's
    rows for its views bit for bit, and no full-view matrix is built for it.

    A matrix of one of the module's own builders (``_PERSISTED``) is also
    kept on disk: on a miss here it is loaded from the cache directory when
    a valid file is there, else built and written for the next process.
    Any other ``tables`` (a wrapper, or a function put in a builder's
    place) is built every time and never written.

    The transposed view shares the matrix's data, indices and indptr, so it
    costs no memory, and it lives and is evicted with the matrix in this one
    entry. The process keeps two entries, one scan's A and B; an evicted
    matrix that is asked for again is loaded from the disk cache (built
    again when it has none).
    """
    builder = _PERSISTED.get(tables)
    shape = (geometry.n_views * geometry.n_det, h * w)
    path = _cache_path(builder, geometry, h, w) if builder else None
    matrix = _load_matrix(path, shape) if path else None
    if matrix is None:
        matrix = _assemble(tables, geometry, h, w)
        if path:
            _keep_matrix(path, matrix)
    return matrix, matrix.T


def _assemble(tables, geometry: Geometry, h: int, w: int):
    """Build ``tables``' matrix in place.

    Each view's block is built alone (scipy sums its duplicates), copied
    into the matrix's arrays at the running offset, its row pointers
    shifted by that offset, and dropped. The arrays grow in place to the
    running mean's projection plus an eighth and are trimmed at the end, so
    the build peaks near the matrix's own size. Weights are float64;
    indices and indptr are int32 unless the entry or column count needs
    int64, scipy's rule for stacking CSR blocks. A projection whose weights
    and int32 indices pass SCAN_MATRIX_BYTE_LIMIT is refused before it is
    allocated.
    """
    n_det, n_views = geometry.n_det, geometry.n_views
    # int64 while filling: the offsets may pass int32 before the end
    indptr = np.zeros(n_views * n_det + 1, dtype=np.int64)
    data, indices = np.empty(0), np.empty(0, dtype=np.int32)
    end = 0
    for view, (det, pix, wts) in enumerate(tables(geometry, h, w)):
        keep = wts != 0.0
        coords = (det[keep].astype(np.int32, copy=False),
                  pix[keep].astype(np.int32, copy=False))
        block = sparse.csr_array((wts[keep], coords), shape=(n_det, h * w))
        start, end = end, end + block.nnz
        if end > data.size:
            room = end * n_views // (view + 1) * 9 // 8
            need = room * (data.itemsize + indices.itemsize)
            if need > SCAN_MATRIX_BYTE_LIMIT:
                raise MemoryGuardError(
                    f"the scan matrix of {n_views} views x {n_det} detectors "
                    f"on a {h}x{w} grid projects to {need} bytes, above "
                    f"the {SCAN_MATRIX_BYTE_LIMIT}-byte limit")
            for array in (data, indices):
                array.resize(room, refcheck=False)
        data[start:end] = block.data
        indices[start:end] = block.indices
        rows = indptr[view * n_det + 1:(view + 1) * n_det + 1]
        rows[:] = block.indptr[1:]
        rows += start
        del block  # before the next view's tables are made
    for array in (data, indices):
        array.resize(end, refcheck=False)
    index = _index_dtype(end, h * w)
    return sparse.csr_array(
        (data, indices.astype(index, copy=False),
         indptr.astype(index, copy=False)),
        shape=(n_views * n_det, h * w))


def _index_dtype(nnz: int, n_cols: int):
    """The index dtype of a built matrix, which a loaded one must have."""
    return sparse.get_index_dtype(maxval=max(nnz, n_cols))


# ---------------------------------------------------------------------------
# scan matrices on disk
# ---------------------------------------------------------------------------
#
# A built matrix is written to <cache dir>/<key>, one file per key, as three
# .npy records (indptr, indices, data), so any later process loads it
# instead of building it. The key hashes everything the bytes depend on, so
# a file is never served where a build would give other bytes. Every read
# or write error, and every file that fails validation, falls back to the
# build: the cache can make a run faster but never fail.

# bytes on disk, least recently used files evicted first: holds one
# paper-scale full-view A and B plus sparse-view scans
CACHE_BUDGET_BYTES = 4 << 30
_CSR_ARRAYS = ("indptr", "indices", "data")
_KEY_NAME = re.compile(r"[0-9a-f]{64}")
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _host_bits() -> str:
    """A digest of the bits this host computes, on a fixed probe, for the
    float calls the builders make: np.cos and np.sin on scalars and on an
    array, np.hypot and np.floor. Hosts that round differently (a cache
    directory shared over NFS, say) get different keys."""
    x = np.linspace(-9.0, 9.0, 1021)
    parts = (np.cos(x), np.sin(x), np.hypot(x, x[::-1]), np.floor(x * 2.7),
             np.array([(np.cos(v), np.sin(v)) for v in x[::16]]))
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


_SOURCE_SHA256 = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()
_HOST_BITS = _host_bits()


def _cache_dir() -> Path:
    """$QNCT_CACHE_DIR, else $XDG_CACHE_HOME/qnct, else ~/.cache/qnct."""
    if os.environ.get("QNCT_CACHE_DIR"):
        return Path(os.environ["QNCT_CACHE_DIR"])
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "qnct"


def _cache_key(builder: str, geometry: Geometry, h: int, w: int) -> str:
    """Hash of what the matrix's bytes depend on: the builder and its
    inputs, this file, the numpy and scipy versions (scipy's per-row sort
    fixes the order duplicates are summed in) and the host's float bits."""
    parts = (builder, repr(geometry), h, w, _SOURCE_SHA256, np.__version__,
             scipy.__version__, _HOST_BITS)
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _cache_path(builder: str, geometry: Geometry, h: int, w: int):
    """The matrix's file in the cache directory, or None if there is no
    cache directory (no home, say)."""
    try:
        return _cache_dir() / _cache_key(builder, geometry, h, w)
    except Exception:
        return None


def _read_npy(f, length: int, dtypes):
    """The next .npy record of f, if it is a 1-d array of ``length``
    entries of one of ``dtypes`` whose bytes are all in the file."""
    header = _NPY_HEADERS[np.lib.format.read_magic(f)]
    shape, _, dtype = header(f)
    left = os.fstat(f.fileno()).st_size - f.tell()
    if shape != (length,) or dtype not in dtypes \
            or length * dtype.itemsize > left:
        raise ValueError(f"record {shape} {dtype} is not ({length},) of "
                         f"{dtypes} within {left} bytes")
    return np.fromfile(f, dtype=dtype, count=length)


def _load_matrix(path: Path, shape: tuple):
    """The matrix kept at path, validated against shape and the build's
    dtypes, or None if it is missing, unreadable or invalid. A load
    refreshes the file's mtime, so eviction drops the least recently used."""
    try:
        with open(path, "rb") as f:
            indptr = _read_npy(f, shape[0] + 1, (np.int32, np.int64))
            nnz = int(indptr[-1])
            index = _index_dtype(nnz, shape[1])
            if indptr.dtype != index:
                raise ValueError(f"indptr is {indptr.dtype}, not {index}")
            indices = _read_npy(f, nnz, (index,))
            data = _read_npy(f, nnz, (np.float64,))
            if f.read(1):
                raise ValueError("bytes after the data")
        matrix = sparse.csr_array((data, indices, indptr), shape=shape)
        matrix.check_format(full_check=True)
    except Exception:
        return None
    with contextlib.suppress(OSError):
        os.utime(path)
    return matrix


def _keep_matrix(path: Path, matrix) -> None:
    """Write matrix to path for later processes, then evict down to the
    budget; a matrix above the budget is not written, and a write that
    fails leaves nothing behind."""
    nbytes = sum(getattr(matrix, name).nbytes for name in _CSR_ARRAYS)
    if nbytes > CACHE_BUDGET_BYTES:
        return
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        # np.save on a real file writes each array as it is, with no copy
        with os.fdopen(fd, "wb") as f:
            for name in _CSR_ARRAYS:
                np.save(f, getattr(matrix, name), allow_pickle=False)
        os.replace(tmp, path)
        tmp = None
        _evict(path.parent)
    except Exception:
        pass  # an unwritable cache only means no cache
    finally:
        if tmp:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _evict(directory: Path) -> None:
    """Delete the least recently used matrix files until the directory's
    matrix files fit CACHE_BUDGET_BYTES."""
    files = []
    for entry in os.scandir(directory):
        if _KEY_NAME.fullmatch(entry.name):
            stat = entry.stat()
            files.append((stat.st_mtime_ns, stat.st_size, entry.path))
    total = sum(size for _, size, _ in files)
    for _, size, name in sorted(files):
        if total <= CACHE_BUDGET_BYTES:
            break
        with contextlib.suppress(OSError):  # gone already
            os.unlink(name)
        total -= size


def _bilinear_table(fi, fj, h, w):
    """Corner indices (int32) and weights for bilinear sampling at the 1-d
    positions (fi, fj), zero outside.

    Both are stacked over the four corners: shape (4,) + fi.shape.
    """
    i0, j0 = np.floor(fi), np.floor(fj)
    di, dj = fi - i0, fj - j0
    corner = np.array([[0, 0, 1, 1], [0, 1, 0, 1]], dtype=np.int32)
    ii = i0.astype(np.int32) + corner[0][:, None]
    jj = j0.astype(np.int32) + corner[1][:, None]
    valid = (ii >= 0) & (ii < h) & (jj >= 0) & (jj < w)
    wts = np.stack([1.0 - di, 1.0 - di, di, di]) \
        * np.stack([1.0 - dj, dj, 1.0 - dj, dj])
    return np.where(valid, ii * w + jj, 0), np.where(valid, wts, 0.0)


def _ray_samples(geometry: Geometry, h: int, w: int):
    """Joseph sample positions, one view at a time: fractional (row,
    column) arrays (fi, fj) with one row per detector, sampled along each
    ray at a fixed step of half a pixel."""
    px = geometry.pixel_mm(w)
    step = px / 2.0
    half_diag = 0.5 * px * float(np.hypot(h, w))
    angles = geometry.view_angles()
    t_det = (np.arange(geometry.n_det) - (geometry.n_det - 1) / 2.0) \
        * geometry.det_spacing_mm

    def grid(pxs, pys):
        return (h - 1) / 2.0 - pys / px, pxs / px + (w - 1) / 2.0

    if geometry.beam == PARALLEL:
        n_s = int(np.ceil(2.0 * (half_diag + px) / step)) + 1
        s = -(half_diag + px) + step * np.arange(n_s)
        for theta in angles:
            tx, ty = np.cos(theta), np.sin(theta)
            dx, dy = -np.sin(theta), np.cos(theta)
            yield grid(t_det[:, None] * tx + s[None, :] * dx,
                       t_det[:, None] * ty + s[None, :] * dy)
    else:
        sad = geometry.sad_mm
        vspacing = geometry.det_spacing_mm * sad / (sad + geometry.add_mm)
        u_det = (np.arange(geometry.n_det) - (geometry.n_det - 1) / 2.0) * vspacing
        n_s = int(np.ceil(2.0 * (half_diag + 2 * px) / step)) + 1
        s = sad - (half_diag + 2 * px) + step * np.arange(n_s)
        for beta in angles:
            sx, sy = sad * np.cos(beta), sad * np.sin(beta)
            txv, tyv = -np.sin(beta), np.cos(beta)
            ex = u_det * txv - sx
            ey = u_det * tyv - sy
            norm = np.hypot(ex, ey)
            dx, dy = ex / norm, ey / norm
            yield grid(sx + dx[:, None] * s[None, :],
                       sy + dy[:, None] * s[None, :])


def _ray_tables(geometry: Geometry, h: int, w: int):
    """Joseph sampling tables, one view at a time: (detector, pixel, weight).

    Each sample of ``_ray_samples`` adds its four bilinear corners, weighted
    by the step, so a ray's line integral is the weighted sum of its
    entries. A sample whose four corners all fall outside the image adds
    nothing, so it is dropped before the expansion; the rest keep their
    order, and so the matrix keeps its bytes.
    """
    step = geometry.pixel_mm(w) / 2.0
    for fi, fj in _ray_samples(geometry, h, w):
        # floor(f) in [-1, n - 1]: at least one corner is on the grid
        inside = (fi >= -1.0) & (fi < h) & (fj >= -1.0) & (fj < w)
        det = np.nonzero(inside)[0].astype(np.int32)
        idx, wts = _bilinear_table(fi[inside], fj[inside], h, w)
        yield np.broadcast_to(det, idx.shape), idx, wts * step


def forward_project(image: Image, geometry: Geometry) -> Sinogram:
    """Discretized line integrals of the image along every geometry ray."""
    _check_image(image, geometry, "forward_project")
    A, _ = _scan_matrix(_ray_tables, geometry, image.h, image.w)
    rows = A @ image.values.reshape(-1).astype(np.float64, copy=False)
    return Sinogram(rows.reshape(geometry.n_views, geometry.n_det)
                    .astype(image.values.dtype, copy=False))


def back_project(sino: Sinogram, geometry: Geometry, h: int, w: int) -> Image:
    """Exact transpose of forward_project, onto an h x w image."""
    _check_sino(sino, geometry, "back_project")
    _, At = _scan_matrix(_ray_tables, geometry, h, w)
    acc = At @ sino.values.reshape(-1).astype(np.float64, copy=False)
    return Image(acc.reshape(h, w).astype(sino.values.dtype, copy=False),
                 geometry.pixel_mm(w))


# ---------------------------------------------------------------------------
# filtered backprojection
# ---------------------------------------------------------------------------

FILTER_RAM_LAK = "ram-lak"
FILTER_HANN = "hann"
FBP_FILTERS = (FILTER_RAM_LAK, FILTER_HANN)


@functools.lru_cache(maxsize=8)
def _ramp_response(n_d: int, spacing: float, window: str):
    """Frequency response of the band-limited ramp on a zero-padded grid."""
    length = 1
    while length < 2 * n_d:
        length *= 2
    kernel = np.zeros(length, dtype=np.float64)
    k = np.arange(length)
    dist = np.minimum(k, length - k)  # circular signed distance
    kernel[0] = 1.0 / (4.0 * spacing * spacing)
    odd = dist % 2 == 1
    kernel[odd] = -1.0 / (np.pi * np.pi * dist[odd] ** 2 * spacing * spacing)
    response = np.fft.rfft(kernel).real  # even kernel: real spectrum
    if window == FILTER_HANN:
        freq = np.arange(response.size) / length  # cycles per sample
        response *= 0.5 * (1.0 + np.cos(2.0 * np.pi * freq))
    elif window != FILTER_RAM_LAK:
        raise GeometryError(f"unknown fbp filter {window!r}")
    return response, length


def _filter_rows(rows: np.ndarray, spacing: float, window: str) -> np.ndarray:
    """Ramp-filter each row; symmetric as a matrix (even circular kernel)."""
    n_d = rows.shape[1]
    response, length = _ramp_response(n_d, float(spacing), window)
    spec = np.fft.rfft(rows.astype(np.float64, copy=False), n=length, axis=1)
    filtered = np.fft.irfft(spec * response, n=length, axis=1)[:, :n_d]
    return filtered * spacing


def _pixel_tables(geometry: Geometry, h: int, w: int):
    """Pixel-driven FBP interpolation, one view at a time, as the transposed
    backprojection: (detector, pixel, weight), each pixel reading linear
    interpolation between bins d0 and d0+1, times its distance weight."""
    px = geometry.pixel_mm(w)
    xs = (np.arange(w) - (w - 1) / 2.0) * px
    ys = ((h - 1) / 2.0 - np.arange(h)) * px
    X, Y = np.meshgrid(xs, ys)
    angles = geometry.view_angles()
    if geometry.beam == PARALLEL:
        for theta in angles:
            t = X * np.cos(theta) + Y * np.sin(theta)
            fd = t / geometry.det_spacing_mm + (geometry.n_det - 1) / 2.0
            yield _detector_interp(fd, geometry.n_det, 1.0)
    else:
        sad = geometry.sad_mm
        vspacing = geometry.det_spacing_mm * sad / (sad + geometry.add_mm)
        for beta in angles:
            dp = sad - (X * np.cos(beta) + Y * np.sin(beta))
            tau = -X * np.sin(beta) + Y * np.cos(beta)
            u = sad * tau / dp
            fd = u / vspacing + (geometry.n_det - 1) / 2.0
            weight = sad * sad / (dp * dp)
            yield _detector_interp(fd, geometry.n_det, weight)


# the builders whose matrices are kept on disk, resolved once: a function
# put in their place later is not one of them
_PERSISTED = {tables: tables.__name__
              for tables in (_ray_tables, _pixel_tables)}


def _detector_interp(fd, n_det, weight):
    d0 = np.floor(fd).astype(np.int32)
    frac = fd - d0
    # bins off the detector get zero weight, so the builder drops them
    wmask = ((d0 >= 0) & (d0 < n_det - 1)) * weight
    pix = np.arange(fd.size, dtype=np.int32).reshape(fd.shape)
    return (np.stack([d0, d0 + 1]), np.stack([pix, pix]),
            np.stack([(1.0 - frac) * wmask, frac * wmask]))


@functools.lru_cache(maxsize=16)
def _fbp_weights(geometry: Geometry):
    """Cosine pre-weights per detector (fan, read-only), detector spacing
    and the angular step weight."""
    start, end = geometry.angular_range
    dtheta = (end - start) / geometry.n_views
    if geometry.full_circle():
        dtheta *= 0.5  # every line is measured twice over a full turn
    if geometry.beam == FAN:
        sad = geometry.sad_mm
        spacing = geometry.det_spacing_mm * sad / (sad + geometry.add_mm)
        u = (np.arange(geometry.n_det) - (geometry.n_det - 1) / 2.0) * spacing
        cosw = sad / np.sqrt(sad * sad + u * u)
    else:
        spacing = geometry.det_spacing_mm
        cosw = np.ones(geometry.n_det)
    cosw.flags.writeable = False  # cached: shared by every caller
    return cosw, spacing, dtheta


def fbp(sino: Sinogram, geometry: Geometry, filter: str = FILTER_RAM_LAK, *,
        h: int, w: int) -> Image:
    """Filtered backprojection onto an h x w image; unbiased in magnitude
    for sparse-view scans."""
    _check_sino(sino, geometry, "fbp")
    if geometry.n_views < 2:
        raise GeometryError("fbp needs at least 2 views")
    cosw, spacing, dtheta = _fbp_weights(geometry)
    q = _filter_rows(sino.values.astype(np.float64, copy=False)
                     * cosw[None, :], spacing, filter)
    _, B = _scan_matrix(_pixel_tables, geometry, h, w)
    out = (B @ q.reshape(-1)) * dtheta
    return Image(out.reshape(h, w).astype(sino.values.dtype, copy=False),
                 geometry.pixel_mm(w))


def fbp_transpose(image: Image, geometry: Geometry,
                  filter: str = FILTER_RAM_LAK) -> Sinogram:
    """Exact transpose of fbp as a linear map (for autodiff backward)."""
    _check_image(image, geometry, "fbp_transpose")
    h, w = image.values.shape
    cosw, spacing, dtheta = _fbp_weights(geometry)
    Bt, _ = _scan_matrix(_pixel_tables, geometry, h, w)
    q = Bt @ (image.values.reshape(-1).astype(np.float64, copy=False) * dtheta)
    rows = _filter_rows(q.reshape(geometry.n_views, geometry.n_det),
                        spacing, filter)  # symmetric filter
    rows *= cosw[None, :]
    return Sinogram(rows.astype(image.values.dtype, copy=False))


# ---------------------------------------------------------------------------
# scan operator object
# ---------------------------------------------------------------------------

class ScanOperator:
    """The scan's linear maps for one (geometry, h, w) on plain arrays.

    forward/adjoint are A and Aᵀ; fbp/fbp_transpose are FBP and its exact
    transpose. Each method calls the module function of the same name, so
    validation and the cached matrices are shared with direct callers: A
    and Aᵀ (and FBP's backprojection) are one cached matrix and its
    transposed view, built once per cache entry, not per call. The process
    keeps the matrices of one scan, so an operator on another scan evicts
    them, and they are loaded back from the disk cache on their next use.
    Each method refuses an array that is not (h, w) or (n_views, n_det)
    before any matrix is built.
    """

    def __init__(self, geometry: Geometry, h: int, w: int,
                 filter: str = FILTER_RAM_LAK):
        self.geometry = geometry
        self.h, self.w = h, w
        self.filter = filter
        self.pixel_mm = geometry.pixel_mm(w)

    def _image(self, x: np.ndarray, op: str) -> Image:
        if np.shape(x) != (self.h, self.w):
            raise GeometryError(f"{op}: image {np.shape(x)} is not "
                                f"({self.h}, {self.w})")
        return Image(x, self.pixel_mm)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return forward_project(self._image(x, "forward"), self.geometry).values

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return back_project(Sinogram(y), self.geometry, self.h, self.w).values

    def fbp(self, y: np.ndarray) -> np.ndarray:
        return fbp(Sinogram(y), self.geometry, self.filter,
                   h=self.h, w=self.w).values

    def fbp_transpose(self, x: np.ndarray) -> np.ndarray:
        return fbp_transpose(self._image(x, "fbp_transpose"), self.geometry,
                             self.filter).values


# ---------------------------------------------------------------------------
# view subsampling and measurement noise
# ---------------------------------------------------------------------------

def uniform_views(n_full: int, n_v: int) -> tuple:
    """Indices of n_v uniformly spread views of n_full: round(i n_full / n_v),
    halves rounded up."""
    return tuple(int(np.floor(i * n_full / n_v + 0.5)) for i in range(n_v))


def subsample_views(sino: Sinogram, geometry: Geometry, n_v: int):
    """Keep the n_v views of uniform_views: the sinogram's rows and
    the scan of n_v views."""
    sub_geometry = replace(geometry, n_views=n_v)
    if geometry.n_views != geometry.n_views_full:
        raise GeometryError("subsample_views expects a full-view sinogram")
    _check_sino(sino, geometry, "subsample_views")
    keep = uniform_views(geometry.n_views_full, n_v)
    return Sinogram(sino.values[list(keep)].copy()), sub_geometry


# numpy's Generator.poisson refuses a rate above this
_POISSON_RATE_MAX = (np.iinfo(np.int64).max
                     - 10 * np.sqrt(np.iinfo(np.int64).max))


def simulate_measurement(sino: Sinogram, poisson_intensity: float,
                         gaussian_frac: float, seed: int,
                         attenuation_cap: float = 4.0) -> Sinogram:
    """Photon-count noise plus relative Gaussian noise, seeded.

    Line integrals are rescaled so their max is attenuation_cap, passed
    through counts ~ Poisson(N0 exp(-y)), floored at one photon, log
    converted back and unscaled; then zero-mean Gaussian noise with
    sigma = gaussian_frac * mean(|y|) is added.
    """
    for name, level in (("poisson_intensity", poisson_intensity),
                        ("gaussian_frac", gaussian_frac)):
        if not (np.isfinite(level) and level >= 0):
            raise GeometryError(f"{name} must be finite and >= 0, got {level}")
    if not (np.isfinite(attenuation_cap) and attenuation_cap > 0):
        raise GeometryError(
            f"attenuation_cap must be finite and > 0, got {attenuation_cap}")
    y = np.asarray(sino.values, dtype=np.float64)
    if np.any(y < 0):
        warnings.warn("negative line integrals clamped to zero before noise",
                      stacklevel=2)
        y = np.maximum(y, 0.0)
    rng = substream(seed, "noise")
    out = y.copy()
    ymax = float(y.max())
    if poisson_intensity > 0 and ymax > 0:
        scale = attenuation_cap / ymax
        rates = poisson_intensity * np.exp(-y * scale)
        if rates.max() > _POISSON_RATE_MAX:
            raise GeometryError(
                f"poisson_intensity {poisson_intensity:g} gives a photon rate "
                f"of {rates.max():.3g}, above the {_POISSON_RATE_MAX:.3g} the "
                "Poisson sampler draws from")
        counts = rng.poisson(rates)
        counts = np.maximum(counts, 1)
        out = -np.log(counts / poisson_intensity) / scale
    if gaussian_frac > 0:
        sigma = gaussian_frac * float(np.mean(np.abs(y)))
        out = out + rng.normal(0.0, sigma, size=y.shape)
    return Sinogram(out.astype(sino.values.dtype))


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------

def _check_image(image: Image, geometry: Geometry, op: str):
    if abs(image.pixel_mm * image.w - geometry.image_extent_mm) > 1e-6 * \
            geometry.image_extent_mm:
        raise GeometryError(
            f"{op}: image extent {image.pixel_mm * image.w:.3f} mm does not "
            f"match geometry extent {geometry.image_extent_mm:.3f} mm"
        )


def _check_sino(sino: Sinogram, geometry: Geometry, op: str):
    if sino.n_v != geometry.n_views or sino.n_d != geometry.n_det:
        raise GeometryError(
            f"{op}: sinogram {sino.values.shape} does not match geometry "
            f"({geometry.n_views} views, {geometry.n_det} detectors)"
        )
