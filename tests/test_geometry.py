import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse._base import _spbase

from qnct import geometry as geo
from qnct.errors import GeometryError, MemoryGuardError
from qnct.phantoms import disk, random_ellipses, shepp_logan


def psnr(a, b, rng=1.0):
    return 10.0 * np.log10(rng * rng / np.mean((a - b) ** 2))


def make_image(values, g):
    return geo.Image(values, g.pixel_mm(values.shape[1]))


def subset(n_full, n_v):
    return [int(np.floor(i * n_full / n_v + 0.5)) for i in range(n_v)]


def projector_pairs(g, n):
    """(A, Aᵀ) on arrays: the module functions, then ScanOperator."""
    op = geo.ScanOperator(g, n, n)
    return [(lambda x: geo.forward_project(make_image(x, g), g).values,
             lambda y: geo.back_project(geo.Sinogram(y), g, n, n).values),
            (op.forward, op.adjoint)]


def fbp_pairs(g, n):
    """(FBP, FBPᵀ) on arrays: the module functions, then ScanOperator."""
    op = geo.ScanOperator(g, n, n)
    return [(lambda y: geo.fbp(geo.Sinogram(y), g, h=n, w=n).values,
             lambda x: geo.fbp_transpose(make_image(x, g), g).values),
            (op.fbp, op.fbp_transpose)]


GEOMETRY_MATRIX = [
    geo.desk_geometry("parallel"),
    geo.desk_geometry("fan"),
    geo.desk_geometry("parallel", view_subset=subset(180, 32)),
    geo.desk_geometry("fan", view_subset=subset(180, 32)),
    geo.Geometry(angular_range=(0.0, np.pi / 2.0), n_views_full=45),
    geo.Geometry(
        beam="fan", angular_range=(0.0, np.pi / 2.0), n_views_full=45,
        det_spacing_mm=3.0, sad_mm=300.0, add_mm=150.0,
    ),
]


def test_zero_image_projects_to_zero():
    g = geo.desk_geometry()
    sino = geo.forward_project(make_image(np.zeros((64, 64), np.float32), g), g)
    assert np.all(sino.values == 0.0)


def test_disk_chord_length_all_views():
    # unit-density disk of 20 mm radius; detector bin 47 sits 1 mm off
    # center, so every view should read the 39.95 mm chord
    g = geo.desk_geometry()
    img = make_image(disk(64, 20.0 / 64.0), g)
    sino = geo.forward_project(img, g)
    expected = 2.0 * np.sqrt(20.0 ** 2 - 1.0 ** 2)
    np.testing.assert_allclose(sino.values[:, 47], expected, rtol=0.02)


def test_uniform_image_axis_aligned_ray():
    # view 90 of 180 over [0, pi) shoots rays along the x axis; a unit
    # image integrates to its physical width there
    g = geo.desk_geometry()
    img = make_image(np.ones((64, 64), dtype=np.float32), g)
    sino = geo.forward_project(img, g)
    width_mm = 64 * g.pixel_mm(64)
    assert abs(sino.values[90, 47] - width_mm) <= 0.02 * width_mm


def test_forward_projection_linearity():
    g = geo.desk_geometry(view_subset=subset(180, 16))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(64, 64)).astype(np.float32)
    z = rng.normal(size=(64, 64)).astype(np.float32)
    lhs = geo.forward_project(make_image(2.5 * x - 1.25 * z, g), g).values
    rhs = (2.5 * geo.forward_project(make_image(x, g), g).values
           - 1.25 * geo.forward_project(make_image(z, g), g).values)
    np.testing.assert_allclose(lhs, rhs, atol=1e-3)


@pytest.mark.parametrize("g", GEOMETRY_MATRIX)
def test_adjoint_dot_test_32bit(g):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(64, 64)).astype(np.float32)
    y = rng.normal(size=(g.n_views, g.n_det)).astype(np.float32)
    for fwd, adj in projector_pairs(g, 64):
        lhs = float(np.vdot(fwd(x).astype(np.float64), y))
        rhs = float(np.vdot(x, adj(y).astype(np.float64)))
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-5


def test_adjoint_dot_test_64bit():
    g = geo.desk_geometry(view_subset=subset(180, 32))
    rng = np.random.default_rng(11)
    x = rng.normal(size=(64, 64))
    y = rng.normal(size=(g.n_views, g.n_det))
    for fwd, adj in projector_pairs(g, 64):
        lhs = float(np.vdot(fwd(x), y))
        rhs = float(np.vdot(x, adj(y)))
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-10


def joseph_forward(x, g):
    """Per-view gather over the Joseph sampling tables: each ray sums
    weight * x[pixel] over its samples (the weights carry the step)."""
    flat = x.reshape(-1)
    return np.array([
        np.bincount(det.reshape(-1), weights=(wts * flat[pix]).reshape(-1),
                    minlength=g.n_det)
        for det, pix, wts in geo._ray_tables(g, *x.shape)
    ])


def joseph_back(y, g, h, w):
    """The same tables scattered: every sample spreads its ray's value."""
    acc = np.zeros(h * w)
    for row, (det, pix, wts) in zip(y, geo._ray_tables(g, h, w)):
        acc += np.bincount(pix.reshape(-1), weights=(wts * row[det]).reshape(-1),
                           minlength=h * w)
    return acc.reshape(h, w)


@pytest.mark.parametrize("beam", ["parallel", "fan"])
@pytest.mark.parametrize("n_v", [16, 180])
def test_projector_matches_joseph_reference(beam, n_v):
    g = geo.desk_geometry(beam, view_subset=subset(180, n_v))
    rng = np.random.default_rng(n_v)
    x = rng.normal(size=(64, 64))
    y = rng.normal(size=(g.n_views, g.n_det))
    ax = geo.forward_project(make_image(x, g), g).values
    ref = joseph_forward(x, g)
    assert np.abs(ax - ref).max() <= 1e-12 * np.abs(ref).max()
    aty = geo.back_project(geo.Sinogram(y), g, 64, 64).values
    ref = joseph_back(y, g, 64, 64)
    assert np.abs(aty - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("beam", ["parallel", "fan"])
def test_view_subset_is_row_slice_of_full_scan(beam):
    full = geo.desk_geometry(beam)
    sub = geo.desk_geometry(beam, view_subset=subset(180, 16))
    x = make_image(np.random.default_rng(5).normal(size=(64, 64)), full)
    whole = geo.forward_project(x, full).values
    part = geo.forward_project(x, sub).values
    np.testing.assert_array_equal(part, whole[list(sub.view_subset)])


def counting(tables, yielded):
    """``tables`` with each view it yields appended to ``yielded``; a fresh
    function, so ``_scan_matrix`` builds anew for it."""
    def wrapped(geometry, h, w):
        for view in tables(geometry, h, w):
            yielded.append(view)
            yield view
    return wrapped


@pytest.mark.parametrize("beam", ["parallel", "fan"])
def test_view_subset_builds_only_its_own_views(beam):
    g = geo.desk_geometry(beam, view_subset=subset(180, 16))
    for tables in (geo._ray_tables, geo._pixel_tables):
        yielded = []
        geo._scan_matrix(counting(tables, yielded), g, 64, 64)
        assert len(yielded) == 16


def assert_same_csr(got, want):
    """Equal shape, and indptr, indices and data equal in value and dtype."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("views", [subset(180, 16), subset(180, 32),
                                   (0, 3, 7, 50, 51, 179)])
@pytest.mark.parametrize("beam", ["parallel", "fan"])
def test_view_subset_matrix_is_full_matrix_rows(beam, views):
    full = geo.desk_geometry(beam)
    sub = geo.desk_geometry(beam, view_subset=views)
    rows = (np.asarray(views)[:, None] * full.n_det
            + np.arange(full.n_det)).reshape(-1)
    for tables in (geo._ray_tables, geo._pixel_tables):
        assert_same_csr(geo._scan_matrix(tables, sub, 64, 64)[0],
                        geo._scan_matrix(tables, full, 64, 64)[0][rows])


def vstack_scan_matrix(tables, geometry, h, w):
    """The earlier assembly of ``_scan_matrix``: one CSR block per view,
    all kept, then copied by ``sparse.vstack``. The reference that the
    in-place assembly must match byte for byte."""
    blocks = []
    for det, pix, wts in tables(geometry, h, w):
        keep = wts != 0.0
        coords = (det[keep].astype(np.int32), pix[keep].astype(np.int32))
        blocks.append(sparse.csr_array((wts[keep], coords),
                                       shape=(geometry.n_det, h * w)))
    return sparse.vstack(blocks, format="csr")


def fresh(tables, empty=()):
    """``tables`` as a new function, so ``_scan_matrix`` builds anew for
    it, with every weight zero (no kept entry) in the views at the
    positions in ``empty``."""
    def wrapped(geometry, h, w):
        for k, (det, pix, wts) in enumerate(tables(geometry, h, w)):
            yield det, pix, np.zeros_like(wts) if k in empty else wts
    return wrapped


@pytest.mark.parametrize("views", [None, subset(180, 16), subset(180, 32),
                                   (0, 3, 7, 50, 51, 179)])
@pytest.mark.parametrize("beam", ["parallel", "fan"])
def test_scan_matrix_equals_the_vstack_assembly(beam, views):
    g = geo.desk_geometry(beam, view_subset=views)
    for tables in (geo._ray_tables, geo._pixel_tables):
        assert_same_csr(geo._scan_matrix(tables, g, 64, 64)[0],
                        vstack_scan_matrix(tables, g, 64, 64))


def unculled_ray_tables(geometry, h, w):
    """``_ray_tables`` without its culling: all four corners of every
    sample, those off the grid with zero weight."""
    step = geometry.pixel_mm(w) / 2.0
    for fi, fj in geo._ray_samples(geometry, h, w):
        idx, wts = geo._bilinear_table(fi.reshape(-1), fj.reshape(-1), h, w)
        det = np.repeat(np.arange(geometry.n_det, dtype=np.int32),
                        fi.shape[1])
        yield np.broadcast_to(det, idx.shape), idx, wts * step


@pytest.mark.parametrize("views", [None, subset(180, 16),
                                   (0, 3, 7, 50, 51, 179)])
@pytest.mark.parametrize("beam", ["parallel", "fan"])
def test_culling_samples_off_the_image_keeps_the_matrix_bytes(beam, views):
    g = geo.desk_geometry(beam, view_subset=views)
    assert_same_csr(geo._scan_matrix(geo._ray_tables, g, 64, 64)[0],
                    vstack_scan_matrix(unculled_ray_tables, g, 64, 64))
    # the samples past the image are gone from the tables
    first = geo.desk_geometry(beam, view_subset=[0])
    _, pix, _ = next(geo._ray_tables(first, 64, 64))
    _, all_pix, _ = next(unculled_ray_tables(first, 64, 64))
    assert pix.size < 0.7 * all_pix.size


@pytest.mark.parametrize("empty", [(0, 7, 15), tuple(range(16))])
def test_views_without_entries_leave_empty_rows(empty):
    g = geo.desk_geometry("fan", view_subset=subset(180, 16))
    for tables in (geo._ray_tables, geo._pixel_tables):
        got = geo._scan_matrix(fresh(tables, empty), g, 64, 64)[0]
        assert_same_csr(got, vstack_scan_matrix(fresh(tables, empty),
                                                g, 64, 64))
        per_row = np.diff(got.indptr).reshape(g.n_views, g.n_det)
        kept = [k for k in range(g.n_views) if k not in empty]
        assert not per_row[list(empty)].any()
        assert (per_row[kept].sum(axis=1) > 0).all()
        # the other views keep their rows of the real matrix
        rows = (np.asarray(kept, dtype=int)[:, None] * g.n_det
                + np.arange(g.n_det)).reshape(-1)
        assert_same_csr(got[rows],
                        geo._scan_matrix(tables, g, 64, 64)[0][rows])


@pytest.mark.parametrize("tables", [geo._ray_tables, geo._pixel_tables])
@pytest.mark.parametrize("beam", ["parallel", "fan"])
def test_full_view_build_peaks_near_the_matrix_size(beam, tables):
    # the vstack assembly peaked at 2.02–2.08 times the matrix
    g = geo.desk_geometry(beam)
    tracemalloc.start()
    try:
        matrix, _ = geo._scan_matrix(fresh(tables), g, 64, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    assert matrix.nnz > 1_000_000
    assert peak <= 1.6 * nbytes


@pytest.mark.parametrize("beam", ["parallel", "fan"])
def test_subset_build_peaks_near_its_sampling_tables(beam):
    # a 16-view A peaks at one view's sampling tables, not at the matrix:
    # 4.27 (parallel) and 3.98 (fan) times the matrix with int64 indices
    g = geo.desk_geometry(beam, view_subset=subset(180, 16))
    tracemalloc.start()
    try:
        matrix, _ = geo._scan_matrix(fresh(geo._ray_tables), g, 64, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    assert peak <= 3.8 * nbytes


@pytest.mark.parametrize("tables", [geo._ray_tables, geo._pixel_tables],
                         ids=["A", "B"])
def test_a_scan_matrix_past_the_byte_limit_is_refused(monkeypatch, tables):
    # the arrays' projected growth (a float64 weight and an int32 index per
    # entry) is checked before each resize: half the 16² matrix's bytes
    # refuse the build, twice them let it through
    g = geo.desk_geometry(view_subset=subset(180, 8))
    matrix, _ = geo._scan_matrix(fresh(tables), g, 16, 16)
    nbytes = matrix.nnz * (8 + 4)
    monkeypatch.setattr(geo, "SCAN_MATRIX_BYTE_LIMIT", nbytes // 2)
    with pytest.raises(MemoryGuardError,
                       match="8 views x 96 detectors on a 16x16 grid"):
        geo._scan_matrix(fresh(tables), g, 16, 16)
    monkeypatch.setattr(geo, "SCAN_MATRIX_BYTE_LIMIT", 2 * nbytes)
    assert geo._scan_matrix(fresh(tables), g, 16, 16)[0].nnz == matrix.nnz


def test_zero_sinogram_backprojects_to_zero():
    g = geo.desk_geometry()
    img = geo.back_project(geo.Sinogram(np.zeros((180, 96), dtype=np.float32)),
                           g, 64, 64)
    assert np.all(img.values == 0.0)


def test_single_bin_backprojection_support():
    # energize one detector bin of the vertical-ray view; the image support
    # must hug that ray's line within the interpolation footprint
    g = geo.desk_geometry()
    y = np.zeros((180, 96), dtype=np.float32)
    det = 30
    y[0, det] = 1.0
    img = geo.back_project(geo.Sinogram(y), g, 64, 64)
    px = g.pixel_mm(64)
    t_det = (det - 95 / 2.0) * g.det_spacing_mm
    xs = (np.arange(64) - 63 / 2.0) * px
    ys = (63 / 2.0 - np.arange(64)) * px
    X, Y = np.meshgrid(xs, ys)
    dist = np.abs(X * np.cos(0.0) + Y * np.sin(0.0) - t_det)
    assert np.all(img.values[dist > 2.0 * px] == 0.0)
    assert img.values[dist <= 2.0 * px].sum() > 0.0


def test_fbp_quality_and_view_monotonicity():
    g = geo.desk_geometry()
    ph = shepp_logan(64)
    full = geo.forward_project(make_image(ph, g), g)
    scores = []
    for n_v in (16, 32, 64, 180):
        sub, gs = geo.subsample_views(full, g, n_v)
        rec = geo.fbp(sub, gs, h=64, w=64)
        scores.append(psnr(rec.values, ph))
    assert scores == sorted(scores)
    assert scores[-1] >= 25.0
    assert scores[0] < scores[-1]


def test_fbp_fan_quality():
    g = geo.desk_geometry("fan")
    ph = shepp_logan(64)
    full = geo.forward_project(make_image(ph, g), g)
    rec = geo.fbp(full, g, h=64, w=64)
    assert psnr(rec.values, ph) >= 24.0
    # magnitude unbiased within a few percent
    assert abs(rec.values.mean() / ph.mean() - 1.0) < 0.05


def test_fbp_zero_and_few_views():
    g = geo.desk_geometry()
    rec = geo.fbp(geo.Sinogram(np.zeros((180, 96), dtype=np.float32)), g,
                  h=64, w=64)
    assert np.all(rec.values == 0.0)
    g1 = geo.desk_geometry(view_subset=[0])
    with pytest.raises(GeometryError, match="2 views"):
        geo.fbp(geo.Sinogram(np.zeros((1, 96), dtype=np.float32)), g1,
                h=64, w=64)


def test_fbp_transpose_is_exact_adjoint():
    for beam in ("parallel", "fan"):
        g = geo.desk_geometry(beam, view_subset=subset(180, 16))
        rng = np.random.default_rng(3)
        x = rng.normal(size=(64, 64))
        y = rng.normal(size=(16, 96))
        for fbp, fbp_t in fbp_pairs(g, 64):
            lhs = float(np.vdot(fbp(y), x))
            rhs = float(np.vdot(y, fbp_t(x)))
            assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-10


@pytest.mark.parametrize("beam", ["parallel", "fan"])
def test_scan_operator_is_the_module_functions(beam):
    g = geo.desk_geometry(beam, view_subset=subset(180, 16))
    rng = np.random.default_rng(4)
    x = rng.normal(size=(64, 64)).astype(np.float32)
    y = rng.normal(size=(g.n_views, g.n_det)).astype(np.float32)
    op = geo.ScanOperator(g, 64, 64, geo.FILTER_HANN)
    img, sino = make_image(x, g), geo.Sinogram(y)
    pairs = [
        (op.forward(x), geo.forward_project(img, g).values),
        (op.adjoint(y), geo.back_project(sino, g, 64, 64).values),
        (op.fbp(y), geo.fbp(sino, g, geo.FILTER_HANN, h=64, w=64).values),
        (op.fbp_transpose(x),
         geo.fbp_transpose(img, g, geo.FILTER_HANN).values),
    ]
    for got, want in pairs:
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("method,shape", [
    ("forward", (32, 64)), ("forward", (64, 64, 1)),
    ("fbp_transpose", (32, 64)), ("adjoint", (16, 96)), ("fbp", (180, 95)),
])
def test_scan_operator_refuses_other_shapes(method, shape):
    # a (32, 64) image has the geometry's extent at 64 columns, so the
    # module functions would project it with a 32×64 matrix
    op = geo.ScanOperator(geo.desk_geometry(), 64, 64)
    misses = geo._scan_matrix.cache_info().misses
    with pytest.raises(GeometryError):
        getattr(op, method)(np.zeros(shape, dtype=np.float32))
    assert geo._scan_matrix.cache_info().misses == misses


@pytest.mark.parametrize("view_subset", [None, subset(180, 16)])
def test_scan_matrix_view_shares_the_matrix(view_subset):
    g = geo.desk_geometry("fan", view_subset=view_subset)
    for tables in (geo._ray_tables, geo._pixel_tables):
        matrix, view = geo._scan_matrix(tables, g, 64, 64)
        assert view.shape == matrix.shape[::-1]
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(view, name),
                                    getattr(matrix, name))
    cosw, _, _ = geo._fbp_weights(g)
    assert not cosw.flags.writeable
    assert geo._fbp_weights(g)[0] is cosw


@pytest.mark.parametrize("beam", ["parallel", "fan"])
def test_repeated_adjoint_and_fbp_build_no_sparse_object(beam, monkeypatch):
    g = geo.desk_geometry(beam, view_subset=subset(180, 16))
    sino = geo.Sinogram(np.ones((g.n_views, g.n_det), dtype=np.float32))
    geo.back_project(sino, g, 64, 64)
    geo.fbp(sino, g, h=64, w=64)
    built = []
    init = _spbase.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_spbase, "__init__", counted)
    misses = geo._scan_matrix.cache_info().misses
    geo.back_project(sino, g, 64, 64)
    geo.fbp(sino, g, h=64, w=64)
    assert built == []
    assert geo._scan_matrix.cache_info().misses == misses


class TestSubsampleViews:
    def test_identity(self):
        g = geo.desk_geometry()
        y = geo.Sinogram(np.arange(180 * 96, dtype=np.float32).reshape(180, 96))
        sub, gs = geo.subsample_views(y, g, 180)
        assert gs.view_subset == tuple(range(180))
        np.testing.assert_array_equal(sub.values, y.values)

    def test_512_to_32(self):
        g = geo.Geometry(n_views_full=512, n_det=8, det_spacing_mm=32.0)
        y = geo.Sinogram(np.zeros((512, 8), dtype=np.float32))
        _, gs = geo.subsample_views(y, g, 32)
        assert gs.view_subset == tuple(range(0, 512, 16))

    def test_512_to_128_stride_4(self):
        g = geo.Geometry(n_views_full=512, n_det=8, det_spacing_mm=32.0)
        y = geo.Sinogram(np.zeros((512, 8), dtype=np.float32))
        sub, gs = geo.subsample_views(y, g, 128)
        assert sub.n_v == 128
        assert gs.view_subset == tuple(range(0, 512, 4))

    def test_rule_matches_the_reference(self):
        for n_full, n_v in ((180, 16), (180, 32), (512, 23), (7, 7), (90, 1)):
            assert geo.uniform_view_subset(n_full, n_v) == \
                tuple(subset(n_full, n_v))

    def test_bounds(self):
        g = geo.desk_geometry()
        y = geo.Sinogram(np.zeros((180, 96), dtype=np.float32))
        with pytest.raises(GeometryError):
            geo.subsample_views(y, g, 0)
        with pytest.raises(GeometryError):
            geo.subsample_views(y, g, 181)


class TestSimulateMeasurement:
    def make(self):
        g = geo.desk_geometry()
        ph = shepp_logan(64)
        return geo.forward_project(make_image(ph, g), g)

    def test_noiseless_is_identity(self):
        y = self.make()
        out = geo.simulate_measurement(y, 0.0, 0.0, seed=5)
        np.testing.assert_array_equal(out.values, y.values)

    def test_seed_reproducible(self):
        y = self.make()
        a = geo.simulate_measurement(y, 1e6, 0.05, seed=9)
        b = geo.simulate_measurement(y, 1e6, 0.05, seed=9)
        assert np.array_equal(a.values, b.values)
        c = geo.simulate_measurement(y, 1e6, 0.05, seed=10)
        assert not np.array_equal(a.values, c.values)

    def test_noise_levels_scale(self):
        y = self.make()
        low = geo.simulate_measurement(y, 1e6, 0.0, seed=2)
        high = geo.simulate_measurement(y, 5e5, 0.0, seed=2)
        err_low = np.mean((low.values - y.values) ** 2)
        err_high = np.mean((high.values - y.values) ** 2)
        assert 0.0 < err_low < err_high

    @pytest.mark.parametrize("levels,name", [
        ((np.nan, 0.0, 4.0), "poisson_intensity"),
        ((-1.0, 0.0, 4.0), "poisson_intensity"),
        ((0.0, np.nan, 4.0), "gaussian_frac"),
        ((0.0, -1.0, 4.0), "gaussian_frac"),
        ((1e6, 0.0, np.nan), "attenuation_cap"),
        ((1e6, 0.0, np.inf), "attenuation_cap"),
        ((0.0, 0.0, 0.0), "attenuation_cap"),
    ])
    def test_bad_noise_levels_are_refused(self, levels, name):
        poisson, gauss, cap = levels
        with pytest.raises(GeometryError, match=name):
            geo.simulate_measurement(self.make(), poisson, gauss, seed=0,
                                     attenuation_cap=cap)

    def test_photon_rate_above_the_poisson_limit_is_refused(self):
        # one ray crosses nothing: its rate is the full photon count
        y = geo.Sinogram(np.array([[0.0, 2.0, 4.0]], dtype=np.float32))
        for count in (1e19, 1e20, 1e300):
            with pytest.raises(GeometryError, match="poisson_intensity"):
                geo.simulate_measurement(y, count, 0.05, seed=0)
        geo.simulate_measurement(y, 9e18, 0.05, seed=0)
        # the limit is on the rate: a count whose every ray is attenuated
        # below it still draws
        y = geo.Sinogram(np.array([[4.0, 4.0]], dtype=np.float32))
        out = geo.simulate_measurement(y, 1e20, 0.0, seed=0)
        assert np.all(np.isfinite(out.values))

    def test_negative_values_clamped_with_warning(self):
        y = geo.Sinogram(np.array([[-1.0, 2.0]], dtype=np.float32))
        with pytest.warns(UserWarning, match="clamped"):
            out = geo.simulate_measurement(y, 0.0, 0.0, seed=0)
        np.testing.assert_array_equal(out.values, [[0.0, 2.0]])


class TestGeometryValidation:
    def test_fan_requires_distances(self):
        with pytest.raises(GeometryError, match="fan"):
            geo.Geometry(beam="fan")

    def test_parallel_rejects_fan_fields(self):
        with pytest.raises(GeometryError):
            geo.Geometry(beam="parallel", sad_mm=100.0)

    def test_view_subset_must_increase(self):
        with pytest.raises(GeometryError):
            geo.Geometry(view_subset=(3, 2))
        with pytest.raises(GeometryError):
            geo.Geometry(view_subset=(0, 200))

    @pytest.mark.parametrize("fields,name", [
        ({"det_spacing_mm": np.nan}, "det_spacing_mm"),
        ({"det_spacing_mm": -2.0}, "det_spacing_mm"),
        ({"image_extent_mm": np.nan}, "image_extent_mm"),
        ({"image_extent_mm": 0.0}, "image_extent_mm"),
        ({"image_extent_mm": np.inf}, "image_extent_mm"),
        ({"beam": "fan", "sad_mm": 0.0, "add_mm": 100.0}, "sad_mm"),
        ({"beam": "fan", "sad_mm": 500.0, "add_mm": np.nan}, "add_mm"),
        ({"angular_range": (0.0, np.nan)}, "angular_range"),
        ({"angular_range": (-np.inf, 0.0)}, "angular_range"),
        ({"angular_range": (1.0, 1.0)}, "angular_range"),
        ({"angular_range": (np.pi, 0.0)}, "angular_range"),
    ])
    def test_sizes_and_angular_range_must_be_finite_and_positive(
            self, fields, name):
        with pytest.raises(GeometryError, match=name):
            geo.Geometry(**fields)

    def test_coverage_warning(self):
        with pytest.warns(UserWarning, match="coverage") as record:
            geo.Geometry(n_det=16, det_spacing_mm=2.0)
        # it names the line that built the geometry, not the generated
        # __init__ ("<string>")
        assert [w.filename for w in record] == [__file__]

    def test_non_finite_rejected(self):
        with pytest.raises(GeometryError, match="finite"):
            geo.Image(np.array([[np.nan, 0.0]]), 1.0)
        with pytest.raises(GeometryError, match="finite"):
            geo.Sinogram(np.array([[np.inf, 0.0]]))

    def test_shape_mismatch_errors(self):
        g = geo.desk_geometry()
        with pytest.raises(GeometryError, match="does not match"):
            geo.forward_project(geo.Image(np.zeros((64, 64)), 1.0), g)
        with pytest.raises(GeometryError, match="does not match"):
            geo.back_project(geo.Sinogram(np.zeros((10, 96))), g, 64, 64)


class TestPhantoms:
    def test_shepp_logan_range_and_mean(self):
        ph = shepp_logan(64)
        assert ph.min() >= 0.0 and ph.max() <= 1.0
        assert 0.08 < ph.mean() < 0.2

    def test_random_ellipses_deterministic(self):
        a = random_ellipses(64, np.random.default_rng(4))
        b = random_ellipses(64, np.random.default_rng(4))
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0
