"""The scan matrices' caches. On disk: a loaded matrix equals the built one
byte for byte, a bad file is rebuilt and replaced, only the module's own
builders are kept, the key moves with every input of the bytes, and the
directory stays within its budget. In process: one scan's A and B stay,
so no op reloads a matrix and synthesis's full-view A is let go."""

import gc
import hashlib
import os
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from qnct import geometry as geo
from qnct import mixer as mx
from qnct import solvers
from qnct import train as tr
from qnct import unroll as ur
from qnct.cli import main
from qnct.init import substream
from qnct.phantoms import random_ellipses
from test_geometry import assert_same_csr, fresh, view_counts

SRC = Path(__file__).resolve().parent.parent / "src"
N = 12


def tiny(beam=geo.PARALLEL, views=None) -> geo.Geometry:
    if beam == geo.FAN:
        return geo.Geometry(beam=geo.FAN, n_views_full=8, n_det=24,
                            angular_range=(0.0, 2.0 * np.pi),
                            det_spacing_mm=3.0, image_extent_mm=24.0,
                            sad_mm=60.0, add_mm=30.0, n_views=views)
    return geo.Geometry(n_views_full=8, n_det=24, det_spacing_mm=2.0,
                        image_extent_mm=24.0, n_views=views)


def matrix(tables, g, n=N):
    """tables' matrix of scan g at n², through the disk cache but past the
    in-process one."""
    return geo._scan_matrix.__wrapped__(tables, g, n, n)[0]


def path_of(tables, g, n=N) -> Path:
    return geo._cache_dir() / geo._cache_key(tables.__name__, g, n, n)


@pytest.fixture
def builds(monkeypatch):
    """The tables of every matrix assembled from here on."""
    built = []
    assemble = geo._assemble

    def counted(tables, geometry, h, w):
        built.append(tables)
        return assemble(tables, geometry, h, w)

    monkeypatch.setattr(geo, "_assemble", counted)
    return built


@pytest.mark.parametrize("views", view_counts(None, 16, 32, 7, 23))
@pytest.mark.parametrize("beam", ["parallel", "fan"])
def test_loaded_matrix_equals_the_built_one(beam, views, builds,
                                            scan_cache_dir):
    g = geo.desk_geometry(beam, views)
    for tables in (geo._ray_tables, geo._pixel_tables):
        built = matrix(tables, g, 64)
        assert_same_csr(matrix(tables, g, 64), built)
        assert_same_csr(built, geo._scan_matrix(tables, g, 64, 64)[0])
    assert builds == [geo._ray_tables, geo._pixel_tables]
    assert len(list(scan_cache_dir.iterdir())) == 2


def test_after_cache_clear_the_matrices_are_loaded(builds):
    g = tiny(geo.FAN)
    image = geo.Image(np.random.default_rng(0).normal(size=(N, N)),
                      g.pixel_mm(N))
    sino = geo.forward_project(image, g)
    fbp = geo.fbp(sino, g, h=N, w=N)
    assert builds == [geo._ray_tables, geo._pixel_tables]
    geo._scan_matrix.cache_clear()
    assert geo.forward_project(image, g).values.tobytes() \
        == sino.values.tobytes()
    assert geo.fbp(sino, g, h=N, w=N).values.tobytes() == fbp.values.tobytes()
    assert len(builds) == 2  # no build after the clear


def test_a_second_process_loads_the_matrices(builds, scan_cache_dir):
    g = tiny(geo.FAN)
    A = matrix(geo._ray_tables, g)
    B = matrix(geo._pixel_tables, g)
    code = f"""
import hashlib
import numpy as np
from qnct import geometry as geo
built = []
assemble = geo._assemble
geo._assemble = lambda *args: built.append(1) or assemble(*args)
g = geo.{g!r}
digest = hashlib.sha256()
for tables in (geo._ray_tables, geo._pixel_tables):
    m = geo._scan_matrix(tables, g, {N}, {N})[0]
    for name in ("data", "indices", "indptr"):
        array = getattr(m, name)
        digest.update(array.dtype.str.encode() + array.tobytes())
print(len(built), digest.hexdigest())
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    want = hashlib.sha256()
    for m in (A, B):
        for name in ("data", "indices", "indptr"):
            array = getattr(m, name)
            want.update(array.dtype.str.encode() + array.tobytes())
    assert proc.stdout.split() == ["0", want.hexdigest()]
    assert len(builds) == 2  # this process's two builds only


def write_records(path, *arrays):
    with open(path, "wb") as f:
        for array in arrays:
            np.save(f, array)


def records(path):
    with open(path, "rb") as f:
        return [np.load(f) for _ in range(3)]


def truncated(path):
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])


def trailing_byte(path):
    path.write_bytes(path.read_bytes() + b"\0")


def float32_data(path):
    indptr, indices, data = records(path)
    write_records(path, indptr, indices, data.astype(np.float32))


def int64_indices(path):
    indptr, indices, data = records(path)
    write_records(path, indptr.astype(np.int64), indices.astype(np.int64),
                  data)


def index_out_of_range(path):
    indptr, indices, data = records(path)
    indices[len(indices) // 2] = N * N
    write_records(path, indptr, indices, data)


def negative_index(path):
    indptr, indices, data = records(path)
    indices[0] = -1
    write_records(path, indptr, indices, data)


def short_indptr_end(path):
    indptr, indices, data = records(path)
    indptr[-1] -= 1
    write_records(path, indptr, indices, data)


def decreasing_indptr(path):
    indptr, indices, data = records(path)
    indptr[1:-1] = indptr[1:-1][::-1]
    write_records(path, indptr, indices, data)


def other_scan(path):
    """A valid file of another scan (fewer views), so the wrong shape."""
    other = tiny(views=3)
    indptr, indices, data = (getattr(matrix(fresh(geo._ray_tables), other),
                                     name) for name in geo._CSR_ARRAYS)
    write_records(path, indptr, indices, data)


def not_npy(path):
    path.write_bytes(b"not a matrix")


@pytest.mark.parametrize("corrupt", [
    truncated, trailing_byte, float32_data, int64_indices,
    index_out_of_range, negative_index, short_indptr_end, decreasing_indptr,
    other_scan, not_npy])
def test_bad_file_is_rebuilt_and_replaced(corrupt, builds,
                                           scan_cache_dir):
    g = tiny()
    want = matrix(geo._ray_tables, g)
    path = path_of(geo._ray_tables, g)
    corrupt(path)
    builds.clear()
    assert_same_csr(matrix(geo._ray_tables, g), want)
    assert builds == [geo._ray_tables]
    assert_same_csr(matrix(geo._ray_tables, g), want)  # the new file
    assert builds == [geo._ray_tables]
    assert [p.name for p in path.parent.iterdir()] == [path.name]


@pytest.mark.parametrize("where", ["a file", "under a file"])
def test_unusable_directory_still_builds(where, builds, monkeypatch,
                                         tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"")
    monkeypatch.setenv("QNCT_CACHE_DIR", str(
        blocker if where == "a file" else blocker / "cache"))
    g = tiny()
    want = matrix(fresh(geo._ray_tables), g)
    for _ in range(2):
        assert_same_csr(matrix(geo._ray_tables, g), want)
    assert len(builds) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]
    assert blocker.read_bytes() == b""


def test_no_home_still_builds(builds, monkeypatch):
    for var in ("QNCT_CACHE_DIR", "XDG_CACHE_HOME", "HOME"):
        monkeypatch.delenv(var, raising=False)

    def no_home():
        raise RuntimeError("no home directory")

    monkeypatch.setattr(Path, "home", no_home)
    g = tiny()
    assert_same_csr(matrix(geo._ray_tables, g),
                    matrix(fresh(geo._ray_tables), g))
    assert builds[0] is geo._ray_tables


def test_missing_directory_is_made(monkeypatch, tmp_path, builds):
    cache = tmp_path / "a" / "b"
    monkeypatch.setenv("QNCT_CACHE_DIR", str(cache))
    g = tiny()
    matrix(geo._ray_tables, g)
    assert [p.name for p in cache.iterdir()] \
        == [path_of(geo._ray_tables, g).name]


def test_location_falls_back_to_xdg_then_home(monkeypatch, tmp_path):
    monkeypatch.setenv("QNCT_CACHE_DIR", str(tmp_path / "q"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "x"))
    monkeypatch.setenv("HOME", str(tmp_path / "h"))
    assert geo._cache_dir() == tmp_path / "q"
    monkeypatch.delenv("QNCT_CACHE_DIR")
    assert geo._cache_dir() == tmp_path / "x" / "qnct"
    monkeypatch.setenv("XDG_CACHE_HOME", "")
    assert geo._cache_dir() == tmp_path / "h" / ".cache" / "qnct"


def failing_on_call(n, fn):
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(1)
        if len(calls) == n:
            raise OSError("disk full")
        return fn(*args, **kwargs)

    return wrapped


@pytest.mark.parametrize("fails", ["second record", "move"])
def test_failed_write_leaves_no_temporary_file(fails, builds, monkeypatch,
                                               scan_cache_dir):
    if fails == "move":
        monkeypatch.setattr(geo.os, "replace", failing_on_call(1, os.replace))
    else:
        monkeypatch.setattr(geo.np, "save", failing_on_call(2, np.save))
    g = tiny()
    want = matrix(fresh(geo._ray_tables), g)
    assert_same_csr(matrix(geo._ray_tables, g), want)
    assert list(scan_cache_dir.iterdir()) == []


def test_other_tables_are_never_written(builds, monkeypatch, scan_cache_dir):
    g = tiny()
    matrix(fresh(geo._ray_tables), g)
    matrix(lambda *args: geo._pixel_tables(*args), g)
    wrapper = fresh(geo._ray_tables)
    monkeypatch.setattr(geo, "_ray_tables", wrapper)
    sino = geo.forward_project(geo.Image(np.ones((N, N)), g.pixel_mm(N)), g)
    assert builds[-1] is wrapper and np.any(sino.values)
    assert list(scan_cache_dir.iterdir()) == []


def test_key_moves_with_every_input_of_the_bytes(monkeypatch):
    g = tiny()
    base = geo._cache_key("_ray_tables", g, N, N)
    assert geo._cache_key("_ray_tables", tiny(), N, N) == base
    keys = {
        "n_det": geo._cache_key("_ray_tables", replace(g, n_det=25), N, N),
        "spacing": geo._cache_key(
            "_ray_tables", replace(g, det_spacing_mm=2.5), N, N),
        "views": geo._cache_key("_ray_tables", tiny(views=2), N, N),
        "beam": geo._cache_key("_ray_tables", tiny(geo.FAN), N, N),
        "h": geo._cache_key("_ray_tables", g, N + 1, N),
        "w": geo._cache_key("_ray_tables", g, N, N + 1),
        "builder": geo._cache_key("_pixel_tables", g, N, N),
    }
    for label, module, name in (("numpy", np, "__version__"),
                                ("scipy", scipy, "__version__"),
                                ("host", geo, "_HOST_BITS"),
                                ("source", geo, "_SOURCE_SHA256")):
        with monkeypatch.context() as m:
            m.setattr(module, name, "other")
            keys[label] = geo._cache_key("_ray_tables", g, N, N)
    assert len(set(keys.values()) | {base}) == len(keys) + 1
    assert all(geo._KEY_NAME.fullmatch(key) for key in keys.values())


def test_host_probe_is_the_same_twice():
    assert geo._host_bits() == geo._host_bits() == geo._HOST_BITS


def test_eviction_drops_the_least_recently_used_first(builds, monkeypatch,
                                                      scan_cache_dir):
    scans = [tiny(views=k + 1) for k in range(4)]
    paths = [path_of(geo._ray_tables, g) for g in scans]
    for g in scans:
        matrix(geo._ray_tables, g)
    sizes = [p.stat().st_size for p in paths]
    paths[3].unlink()
    for k, path in enumerate(paths[:3]):
        os.utime(path, (1000 * (k + 1),) * 2)
    (scan_cache_dir / "notes.txt").write_text("not a matrix")
    builds.clear()
    matrix(geo._ray_tables, scans[0])  # a load makes it the most recent
    assert builds == []
    budget = sum(sizes) - sizes[1]
    monkeypatch.setattr(geo, "CACHE_BUDGET_BYTES", budget)
    matrix(geo._ray_tables, scans[3])  # built, written, then evicts
    assert builds == [geo._ray_tables]
    kept = {p.name for p in scan_cache_dir.iterdir()}
    assert kept == {paths[k].name for k in (0, 2, 3)} | {"notes.txt"}
    assert sum(paths[k].stat().st_size for k in (0, 2, 3)) <= budget


def test_matrix_above_the_budget_is_not_written(builds, monkeypatch,
                                                scan_cache_dir):
    g = tiny()
    matrix(geo._ray_tables, tiny(views=1))
    monkeypatch.setattr(geo, "CACHE_BUDGET_BYTES", 1000)
    matrix(geo._ray_tables, g)
    assert len(builds) == 2
    assert [p.name for p in scan_cache_dir.iterdir()] \
        == [path_of(geo._ray_tables, tiny(views=1)).name]


# ---------------------------------------------------------------------------
# the in-process working set
# ---------------------------------------------------------------------------

@pytest.fixture
def resolves(monkeypatch):
    """The matrices loaded from disk and assembled from here on, by kind."""
    counts = Counter()
    load, assemble = geo._load_matrix, geo._assemble

    def loading(path, shape):
        counts["load"] += 1
        return load(path, shape)

    def assembling(tables, geometry, h, w):
        counts["assemble"] += 1
        return assemble(tables, geometry, h, w)

    monkeypatch.setattr(geo, "_load_matrix", loading)
    monkeypatch.setattr(geo, "_assemble", assembling)
    return counts


def desk_item(g, n=64):
    truth = random_ellipses(n, substream(0, "data"))
    sino = geo.forward_project(geo.Image(truth, g.pixel_mm(n)), g)
    return tr.TrainItem(truth, sino.values)


def train_step(g, item, model):
    config = tr.TrainConfig(epochs=1, lr=1e-3, max_steps=1)
    tr.train_unrolled([item], g, model, config)


def inference(g, item, model):
    ur.unrolled_reconstruct(geo.Sinogram(item.sino), g, model, 64, 64)


def classical(method):
    def solve(g, item, model):
        sino = geo.Sinogram(item.sino)
        spec = solvers.ObjectiveSpec.for_geometry(
            g, sino, 64, 64, regularizer=solvers.Regularizer("tikhonov",
                                                             mu=0.05))
        x0 = geo.fbp(sino, g, h=64, w=64).values.astype(np.float64)
        if method == "gd":
            solvers.gradient_descent(spec, x0,
                                     solvers.estimate_step(spec, 64), 3)
        else:
            solvers.qn_reconstruct(spec, x0, 3)
    return solve


@pytest.mark.parametrize("op,beam,views", [
    (train_step, geo.PARALLEL, 16), (inference, geo.PARALLEL, 16),
    (classical("gd"), geo.FAN, 32), (classical("qn"), geo.FAN, 32)],
    ids=["train step", "inference", "gd", "qn"])
def test_a_warm_op_loads_and_builds_no_matrix(op, beam, views, resolves):
    g = geo.desk_geometry(beam, views)
    item = desk_item(g)
    model = ur.QnMixerModel.build(
        64, 64, 0, mx.MixerConfig(patch=4, d=12, n_layers=1),
        ur.UnrollConfig(T=6, codec=ur.CodecConfig(1, 4)))
    op(g, item, model)  # warm-up: the scan's A and B come in here
    resolves.clear()
    op(g, item, model)
    assert resolves == {}


def test_the_sparse_scan_lets_go_of_synthesis_full_view_matrix():
    full = geo.desk_geometry()
    rng = substream(0, "data")
    items, sparse = tr.synthesize_dataset(
        [random_ellipses(64, rng) for _ in range(2)], full, 16, 1e6, 0.05, 0)
    full_a = weakref.ref(
        geo._scan_matrix(geo._ray_tables, full, 64, 64)[0].data)
    sino = geo.Sinogram(items[0].sino)
    geo.fbp(sino, sparse, h=64, w=64)
    geo.back_project(sino, sparse, 64, 64)
    gc.collect()
    assert full_a() is None


def test_train_without_a_disk_cache_builds_each_matrix_once(
        monkeypatch, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"")
    monkeypatch.setenv("QNCT_CACHE_DIR", str(blocker / "cache"))
    built = []
    assemble = geo._assemble

    def counted(tables, geometry, h, w):
        built.append((tables.__name__, geometry.n_views))
        return assemble(tables, geometry, h, w)

    monkeypatch.setattr(geo, "_assemble", counted)
    geo._scan_matrix.cache_clear()
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("geometry.n_views_full = 24\n")
    assert main([str(a) for a in (
        "train", "--out-dir", tmp_path / "run", "--phantoms", "2",
        "--size", "16", "--views", "8", "--steps", "2", "--mixer-d", "12",
        "--config", cfg)]) == 0
    assert Counter(built) == {("_ray_tables", 24): 1, ("_ray_tables", 8): 1,
                              ("_pixel_tables", 8): 1}
