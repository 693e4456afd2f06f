"""Smoke test of the checked-in benchmark scripts, so they cannot rot."""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qnct import autodiff as ad
from qnct import geometry as geo
from qnct import init as pinit
from qnct import mixer as mx
from qnct import phantoms, solvers
from qnct import train as tr
from qnct import unroll as ur
from qnct.phantoms import shepp_logan

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.fixture
def bench_metrics(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    yield importlib.import_module("bench_metrics")
    for name in ("bench_metrics", "bench_kernels", "run", "workloads"):
        sys.modules.pop(name, None)


def test_count_projections_of_a_small_solve(bench_metrics):
    g = geo.Geometry(n_views_full=60, n_det=48, det_spacing_mm=2.0,
                     image_extent_mm=48.0,
                     view_subset=geo.uniform_view_subset(60, 8))
    sino = geo.forward_project(geo.Image(shepp_logan(16), g.pixel_mm(16)), g)
    spec = solvers.ObjectiveSpec.for_geometry(
        g, sino, 16, 16, regularizer=solvers.Regularizer("tikhonov", mu=0.1))
    x0 = np.zeros((16, 16))
    counts = bench_metrics.count_projections(
        geo, lambda: solvers.gradient_descent(spec, x0, 1e-3, 3))
    assert {name: c["calls"] for name, c in counts.items()} == \
        {"forward_project": 4, "back_project": 4}
    assert all(c["ms"] > 0 for c in counts.values())
    # the module functions are put back afterwards
    assert geo.forward_project.__name__ == "forward_project"
    assert geo.back_project.__name__ == "back_project"


def test_solver_ops_time_each_op_beside_its_projections(bench_metrics,
                                                         monkeypatch):
    monkeypatch.setattr(bench_metrics, "SOLVER_OPS", 3)
    _, workloads, q = bench_metrics._import_side(ROOT)
    report = bench_metrics.solver_ops(workloads, q, workloads.TINY)
    # TINY runs 3 gd iterations after a 10-call step-size estimate, and
    # 1 qn iteration
    calls = {"gd": 3 + 1 + 10, "qn": 1 + 1}
    for name, row in report.items():
        assert row["forward_project"]["calls"] == calls[name]
        assert row["back_project"]["calls"] == calls[name]
        projector_ms = row["forward_project"]["ms"] + row["back_project"]["ms"]
        assert row["op_ms"] > projector_ms > 0
        assert row["outside_ms"] > 0


@pytest.fixture
def bench_scan_build(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    yield importlib.import_module("bench_scan_build")
    for name in ("bench_scan_build", "bench_kernels", "run", "workloads"):
        sys.modules.pop(name, None)


def test_scan_build_case_of_a_desk_subset(bench_scan_build):
    q = SimpleNamespace(geometry=geo, phantoms=phantoms)
    report = bench_scan_build.build_case(q, "desk parallel 16/180")
    g = geo.desk_geometry(view_subset=geo.uniform_view_subset(180, 16))
    assert report["a_entries"] == \
        geo._scan_matrix(geo._ray_tables, g, 64, 64)[0].nnz
    assert report["forward_project_s"] > 0 and report["fbp_s"] > 0
    assert report["peak_rss_mb"] >= report["rss_after_forward_mb"] \
        >= report["rss_before_mb"] > 0
    assert report["a_traced_peak_ratio"] >= 1.0
    assert report["b_traced_peak_ratio"] >= 1.0
    assert report["a_sha256"] == bench_scan_build.matrix_sha256(
        geo._scan_matrix(geo._ray_tables, g, 64, 64)[0])
    assert report["b_sha256"] == bench_scan_build.matrix_sha256(
        geo._scan_matrix(geo._pixel_tables, g, 64, 64)[0])


def test_setup_matrices_counts_a_tiny_setup(bench_scan_build,
                                            scan_cache_dir):
    _, workloads, q = bench_scan_build._import_side(ROOT)
    load, assemble = geo._load_matrix, geo._assemble
    runs = []
    for _ in range(2):
        geo._scan_matrix.cache_clear()  # a fresh process's
        runs.append(bench_scan_build.setup_matrices(workloads, q, "gd",
                                                    workloads.TINY))
    cold, warm = runs
    # the full-view and sparse scans' A and B, built once each; every time
    # the set-up switches scans it loads them back
    assert (cold["builds"], cold["loads"]) == (4, 4)
    assert (warm["builds"], warm["loads"]) == (0, 8)
    assert cold["setup_s"] > 0 and warm["peak_rss_mb"] > 0
    assert (geo._load_matrix, geo._assemble) == (load, assemble)


def test_traced_build_at_tiny_scale(bench_scan_build):
    g = geo.Geometry(n_views_full=8, n_det=24, det_spacing_mm=2.0,
                     image_extent_mm=24.0)
    row = bench_scan_build.traced_build(geo, geo._pixel_tables, g, 12)
    assert geo._scan_matrix.cache_info().currsize == 0  # nothing kept
    B = geo._scan_matrix(geo._pixel_tables, g, 12, 12)[0]
    nbytes = B.data.nbytes + B.indices.nbytes + B.indptr.nbytes
    assert row["matrix_mb"] == nbytes / 2**20
    # the matrix is alive when the peak is read, so it is part of it
    assert row["traced_peak_mb"] >= row["matrix_mb"] > 0
    assert row["traced_peak_ratio"] == pytest.approx(
        row["traced_peak_mb"] / row["matrix_mb"])


def test_traced_build_never_reads_the_disk_cache(bench_scan_build,
                                                 monkeypatch):
    g = geo.Geometry(n_views_full=8, n_det=24, det_spacing_mm=2.0,
                     image_extent_mm=24.0)
    geo._scan_matrix.__wrapped__(geo._ray_tables, g, 12, 12)  # on disk now
    monkeypatch.setattr(geo, "_load_matrix", None)  # a read would raise
    row = bench_scan_build.traced_build(geo, geo._ray_tables, g, 12)
    assert row["traced_peak_mb"] >= row["matrix_mb"] > 0


def test_cold_and_warm_share_one_fresh_directory(bench_scan_build, tmp_path):
    seen = []

    def fn(env):
        cache = Path(env["QNCT_CACHE_DIR"])
        seen.append((cache, sorted(p.name for p in cache.iterdir())))
        (cache / "matrix").write_text("kept")
        return {"files": len(seen[-1][1])}

    assert bench_scan_build.cold_and_warm(tmp_path, fn) == \
        {"cold": {"files": 0}, "warm": {"files": 1}}
    assert seen[0][0] == seen[1][0] and seen[0][0].parent == tmp_path
    assert list(tmp_path.iterdir()) == []  # removed afterwards


def test_rounds_of_gives_each_side_cold_and_warm_medians(bench_scan_build,
                                                         tmp_path):
    def fn(checkout, env):
        cache = Path(env["QNCT_CACHE_DIR"])
        warm = (cache / "m").exists()
        (cache / "m").write_text("")
        return {"s": 1.0 if warm else float(len(str(checkout))),
                "sha": str(checkout)}

    sides = bench_scan_build.rounds_of(Path("p"), Path("chg"), 3, tmp_path,
                                       fn)
    assert {side: {state: sides[side][state] for state in ("cold", "warm")}
            for side in sides} == \
        {"parent": {"cold": {"s": 1.0, "sha": "p"},
                    "warm": {"s": 1.0, "sha": "p"}},
         "change": {"cold": {"s": 3.0, "sha": "chg"},
                    "warm": {"s": 1.0, "sha": "chg"}}}
    assert sides["change"]["cold_rounds"] == [{"s": 3.0}] * 3
    assert not bench_scan_build.same_bytes(sides, ("sha",))
    assert bench_scan_build.same_bytes({"change": sides["change"]}, ("sha",))


def test_a_child_build_case_is_loaded_warm(bench_scan_build, tmp_path):
    case = "desk parallel 16/180"
    sides = bench_scan_build.rounds_of(
        ROOT, ROOT, 1, tmp_path,
        bench_scan_build.in_child("--measure-side", "--case", case))
    assert bench_scan_build.same_bytes(sides, ("a_sha256", "b_sha256",
                                               "sino_sha256"))
    assert sides["change"]["cold"]["a_entries"] == 147917


def test_setup_side_reports_a_setup_and_its_peak_rss(bench_scan_build):
    row = bench_scan_build.setup_side(ROOT, "gd")
    assert row["setup_s"] > 0 and row["peak_rss_mb"] > 0


def test_cli_wall_cold_then_warm(bench_scan_build, tmp_path):
    row = bench_scan_build.cold_and_warm(
        tmp_path, lambda env: bench_scan_build.cli_wall(ROOT, env))
    assert row["cold"]["out_sha256"] == row["warm"]["out_sha256"]
    assert row["cold"]["wall_s"] > 0 and row["warm"]["wall_s"] > 0


def test_cached_pairs_keep_one_directory_per_side(bench_scan_build,
                                                   monkeypatch, tmp_path):
    dirs = {"parent": [], "change": []}
    metrics = {"setup_s": 1.0, "op_ms_p50": 2.0, "ops_per_s": 3.0,
               "peak_rss_mb": 4.0, "failed_frac": 0.0}

    def fake_run(checkout, workload, seed, seconds, env):
        side = "parent" if checkout == Path("p") else "change"
        dirs[side].append(env["QNCT_CACHE_DIR"])
        assert Path(env["QNCT_CACHE_DIR"]).is_dir()
        return {"side": side}, {**metrics, "setup_s": float(seed)}

    monkeypatch.setattr(sys.modules["bench_kernels"], "perfbench_run",
                        fake_run)
    run = bench_scan_build.cached_pairs(tmp_path)
    result = run(Path("p"), Path("c"), "gd", range(5, 9), 30)
    assert [len(set(d)) for d in dirs.values()] == [1, 1]
    assert dirs["parent"][0] != dirs["change"][0]
    assert result["first_run"]["parent"]["setup_s"] == 5.0
    summary = result["summary"]
    assert summary["setup_s"]["pairs"] == 3
    assert summary["setup_s"]["parent"]["median"] == 7.0
    assert result["summary_all_runs"]["setup_s"]["pairs"] == 4
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def bench_kernels(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    yield importlib.import_module("bench_kernels")
    sys.modules.pop("bench_kernels", None)


def test_conv2d_and_maxpool2d_shapes_at_tiny_scale(bench_kernels):
    convs = bench_kernels.conv2d_shapes(
        ad, np, reps=2, shapes=(((1, 2, 8, 8), (3, 2, 3, 3), 1),
                                ((1, 32, 2, 2), (3, 32, 1, 1), 0)))
    pools = bench_kernels.maxpool2d_shapes(
        ad, np, reps=2, shapes=(((1, 2, 8, 8), 3, 1, 1),
                                ((1, 2, 8, 8), 2, 2, 0)))
    assert [(row["w"], row["padding"]) for row in convs] == \
        [([3, 2, 3, 3], 1), ([3, 32, 1, 1], 0)]
    assert [(row["kernel"], row["stride"], row["padding"])
            for row in pools] == [(3, 1, 1), (2, 2, 0)]
    assert all(row["forward_ms"] > 0 and row["backward_ms"] > 0
               for row in convs + pools)


def test_desk_shapes_are_the_ones_a_desk_step_runs(bench_kernels, monkeypatch):
    seen = {"conv2d": set(), "maxpool2d": set()}
    conv2d, maxpool2d = ad.conv2d, ad.maxpool2d

    def record_conv(x, w, b=None, padding=0):
        seen["conv2d"].add((x.shape, w.shape, padding))
        return conv2d(x, w, b, padding=padding)

    def record_pool(x, kernel, stride=None, padding=0):
        seen["maxpool2d"].add((x.shape, kernel, stride or kernel, padding))
        return maxpool2d(x, kernel, stride=stride, padding=padding)

    monkeypatch.setattr(ad, "conv2d", record_conv)
    monkeypatch.setattr(ad, "maxpool2d", record_pool)
    config = mx.desk_mixer_config().scaled(48)
    model = ur.QnMixerModel.build(
        64, 64, 0, config, ur.UnrollConfig(T=1, codec=ur.CodecConfig(2, 32)))
    x = ad.Tensor(np.zeros((1, 1, 64, 64), dtype=np.float32))
    with ad.no_grad():
        mx.incept_mixer_forward(x, model.params, config)
        latent = ur.encode_gradient(x, model.params, model.unroll_config.codec)
        ur.decode_direction(latent, model.params, model.unroll_config.codec,
                            64, 64)
    assert seen["conv2d"] == set(bench_kernels.DESK_CONVS)
    assert seen["maxpool2d"] == set(bench_kernels.DESK_POOLS)


@pytest.fixture
def bench_tape(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    yield importlib.import_module("bench_tape")
    for name in ("bench_tape", "bench_kernels", "run", "workloads"):
        sys.modules.pop(name, None)


def test_tape_walk_counts_what_closures_and_input_entries_hold(bench_tape):
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.normal(size=(1, 2, 8, 8)), requires_grad=True)
    mlp = [ad.Tensor(rng.normal(size=s), requires_grad=True)
           for s in ((8, 8), (8,), (8, 8), (8,))]
    w = ad.Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    affine = [ad.Tensor(np.ones(3), requires_grad=True) for _ in range(3)]
    wt = ad.Tensor(rng.normal(size=(3, 1, 2, 2)), requires_grad=True)
    bt = ad.Tensor(np.zeros(1), requires_grad=True)
    loss = ad.mean(ad.conv_transpose2d(ad.instance_norm_prelu(
        ad.conv2d(ad.mlp(x, *mlp), w, padding=1), *affine), wt, bt))
    walk = bench_tape.tape_bytes(ad, loss)
    plane_in, plane = 2 * 8 * 8 * 8, 3 * 8 * 8 * 8  # float64 (1, c, 8, 8)
    assert walk["nodes"] == 5
    # mlp keeps its cdf (x is a leaf); conv2d's reader holds the mlp output
    # (no rebuild); instance_norm_prelu keeps xhat and one 1/std per
    # channel, not its input; conv_transpose2d reads instance_norm_prelu's
    # rebuild, whose arrays that node already counts; mean keeps a shape
    assert walk["per_op"] == {
        "conv2d": {"nodes": 1, "closure_bytes": plane_in, "input_bytes": 0},
        "conv_transpose2d": {"nodes": 1, "closure_bytes": 0,
                             "input_bytes": 0},
        "instance_norm_prelu": {"nodes": 1, "closure_bytes": plane + 3 * 8,
                                "input_bytes": 0},
        "mean": {"nodes": 1, "closure_bytes": 0, "input_bytes": 0},
        "mlp": {"nodes": 1, "closure_bytes": plane_in, "input_bytes": 0}}
    assert walk["total_bytes"] == 2 * plane_in + plane + 3 * 8


def test_tape_rounds_report_each_round_step_time_as_a_scale(bench_tape):
    rounds = [{"env": {"host": "h"}, "step_ms": ms, "traced_tape_bytes": 7}
              for ms in (180.0, 150.0, 170.0)]
    report = bench_tape.tape_rounds(rounds)
    assert report["env"] == {"host": "h"} and report["traced_tape_bytes"] == 7
    assert "step_ms" not in report
    scale = report["step_ms_scale"]
    assert scale["per_round"] == [180.0, 150.0, 170.0]
    assert scale["median"] == 170.0 and scale["q1"] == 160.0
    assert scale["q3"] == 175.0 and "not a comparison" in scale["note"]
    one = bench_tape.tape_rounds(rounds[:1])["step_ms_scale"]
    assert one["per_round"] == [180.0] and one["median"] == 180.0


def test_step_rows_report_every_round_of_each_side(bench_tape, monkeypatch):
    def fake(rss, s_per_step, losses):
        return {"env": {}, "size": 256, "peak_rss_mb": rss,
                "s_per_step": s_per_step, "losses": losses}

    runs = {"parent": [fake(1600.0, 7.2, ["a"]), fake(1610.0, 5.7, ["a"]),
                       fake(1605.0, 6.0, ["a"])],
            "change": [fake(980.0, 7.6, ["a"]), fake(990.0, 7.5, ["a"]),
                       fake(985.0, 7.7, ["a"])]}
    monkeypatch.setattr(bench_tape, "alternate", lambda *args: runs)
    row = bench_tape.step_row(Path("p"), Path("c"), "256 96 2", 3)
    assert row["same_losses"]
    assert row["change"]["peak_rss_mb"] == 985.0
    rounds = row["parent"]["rounds"]["s_per_step"]
    assert rounds["per_round"] == [7.2, 5.7, 6.0]
    assert rounds["median"] == 6.0 and rounds["q1"] == 5.85
    assert row["change"]["rounds"]["peak_rss_mb"]["per_round"] == \
        [980.0, 990.0, 985.0]
    runs["change"][2]["losses"] = ["b"]  # one round's losses differ
    assert not bench_tape.step_row(Path("p"), Path("c"), "256 96 2",
                                   3)["same_losses"]


def test_tape_and_train_steps_at_tiny_scale(bench_tape):
    report = bench_tape.tape_side(ROOT, "TINY")
    assert report["walk"]["nodes"] > 0
    assert report["traced_tape_bytes"] > 0
    kept = report["profile_kept_bytes"]
    assert kept["conv2d"] == 0 and kept["prelu"] == 0
    rebuilt = report["profile_rebuilds"]
    assert rebuilt["prelu"]["rebuilds"] > 0 and "conv2d" not in rebuilt
    assert report["profile_off_cost"]["calls_per_step"] > 0
    q = SimpleNamespace(geometry=geo, phantoms=phantoms, init=pinit,
                        train=tr, unroll=ur, mixer=mx)
    row = bench_tape.train_steps(q, 16, 12, 2)
    assert len(row["losses"]) == 2 and row["s_per_step"] > 0
    assert row["peak_rss_mb"] >= row["rss_before_mb"] > 0
