import argparse
import itertools
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qnct import cli
from qnct import config as cfgmod
from qnct import geometry as geo
from qnct import mixer as mx
from qnct import tomo_io as tio
from qnct import train as tr
from qnct import unroll as ur
from qnct.autodiff import load_checkpoint, save_checkpoint
from qnct.cli import build_parser, main


def run(argv):
    return main([str(a) for a in argv])


def read_rows(path):
    return tio.read_csv(path)


@pytest.fixture
def workspace(tmp_path):
    return tmp_path


def test_every_subcommand_has_help():
    parser = build_parser()
    commands = ("phantom", "project", "fbp", "noise", "reconstruct", "train",
                "eval", "nps", "ood")
    for cmd in commands:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([cmd, "--help"])
        assert exc.value.code == 0


def test_phantom_deterministic_and_in_range(workspace):
    out_a = workspace / "a.tomo"
    out_b = workspace / "b.tomo"
    assert run(["phantom", "--kind", "shepp-logan", "--size", "64",
                "--out", out_a]) == 0
    values, kind = tio.read_tomo(out_a)
    assert kind == tio.KIND_IMAGE
    assert values.shape == (64, 64)
    assert values.min() >= 0.0 and values.max() <= 1.0
    assert run(["phantom", "--kind", "random-ellipses", "--seed", "9",
                "--out", out_a]) == 0
    assert run(["phantom", "--kind", "random-ellipses", "--seed", "9",
                "--out", out_b]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (workspace / "a.tomo.cfg").exists()  # resolved config emitted


def test_project_fbp_round_trip_and_view_counts(workspace):
    ph = workspace / "ph.tomo"
    sino = workspace / "s.tomo"
    rec = workspace / "r.tomo"
    run(["phantom", "--out", ph])
    assert run(["project", "--image", ph, "--out", sino]) == 0
    y, kind = tio.read_tomo(sino)
    assert kind == tio.KIND_SINOGRAM and y.shape == (180, 96)
    assert run(["fbp", "--sino", sino, "--out", rec]) == 0
    truth, _ = tio.read_tomo(ph)
    recon, _ = tio.read_tomo(rec)
    mse = np.mean((recon - truth) ** 2)
    assert 10 * np.log10(1.0 / mse) >= 25.0

    sparse = workspace / "s32.tomo"
    assert run(["project", "--image", ph, "--views", "32",
                "--out", sparse]) == 0
    y32, _ = tio.read_tomo(sparse)
    assert y32.shape == (32, 96)


def test_noise_zero_settings_lossless(workspace):
    ph = workspace / "ph.tomo"
    sino = workspace / "s.tomo"
    noisy = workspace / "n.tomo"
    run(["phantom", "--out", ph])
    run(["project", "--image", ph, "--out", sino])
    assert run(["noise", "--sino", sino, "--poisson", "0",
                "--gauss-frac", "0", "--out", noisy]) == 0
    assert tio.read_tomo(noisy)[0].tobytes() == tio.read_tomo(sino)[0].tobytes()


def test_noise_seed_reproducible(workspace):
    ph = workspace / "ph.tomo"
    sino = workspace / "s.tomo"
    run(["phantom", "--out", ph])
    run(["project", "--image", ph, "--out", sino])
    a = workspace / "na.tomo"
    b = workspace / "nb.tomo"
    run(["noise", "--sino", sino, "--poisson", "1e6", "--gauss-frac", "0.05",
         "--seed", "3", "--out", a])
    run(["noise", "--sino", sino, "--poisson", "1e6", "--gauss-frac", "0.05",
         "--seed", "3", "--out", b])
    assert a.read_bytes() == b.read_bytes()


def test_rerun_with_resolved_config_is_bit_exact(workspace):
    ph = workspace / "ph.tomo"
    run(["phantom", "--kind", "random-ellipses", "--seed", "7", "--size",
         "48", "--out", ph])
    again = workspace / "ph2.tomo"
    assert run(["phantom", "--kind", "random-ellipses",
                "--config", workspace / "ph.tomo.cfg", "--out", again]) == 0
    assert ph.read_bytes() == again.read_bytes()


def test_reconstruct_gd_trace_monotone(workspace):
    ph = workspace / "ph.tomo"
    sino = workspace / "s.tomo"
    rec = workspace / "r.tomo"
    trace = workspace / "t.csv"
    run(["phantom", "--out", ph])
    run(["project", "--image", ph, "--views", "32", "--out", sino])
    assert run(["reconstruct", "--method", "gd", "--sino", sino,
                "--iters", "20", "--reg", "tikhonov",
                "--mu", "0.1", "--out", rec, "--trace", trace]) == 0
    rows = read_rows(trace)
    js = [float(r["J"]) for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(js, js[1:]))
    with open(trace) as fh:
        header = fh.readline().strip().split(",")
    assert header[-2:] == ["residual_norm", "step_norm"]
    assert all(float(r["residual_norm"]) > 0 for r in rows)
    assert rows[0]["step_norm"] == "nan"
    assert all(float(r["step_norm"]) > 0 for r in rows[1:])


def test_reconstruct_qn_trace_has_si_column(workspace):
    ph = workspace / "ph.tomo"
    sino = workspace / "s.tomo"
    rec = workspace / "r.tomo"
    trace = workspace / "t.csv"
    run(["phantom", "--out", ph])
    run(["project", "--image", ph, "--views", "16", "--out", sino])
    assert run(["reconstruct", "--method", "qn", "--sino", sino,
                "--iters", "8", "--size", "48",
                "--out", rec, "--trace", trace]) == 0
    rows = read_rows(trace)
    assert "si" in rows[0]
    assert all(float(r["si"]) < 1e-8 for r in rows)


def test_reconstruct_qn_mixer_requires_weights(workspace, capsys):
    ph = workspace / "ph.tomo"
    sino = workspace / "s.tomo"
    run(["phantom", "--out", ph])
    run(["project", "--image", ph, "--views", "16", "--out", sino])
    code = run(["reconstruct", "--method", "qn-mixer", "--sino", sino,
                "--out", workspace / "r.tomo"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error QnctError:") and err.count("\n") == 1


def make_cold_checkpoint(path, size=64, views=16, T=1):
    mixer_cfg = mx.MixerConfig(patch=4, d=12, n_layers=1)
    unroll_cfg = ur.UnrollConfig(T=T, codec=ur.CodecConfig(2, 8))
    model = ur.QnMixerModel.build(size, size, 0, mixer_cfg, unroll_cfg)
    from qnct.autodiff import save_checkpoint
    meta = tr.model_meta(model)
    save_checkpoint(model.params, path, meta)


def test_reconstruct_qn_mixer_cold_start_matches_fbp(workspace):
    ph = workspace / "ph.tomo"
    sino = workspace / "s.tomo"
    run(["phantom", "--out", ph])
    run(["project", "--image", ph, "--views", "16", "--out", sino])
    weights = workspace / "cold.ckpt"
    make_cold_checkpoint(weights)
    rec_mixer = workspace / "rm.tomo"
    rec_fbp = workspace / "rf.tomo"
    assert run(["reconstruct", "--method", "qn-mixer", "--sino", sino,
                "--weights", weights, "--out", rec_mixer]) == 0
    assert run(["fbp", "--sino", sino, "--out", rec_fbp]) == 0
    assert tio.read_tomo(rec_mixer)[0].tobytes() == \
        tio.read_tomo(rec_fbp)[0].tobytes()


def test_truncated_checkpoint_is_one_error_line(workspace, capsys):
    ph = workspace / "ph.tomo"
    sino = workspace / "s.tomo"
    run(["phantom", "--out", ph])
    run(["project", "--image", ph, "--views", "16", "--out", sino])
    weights = workspace / "cold.ckpt"
    make_cold_checkpoint(weights)
    weights.write_bytes(weights.read_bytes()[:-16])
    capsys.readouterr()
    code = run(["reconstruct", "--method", "qn-mixer", "--sino", sino,
                "--weights", weights, "--out", workspace / "r.tomo"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error CheckpointError:") and err.count("\n") == 1


def scan(workspace):
    ph = workspace / "ph.tomo"
    sino = workspace / "s.tomo"
    run(["phantom", "--out", ph])
    run(["project", "--image", ph, "--views", "16", "--out", sino])
    return sino


def one_error_line(capsys, kind):
    err = capsys.readouterr().err
    assert err.startswith(f"error {kind}:") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("method", ["fbp", "gd", "qn", "qn-mixer"])
def test_the_sinogram_fixes_the_view_and_detector_counts(workspace, method):
    # a 16-view, 128-detector sinogram, given no count flag, is read on the
    # uniform 16 of 180 views with 128 detectors, which the config records
    ph, sino, rec = (workspace / name for name in ("ph.tomo", "s.tomo",
                                                   "r.tomo"))
    run(["phantom", "--size", "32", "--out", ph])
    assert run(["project", "--image", ph, "--views", "16", "--n-det", "128",
                "--out", sino]) == 0
    weights = workspace / "cold.ckpt"
    make_cold_checkpoint(weights, size=32)
    argv = {"fbp": ["fbp", "--size", "32"],
            "qn-mixer": ["reconstruct", "--method", method,
                         "--weights", weights]}.get(
        method, ["reconstruct", "--method", method, "--size", "32",
                 "--iters", "2"])
    assert run([*argv, "--sino", sino, "--out", rec]) == 0
    text = (workspace / "r.tomo.cfg").read_text()
    assert "geometry.views = 16\n" in text and "geometry.n_det = 128\n" in text

    views = geo.uniform_view_subset(180, 16)
    g = replace(geo.desk_geometry(view_subset=views), n_det=128)
    y = geo.Sinogram(tio.read_tomo(sino)[0])
    if method == "qn-mixer":
        model = tr.model_from_checkpoint(weights)
        want = ur.unrolled_reconstruct(y, g, model, 32, 32)[0].values
    else:  # "fbp" stops at FBP
        cfg = cfgmod.resolve_config(None, {"image.size": 32,
                                           "solver.iters": 2})
        want = cli._classical(method, cfg, g, y)[0]
    assert tio.read_tomo(rec)[0].tobytes() == \
        want.astype(np.float32).tobytes()


@pytest.mark.parametrize("flag", ["--views", "--n-det"])
@pytest.mark.parametrize("command", [["fbp"],
                                     ["reconstruct", "--method", "gd"]],
                         ids=["fbp", "reconstruct"])
def test_the_sinograms_counts_are_no_flags(workspace, capsys, command, flag):
    sino = scan(workspace)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([*command, "--sino", sino, flag, "16", "--out",
             workspace / "r.tomo"])
    assert exc.value.code == 2
    assert flag in one_error_line(capsys, "usage")
    assert not (workspace / "r.tomo").exists()


@pytest.mark.parametrize("argv,reader", [
    (["reconstruct", "--method", "qn-mixer", "--out"], "--method qn-mixer"),
    (["ood", "--method", "qn-mixer", "--out-dir"], "--method qn-mixer"),
    (["train", "--data-dir", "data", "--out-dir"], "--data-dir"),
    (["ood", "--data-dir", "data", "--out-dir"], "--data-dir"),
], ids=["reconstruct-qn-mixer", "ood-qn-mixer", "train-data-dir",
        "ood-data-dir"])
def test_size_is_refused_where_an_input_fixes_the_grid(workspace, capsys,
                                                       monkeypatch, argv,
                                                       reader):
    monkeypatch.chdir(workspace)
    sino = scan(workspace)
    make_cold_checkpoint(workspace / "w.ckpt", size=32)
    (workspace / "data").mkdir()
    tio.write_tomo(workspace / "data" / "a.tomo",
                   np.ones((32, 32), np.float32), tio.KIND_IMAGE)
    inputs = ["--sino", sino] if argv[0] == "reconstruct" else []
    if "qn-mixer" in argv:
        inputs += ["--weights", "w.ckpt"]
    capsys.readouterr()
    before = set(workspace.rglob("*"))
    assert run([*argv[:-1], *inputs, "--size", "32", argv[-1], "out"]) == 1
    err = one_error_line(capsys, "ConfigError")
    assert f"{reader} does not read --size (image.size)" in err
    assert set(workspace.rglob("*")) == before


def test_qn_mixer_records_the_checkpoints_model_keys(workspace):
    sino = scan(workspace)
    weights = workspace / "cold.ckpt"
    make_cold_checkpoint(weights, T=2)
    rec = workspace / "r.tomo"
    assert run(["reconstruct", "--method", "qn-mixer", "--sino", sino,
                "--weights", weights, "--out", rec]) == 0
    assert run(["ood", "--out-dir", workspace / "ood", "--method",
                "qn-mixer", "--weights", weights, "--count", "1",
                "--views", "16"]) == 0
    for cfg_path in (workspace / "r.tomo.cfg",
                     workspace / "ood" / "resolved.cfg"):
        text = cfg_path.read_text()
        assert "mixer.d = 12\n" in text and "mixer.n_layers = 1\n" in text
        assert "unroll.T = 2\n" in text and "unroll.codec_width = 8\n" in text


def test_checkpoint_for_another_image_size_names_both(workspace, capsys):
    # the checkpoint fixes the grid, which every --data-dir image must match
    data = workspace / "data"
    data.mkdir()
    tio.write_tomo(data / "a.tomo", np.ones((64, 64), np.float32),
                   tio.KIND_IMAGE)
    weights = workspace / "small.ckpt"
    make_cold_checkpoint(weights, size=32)
    capsys.readouterr()
    assert run(["ood", "--method", "qn-mixer", "--weights", weights,
                "--data-dir", data, "--out-dir", workspace / "ood"]) == 1
    err = one_error_line(capsys, "ShapeError")
    assert "a.tomo is (64, 64), image.size is 32" in err
    assert not (workspace / "ood").exists()


@pytest.mark.parametrize("command", ["reconstruct", "ood"])
def test_a_checkpoint_fixes_the_image_grid(workspace, command):
    # a 32² checkpoint runs without --size; its resolved config records the
    # grid, and a rerun from it writes the same bytes
    weights = workspace / "small.ckpt"
    make_cold_checkpoint(weights, size=32)
    given = ["--method", "qn-mixer", "--weights", weights]
    first, again = workspace / "first", workspace / "again"
    if command == "reconstruct":
        given += ["--sino", scan(workspace)]
        first, again = first.with_suffix(".tomo"), again.with_suffix(".tomo")
        out_flag, cfg = "--out", workspace / "first.tomo.cfg"
    else:
        out_flag, cfg = "--out-dir", first / "resolved.cfg"
    assert run([command, *given, out_flag, first]) == 0
    assert "image.size = 32\n" in cfg.read_text()
    assert run([command, *given, "--config", cfg, out_flag, again]) == 0
    assert outputs(again) == outputs(first)


@pytest.mark.parametrize("drop,meta_edits,kind", [
    (("lambda.1",), {}, "CheckpointError"),
    ((), {"unroll.T": "3"}, "CheckpointError"),
    ((), {"unroll.codec_width": "4"}, "CheckpointError"),
    ((), {"mixer.patch": "x"}, "ConfigError"),
    ((), {"unroll.fbp_filter": "bogus"}, "ShapeError"),
])
def test_bad_checkpoint_is_one_error_line(workspace, capsys, drop,
                                          meta_edits, kind):
    sino = scan(workspace)
    weights = workspace / "bad.ckpt"
    make_cold_checkpoint(weights, T=2)
    arrays, meta = load_checkpoint(weights)
    meta.update(meta_edits)
    save_checkpoint({k: v for k, v in arrays.items() if k not in drop},
                    weights, meta)
    capsys.readouterr()
    assert run(["reconstruct", "--method", "qn-mixer", "--sino", sino,
                "--weights", weights, "--out", workspace / "r.tomo"]) == 1
    one_error_line(capsys, kind)
    assert not (workspace / "r.tomo").exists()


def test_garbled_tomo_header_is_one_error_line(workspace, capsys):
    sino = scan(workspace)
    blob = bytearray(sino.read_bytes())
    blob[8:16] = b"\xff" * 8
    sino.write_bytes(bytes(blob))
    capsys.readouterr()
    assert run(["fbp", "--sino", sino, "--out", workspace / "r.tomo"]) == 1
    one_error_line(capsys, "QnctError")


@pytest.mark.parametrize("key,value", [("mixer.d", "0"),
                                       ("unroll.codec_width", "-2")])
def test_train_with_empty_layers_is_one_error_line(workspace, capsys, key,
                                                   value):
    cfg = workspace / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert run(["train", "--out-dir", workspace / "run", "--phantoms", "1",
                "--size", "32", "--views", "8", "--steps", "1",
                "--config", cfg]) == 1
    one_error_line(capsys, "ShapeError")


@pytest.mark.parametrize("argv,kind,output", [
    (["train", "--phantoms", "0"], "ConfigError", "run/loss.csv"),
    (["train", "--epochs", "-1"], "ShapeError", "run/loss.csv"),
    (["train", "--steps", "-3"], "ShapeError", "run/loss.csv"),
    (["train", "--lr", "nan"], "ShapeError", "run/loss.csv"),
    (["train", "--lr", "inf"], "ShapeError", "run/loss.csv"),
    (["train", "--weight-decay", "nan"], "ShapeError", "run/loss.csv"),
    (["train", "--weight-decay", "-1"], "ShapeError", "run/loss.csv"),
    (["ood", "--count", "0"], "ConfigError", "ood/ood.csv"),
    (["phantom", "--size", "-4"], "ConfigError", "p.tomo"),
], ids=["phantoms", "epochs", "steps", "lr-nan", "lr-inf", "decay-nan",
        "decay-negative", "count", "size"])
def test_bad_count_or_size_is_one_error_line(workspace, capsys, argv, kind,
                                             output):
    command, *bad = argv
    setup = {"train": ["--out-dir", workspace / "run", "--phantoms", "1",
                       "--size", "32", "--views", "8", "--mixer-d", "12"],
             "ood": ["--out-dir", workspace / "ood", "--size", "32"],
             "phantom": ["--out", workspace / "p.tomo"]}[command]
    assert run([command, *setup, *bad]) == 1
    one_error_line(capsys, kind)
    assert not (workspace / output).exists()


@pytest.mark.parametrize("argv,name", [
    (["project", "--det-spacing", "nan"], "det_spacing_mm"),
    (["project", "--extent", "nan"], "image_extent_mm"),
    (["project", "--extent", "0"], "image_extent_mm"),
    (["project", "--angular-end", "nan"], "angular_range"),
    (["project", "--angular-end", "0"], "angular_range"),
    (["project", "--beam", "fan", "--sad", "inf", "--add", "100"], "sad_mm"),
    (["noise", "--poisson", "nan"], "poisson_intensity"),
    (["noise", "--gauss-frac", "nan"], "gaussian_frac"),
    (["noise", "--gauss-frac", "-1"], "gaussian_frac"),
    (["noise", "--poisson", "1e6", "--cap", "nan"], "attenuation_cap"),
    (["noise", "--poisson", "1e6", "--cap", "0"], "attenuation_cap"),
    (["noise", "--poisson", "1e20"], "poisson_intensity"),
    (["noise", "--poisson", "1e300"], "poisson_intensity"),
], ids=["spacing-nan", "extent-nan", "extent-zero", "end-nan", "end-zero",
        "sad-inf", "poisson-nan", "gauss-nan", "gauss-negative", "cap-nan",
        "cap-zero", "poisson-above-limit", "poisson-huge"])
def test_bad_geometry_or_noise_value_is_one_error_line(workspace, capsys,
                                                       argv, name):
    sino = scan(workspace)
    command, *flags = argv
    source = {"project": ["--image", workspace / "ph.tomo"],
              "noise": ["--sino", sino]}[command]
    out = workspace / "out.tomo"
    capsys.readouterr()
    assert run([command, *source, "--out", out, *flags]) == 1
    assert name in one_error_line(capsys, "GeometryError")
    assert not out.exists()


@pytest.mark.parametrize("argv,kind", [
    (["train", "--mixer-d", "12", "--variant", "nope"], "ShapeError"),
    (["train", "--mixer-d", "12", "--phantoms", "0"], "ConfigError"),
    (["ood", "--count", "0"], "ConfigError"),
    (["ood", "--method", "qn-mixer", "--weights", "missing.ckpt"],
     "FileNotFoundError"),
    (["ood", "--count", "1", "--size", "5"], "ShapeError"),
], ids=["train-variant", "train-phantoms", "ood-count", "ood-weights",
        "ood-below-ssim-window"])
def test_refused_run_leaves_no_output_dir(workspace, capsys, monkeypatch,
                                          argv, kind):
    monkeypatch.chdir(workspace)
    command, *flags = argv  # a case's own flags come last, so they win
    # the checkpoint fixes the grid under qn-mixer, which refuses --size
    size = [] if "qn-mixer" in flags else ["--size", "16"]
    assert run([command, "--out-dir", "run", *size, "--views", "8",
                *flags]) == 1
    one_error_line(capsys, kind)
    assert not (workspace / "run").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--mixer-d", "12", "--phantoms", "1", "--steps", "1"],
    ["ood", "--count", "1"],
    ["ood", "--method", "gd", "--count", "1", "--iters", "1"],
], ids=["train", "ood-fbp", "ood-gd"])
def test_unknown_fbp_filter_is_refused_before_any_work(workspace, capsys,
                                                       monkeypatch, argv):
    monkeypatch.chdir(workspace)
    (workspace / "bogus.cfg").write_text("unroll.fbp_filter = bogus\n")
    command, *flags = argv
    assert run([command, "--out-dir", "run", "--size", "16", "--views", "8",
                "--config", "bogus.cfg", *flags]) == 1
    assert "unroll.fbp_filter" in one_error_line(capsys, "ConfigError")
    assert not (workspace / "run").exists()


def test_train_writes_checkpoints_and_loss_curve(workspace):
    out_dir = workspace / "run"
    assert run(["train", "--out-dir", out_dir, "--phantoms", "2",
                "--size", "32", "--views", "12", "--steps", "2",
                "--mixer-d", "12", "--epochs", "1", "--lr", "1e-3",
                "--seed", "1"]) == 0
    assert (out_dir / "loss.csv").exists()
    assert (out_dir / "resolved.cfg").exists()
    ckpts = list(out_dir.glob("epoch*.ckpt"))
    assert ckpts
    rows = read_rows(out_dir / "loss.csv")
    assert len(rows) == 2
    model = tr.model_from_checkpoint(ckpts[-1])
    assert model.mixer_config.d == 12


def test_train_honours_the_attenuation_cap(workspace):
    def checkpoint(cap):
        out = workspace / f"cap{cap}"
        assert run(["train", "--out-dir", out, "--phantoms", "1", "--size",
                    "16", "--views", "8", "--steps", "1", "--mixer-d", "12",
                    "--unroll-T", "1", "--poisson", "1e4", "--cap", cap]) == 0
        assert f"noise.attenuation_cap = {cap}\n" in \
            (out / "resolved.cfg").read_text()
        return (out / "epoch0000.ckpt").read_bytes()

    assert checkpoint("1.0") != checkpoint("4.0")


@pytest.mark.parametrize("shapes,bad,side", [
    (((16, 16), (32, 32)), "b", 16),
    (((16, 32), (16, 32)), "a", 16),
    (((0, 0), (0, 0)), "a", 0),
], ids=["mixed", "non-square", "empty"])
@pytest.mark.parametrize("command", ["train", "ood"])
def test_data_dir_image_of_another_size_is_one_error_line(
        workspace, capsys, monkeypatch, command, shapes, bad, side):
    # the first image fixes the grid, so it must be a non-empty square and
    # every other image the same square
    data = workspace / "data"
    data.mkdir()
    for name, shape in zip("ab", shapes):
        tio.write_tomo(data / f"{name}.tomo", np.ones(shape, np.float32),
                       tio.KIND_IMAGE)
    projected = []
    monkeypatch.setattr(geo, "forward_project",
                        lambda *args: projected.append(1))
    assert run([command, "--data-dir", data, "--out-dir", workspace / "run",
                "--views", "8"]) == 1
    err = one_error_line(capsys, "ShapeError")
    assert f"{bad}.tomo is (" in err and f"image.size is {side}" in err
    assert not projected and not (workspace / "run").exists()


@pytest.mark.parametrize("command,flags", [
    ("train", ["--steps", "1", "--mixer-d", "12", "--unroll-T", "1"]),
    ("ood", ["--method", "fbp"]),
], ids=["train", "ood"])
def test_data_dir_images_fix_the_image_grid(workspace, command, flags):
    # 32² images run at 32² without --size; the resolved config records the
    # grid, and a rerun from it writes the same bytes
    data = workspace / "data"
    data.mkdir()
    rng = np.random.default_rng(5)
    for name in "ab":
        tio.write_tomo(data / f"{name}.tomo",
                       rng.uniform(size=(32, 32)).astype(np.float32),
                       tio.KIND_IMAGE)
    first, again = workspace / "first", workspace / "again"
    assert run([command, "--data-dir", data, "--views", "8", *flags,
                "--out-dir", first]) == 0
    cfg = first / "resolved.cfg"
    assert "image.size = 32\n" in cfg.read_text()
    method = flags[:2] if command == "ood" else []
    assert run([command, "--data-dir", data, *method, "--config", cfg,
                "--out-dir", again]) == 0
    assert outputs(again) == outputs(first)
    if command == "train":
        model = tr.model_from_checkpoint(first / "epoch0000.ckpt")
        assert mx.image_shape(model.params, model.mixer_config) == (32, 32)


def test_eval_identical_dirs_gives_unit_ssim(workspace):
    recon = workspace / "recon"
    ref = workspace / "ref"
    recon.mkdir()
    ref.mkdir()
    rng = np.random.default_rng(2)
    for i in range(3):
        values = rng.uniform(size=(64, 64)).astype(np.float32)
        tio.write_tomo(recon / f"{i}.tomo", values, tio.KIND_IMAGE)
        tio.write_tomo(ref / f"{i}.tomo", values, tio.KIND_IMAGE)
    out = workspace / "metrics.csv"
    assert run(["eval", "--recon-dir", recon, "--ref-dir", ref,
                "--out", out]) == 0
    rows = read_rows(out)
    assert len(rows) == 3
    assert all(float(r["ssim"]) == 1.0 for r in rows)
    assert all(r["psnr_db"] == "inf" for r in rows)


def eval_dirs(workspace, noise):
    """recon/ and ref/ with three 32x32 pairs; recon = ref + noise."""
    recon, ref = workspace / "recon", workspace / "ref"
    recon.mkdir()
    ref.mkdir()
    rng = np.random.default_rng(4)
    for i in range(3):
        values = rng.uniform(size=(32, 32)).astype(np.float32)
        noisy = values + noise * rng.normal(size=values.shape)
        tio.write_tomo(recon / f"{i}.tomo", noisy.astype(np.float32),
                       tio.KIND_IMAGE)
        tio.write_tomo(ref / f"{i}.tomo", values, tio.KIND_IMAGE)
    return ["eval", "--recon-dir", recon, "--ref-dir", ref,
            "--out", workspace / "metrics.csv"]


@pytest.mark.parametrize("noise,summary", [
    (0.05, "PSNR 26.07+-0.15 dB, SSIM 0.9846"),
    (0.0, "PSNR inf+-nan dB, SSIM 1.0000"),
], ids=["noisy", "identical"])
def test_eval_prints_mean_and_spread_of_the_scores(workspace, capsys, noise,
                                                   summary):
    argv = eval_dirs(workspace, noise)
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == \
        f"wrote {workspace / 'metrics.csv'}: 3 images, {summary}\n"


@pytest.mark.parametrize("flags,kind", [
    (["--data-range", "0"], "ShapeError"),
    (["--data-range", "nan"], "ShapeError"),
    (["--data-range", "inf"], "ShapeError"),
    (["--data-range", "-1"], "ShapeError"),
    (["--msssim-levels", "-1"], "ConfigError"),
    (["--msssim-levels", "6"], "ConfigError"),
], ids=["range-zero", "range-nan", "range-inf", "range-negative",
        "levels-negative", "levels-six"])
def test_bad_eval_setting_is_one_error_line(workspace, capsys, flags, kind):
    argv = eval_dirs(workspace, 0.05)
    capsys.readouterr()
    assert run([*argv, *flags]) == 1
    one_error_line(capsys, kind)
    assert not (workspace / "metrics.csv").exists()


def test_nps_curve_columns(workspace):
    noise_dir = workspace / "noise"
    noise_dir.mkdir()
    rng = np.random.default_rng(3)
    for i in range(2):
        tio.write_tomo(noise_dir / f"{i}.tomo",
                       rng.normal(0, 0.1, size=(64, 64)).astype(np.float32),
                       tio.KIND_IMAGE)
    out = workspace / "nps.csv"
    assert run(["nps", "--dir", noise_dir, "--out", out,
                "--map", workspace / "map.tomo"]) == 0
    rows = read_rows(out)
    assert set(rows[0]) == {"freq_cycles_per_px", "nps_hu2px2"}
    assert (workspace / "map.tomo").exists()


def test_ood_protocol_reproducible(workspace):
    out_a = workspace / "ood_a"
    out_b = workspace / "ood_b"
    for out in (out_a, out_b):
        assert run(["ood", "--out-dir", out, "--method", "fbp", "--count",
                    "2", "--views", "16", "--seed", "5"]) == 0
    assert (out_a / "ood.csv").read_bytes() == (out_b / "ood.csv").read_bytes()
    assert (out_a / "000_mask.tomo").read_bytes() == \
        (out_b / "000_mask.tomo").read_bytes()
    rows = read_rows(out_a / "ood.csv")
    assert set(rows[0]) == {"image_id", "full_psnr", "full_ssim",
                            "crop_psnr", "crop_ssim"}


def test_ood_small_images_score_every_crop(workspace):
    # on 16x16 images the disks are small and the padded box meets the
    # border; the crop widens to the 11-pixel SSIM window
    out = workspace / "ood16"
    assert run(["ood", "--out-dir", out, "--method", "fbp", "--size", "16",
                "--count", "6"]) == 0
    rows = read_rows(out / "ood.csv")
    assert len(rows) == 6
    for row in rows:
        assert 0.0 < float(row["crop_ssim"]) <= 1.0


@pytest.mark.parametrize("size", ["1", "2"])
def test_ood_image_too_small_for_a_disk_is_one_error_line(workspace, capsys,
                                                          size):
    assert run(["ood", "--out-dir", workspace / "ood", "--size", size,
                "--count", "1"]) == 1
    assert f"({size}, {size})" in one_error_line(capsys, "ShapeError")


@pytest.mark.parametrize("kind", ["MemoryGuardError", "MemoryError"])
def test_a_build_past_memory_is_one_error_line(workspace, capsys, monkeypatch,
                                               scan_cache_dir, kind):
    # fbp builds its FBP matrix in this process: refused by the scan-matrix
    # guard, or failing for want of memory
    sino = scan(workspace)
    geo._scan_matrix.cache_clear()
    if kind == "MemoryGuardError":
        monkeypatch.setattr(geo, "SCAN_MATRIX_BYTE_LIMIT", 1)
    else:
        def no_memory(*args):
            raise MemoryError("Unable to allocate 54.0 GiB")
        monkeypatch.setattr(geo, "_assemble", no_memory)
    capsys.readouterr()
    out = workspace / "r.tomo"
    assert run(["fbp", "--sino", sino, "--out", out]) == 1
    one_error_line(capsys, kind)
    assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_usage_block_parses():
    # every qnct line of README's CLI block, continuations joined, parses
    # with today's flags, and the block shows every command
    block = README.read_text().split("\n## CLI\n")[1].split("```\n")[1]
    lines = block.replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line)[1:] for line in lines
             if line.startswith("qnct ")]
    parser = build_parser()
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail("README's line does not parse: qnct " + " ".join(argv))
    assert {argv[0] for argv in argvs} == set(subcommands())


def test_unknown_flag_exits_nonzero_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["phantom", "--nope", "--out", "x.tomo"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error usage:") and err.count("\n") == 1


def test_ood_qn_mixer_requires_weights(workspace, capsys):
    code = run(["ood", "--out-dir", workspace / "ood", "--method", "qn-mixer",
                "--count", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error QnctError:") and err.count("\n") == 1


def test_ood_empty_data_dir_is_one_error_line(workspace, capsys):
    empty = workspace / "empty"
    empty.mkdir()
    code = run(["ood", "--out-dir", workspace / "ood", "--data-dir", empty])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error QnctError:") and err.count("\n") == 1
    assert not (workspace / "ood" / "ood.csv").exists()


def test_nps_reference_shape_mismatch_is_one_error_line(workspace, capsys):
    noise_dir = workspace / "noise"
    ref_dir = workspace / "ref"
    noise_dir.mkdir()
    ref_dir.mkdir()
    tio.write_tomo(noise_dir / "0.tomo", np.zeros((64, 64), np.float32),
                   tio.KIND_IMAGE)
    tio.write_tomo(ref_dir / "0.tomo", np.zeros((32, 32), np.float32),
                   tio.KIND_IMAGE)
    code = run(["nps", "--dir", noise_dir, "--ref-dir", ref_dir,
                "--out", workspace / "nps.csv"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error ShapeError:") and err.count("\n") == 1


@pytest.mark.parametrize("shapes", [((32, 32), (16, 16)), ((16, 16), (32, 32)),
                                    ((32, 32), (32, 16)), ((32, 16), (32, 16))],
                         ids=["smaller", "larger", "non-square", "first"])
def test_nps_refuses_an_image_off_the_first_ones_square(workspace, capsys,
                                                       shapes):
    noise_dir = workspace / "noise"
    noise_dir.mkdir()
    for name, shape in zip("ab", shapes):
        tio.write_tomo(noise_dir / f"{name}.tomo",
                       np.zeros(shape, np.float32), tio.KIND_IMAGE)
    out = workspace / "nps.csv"
    code = run(["nps", "--dir", noise_dir, "--out", out])
    err = capsys.readouterr().err
    square = (shapes[0][0],) * 2
    bad = next(i for i, shape in enumerate(shapes) if shape != square)
    assert code == 1 and err.startswith("error ShapeError:")
    assert err.count("\n") == 1 and f"{'ab'[bad]}.tomo" in err
    assert str(shapes[bad]) in err and str(square) in err
    assert not out.exists()


@pytest.mark.parametrize("argv,name", [
    (["--method", "gd", "--step", "nan"], "step"),
    (["--method", "gd", "--step", "inf"], "step"),
    (["--method", "gd", "--lam", "nan"], "lam"),
    (["--method", "gd", "--mu", "inf"], "mu"),
    (["--method", "qn", "--mu", "nan"], "mu"),
    (["--method", "qn", "--reg", "smoothed_tv", "--delta", "nan"], "delta"),
], ids=["step-nan", "step-inf", "lam", "mu-gd", "mu-qn", "delta"])
def test_non_finite_solver_parameter_is_one_error_line(workspace, capsys,
                                                       argv, name):
    sino = scan(workspace)
    capsys.readouterr()
    rec = workspace / "r.tomo"
    assert run(["reconstruct", "--sino", sino, "--iters", "2",
                "--out", rec, *argv]) == 1
    assert name in one_error_line(capsys, "ShapeError")
    assert not rec.exists()


@pytest.mark.parametrize("method,names", [
    ("gd", ["reference"]), ("qn", ["weights"]), ("gd", ["intermediates-dir"]),
    ("qn", ["reference", "weights", "intermediates-dir"]),
], ids=["reference", "weights", "intermediates", "all"])
def test_classical_reconstruct_refuses_qn_mixer_flags(workspace, capsys,
                                                      method, names):
    sino = scan(workspace)
    capsys.readouterr()
    rec = workspace / "r.tomo"
    # none of the named paths exists, and none may be created
    flags = [a for name in names for a in (f"--{name}", workspace / name)]
    assert run(["reconstruct", "--method", method, "--sino", sino,
                "--iters", "1", "--out", rec, *flags]) == 1
    err = one_error_line(capsys, "ConfigError")
    assert all(f"--{name}" in err for name in names)
    assert not rec.exists()
    assert not any((workspace / name).exists() for name in names)


@pytest.mark.parametrize("method", ["fbp", "gd", "qn"])
def test_classical_ood_refuses_weights(workspace, capsys, method):
    out_dir = workspace / "o"
    assert run(["ood", "--out-dir", out_dir, "--method", method,
                "--weights", workspace / "nope.ckpt", "--count", "1",
                "--iters", "1", "--size", "32", "--views", "16"]) == 1
    assert "--weights" in one_error_line(capsys, "ConfigError")
    assert not out_dir.exists()


@pytest.mark.parametrize("method", ["fbp", "gd", "qn"])
def test_ood_classical_methods_honour_the_fbp_filter(workspace, method):
    # ood's FBP, and the gd/qn start image, use unroll.fbp_filter as
    # reconstruct does: one iteration of each from the same truth matches
    cfg = workspace / "hann.cfg"
    cfg.write_text("unroll.fbp_filter = hann\n")
    iters = [] if method == "fbp" else ["--iters", "1"]
    out = workspace / "ood"
    assert run(["ood", "--out-dir", out, "--method", method, "--count", "1",
                *iters, "--config", cfg, "--size", "32", "--views", "16"]) == 0
    sino = workspace / "s.tomo"
    assert run(["project", "--image", out / "000_truth.tomo", "--out", sino,
                "--views", "16"]) == 0
    rec = workspace / "r.tomo"
    if method == "fbp":
        argv = ["fbp", "--sino", sino, "--out", rec, "--config", cfg]
    else:
        argv = ["reconstruct", "--method", method, "--sino", sino,
                "--out", rec, "--iters", "1", "--config", cfg]
    assert run([*argv, "--size", "32"]) == 0
    assert tio.read_tomo(out / "000_recon.tomo")[0].tobytes() == \
        tio.read_tomo(rec)[0].tobytes()


# options that set no config key, each with the reason a rerun from the
# resolved config passes it again or does without it
NOT_CONFIG_FLAGS = {
    "--help": "prints usage and exits",
    "--config": "the config file itself",
    "--method": "names the command's path; a rerun passes it again",
    "--trace": "an output path",
    "--out": "an output path",
    "--out-dir": "an output directory",
    "--map": "an output path",
    "--intermediates-dir": "an output directory",
    "--image": "an input path",
    "--sino": "an input path",
    "--weights": "an input checkpoint, whose model keys are recorded",
    "--reference": "an input image",
    "--data-dir": "an input directory",
    "--recon-dir": "an input directory",
    "--ref-dir": "an input directory",
    "--dir": "an input directory",
}


def subcommands():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_every_option_sets_a_config_key_or_names_a_path():
    keys = cfgmod.default_config()
    bypass, seen = [], set()
    for command, parser in subcommands().items():
        table = parser.get_default("cfg_flags")
        for action in parser._actions:
            named = set(action.option_strings) & set(NOT_CONFIG_FLAGS)
            seen |= named
            flag = action.dest.removeprefix("cfg_")
            if not named and not (action.dest == f"cfg_{flag}"
                                  and table[flag][0] in keys):
                bypass.append(f"{command} {action.option_strings[-1]}")
    assert not bypass, "flags the resolved config does not record: " + \
        ", ".join(bypass)
    assert seen == set(NOT_CONFIG_FLAGS), "allowlisted but absent: " + \
        ", ".join(sorted(set(NOT_CONFIG_FLAGS) - seen))


class ReadLog(dict):
    """A config that adds each key read from it to reads, unless the run
    set that key first (to a value its inputs fix), which adds it to
    derived."""

    def __init__(self, cfg, reads, derived):
        super().__init__(cfg)
        self.reads, self.derived = reads, derived

    def __setitem__(self, key, value):
        self.derived.add(key)
        super().__setitem__(key, value)

    def __getitem__(self, key):
        if key not in self.derived:
            self.reads.add(key)
        return super().__getitem__(key)


# every command's values come from this file, so its runs give no flag:
# a fan beam (SAD/ADD are read) and random ellipses (phantom reads seed)
AUDIT_CONFIG = """\
geometry.beam = fan
geometry.n_views_full = 24
geometry.n_det = 24
geometry.views = 8
geometry.image_extent_mm = 32.0
image.size = 16
phantom.kind = random-ellipses
solver.iters = 1
train.phantoms = 1
train.max_steps = 1
mixer.d = 12
unroll.T = 1
ood.count = 1
"""


def audit_runs(workspace):
    """(label, command, argv without an output) for one run of each
    command, and of each --method, on 16² inputs made under AUDIT_CONFIG,
    then for the settings that leave keys unread which those runs read: a
    Shepp-Logan phantom, a parallel beam and --data-dir. The output flag
    comes last."""
    cfg = workspace / "audit.cfg"
    cfg.write_text(AUDIT_CONFIG)
    images = workspace / "images"
    images.mkdir()
    ph, sino = images / "ph.tomo", workspace / "s.tomo"
    weights = workspace / "cold.ckpt"
    assert run(["phantom", "--config", cfg, "--out", ph]) == 0
    (images / "ph.tomo.cfg").unlink()
    assert run(["project", "--config", cfg, "--image", ph, "--out", sino]) == 0
    make_cold_checkpoint(weights, size=16)

    def mixer(method):
        return ["--weights", weights] if method == "qn-mixer" else []

    runs = {"phantom": ["--out"],
            "project": ["--image", ph, "--out"],
            "fbp": ["--sino", sino, "--out"],
            "noise": ["--sino", sino, "--out"]}
    for method in ("gd", "qn", "qn-mixer"):
        runs[f"reconstruct/{method}"] = ["--method", method, "--sino", sino,
                                         *mixer(method), "--out"]
    runs["train"] = ["--out-dir"]
    runs["eval"] = ["--recon-dir", images, "--ref-dir", images, "--out"]
    runs["nps"] = ["--dir", images, "--out"]
    for method in ("fbp", "gd", "qn", "qn-mixer"):
        runs[f"ood/{method}"] = ["--method", method, *mixer(method),
                                 "--out-dir"]
    for label, argv in runs.items():
        yield label, label.split("/")[0], argv
    yield "phantom shepp-logan", "phantom", ["--kind", "shepp-logan",
                                             *runs["phantom"]]
    for label in ("project", "fbp", "reconstruct/gd", "train", "ood/fbp"):
        yield f"{label} parallel", label.split("/")[0], \
            ["--beam", "parallel", *runs[label]]
    for label in ("train", "ood/fbp"):
        yield f"{label} --data-dir", label.split("/")[0], \
            ["--data-dir", images, *runs[label]]


def test_every_flag_is_read_or_refused_by_its_method(workspace, capsys,
                                                     monkeypatch):
    # one run of each command, --method and unread-making setting logs the
    # config keys its body reads; then each declared flag whose key it did
    # not read must be refused, with one ConfigError line naming flag and
    # key, and no output. A key the body sets from an input (the grid of a
    # checkpoint or of --data-dir) before reading it is not read.
    reads, derived = set(), set()
    resolve, write = cli._resolve, cli._write_resolved
    from_config = cfgmod.geometry_from_config
    monkeypatch.setattr(cli, "_resolve",
                        lambda args: ReadLog(resolve(args), reads, derived))
    # writing the resolved config reads every key, so it reads a copy
    monkeypatch.setattr(cli, "_write_resolved",
                        lambda cfg, *rest: write(dict(cfg), *rest))
    # train builds its full-view scan from a copy of its config
    monkeypatch.setattr(cfgmod, "geometry_from_config",
                        lambda cfg: from_config(ReadLog(cfg, reads, derived)))
    cfg = workspace / "audit.cfg"
    values = cfgmod.resolve_config(AUDIT_CONFIG, {})
    outs = (workspace / f"out{n}" for n in itertools.count())
    parsers = subcommands()
    unread = []
    for label, command, argv in list(audit_runs(workspace)):
        reads.clear()
        derived.clear()
        assert run([command, "--config", cfg, *argv, next(outs)]) == 0, \
            capsys.readouterr().err
        read = set(reads)
        for flag, (key, _) in parsers[command].get_default(
                "cfg_flags").items():
            if key in read:
                continue
            name = "--" + flag.replace("_", "-")
            out = next(outs)
            capsys.readouterr()
            code = run([command, "--config", cfg, name, values[key],
                        *argv, out])
            err = capsys.readouterr().err
            if not (code == 1 and err.startswith("error ConfigError:")
                    and err.count("\n") == 1 and name in err and key in err
                    and not out.exists()):
                unread.append(f"{label} {name}")
    assert not unread, f"{len(unread)} flags neither read nor refused: " + \
        ", ".join(unread)


@pytest.mark.parametrize("argv,name,key", [
    (["noise", "--cap", "2"], "--cap", "noise.attenuation_cap"),
    (["noise", "--gauss-frac", "0.05", "--cap", "2"], "--cap",
     "noise.attenuation_cap"),
    (["train", "--cap", "2"], "--cap", "noise.attenuation_cap"),
    (["noise", "--seed", "3"], "--seed", "seed"),
    (["reconstruct", "--method", "gd", "--delta", "0.01"], "--delta",
     "solver.delta"),
    (["reconstruct", "--method", "qn", "--delta", "0.01"], "--delta",
     "solver.delta"),
    (["train", "--variant", "first-order", "--unroll-k", "3"], "--unroll-k",
     "unroll.k"),
    (["reconstruct", "--method", "gd", "--mu", "0", "--reg", "smoothed_tv"],
     "--reg", "solver.reg"),
    (["reconstruct", "--method", "qn", "--mu", "0", "--delta", "0.01"],
     "--delta", "solver.delta"),
], ids=["noise-cap", "noise-gauss-cap", "train-cap", "noise-seed", "gd-delta",
        "qn-delta", "first-order-k", "gd-mu0-reg", "qn-mu0-delta"])
def test_a_flag_the_run_leaves_unread_is_refused(workspace, capsys, argv,
                                                 name, key):
    # the CLI reads these keys, so the read-or-refused guard cannot see
    # them: without count noise the cap is unused, without any noise the
    # seed, the TV corner under Tikhonov, the regularizer under mu 0, and
    # the codec depth without a codec
    command, *flags = argv
    out = workspace / "out"
    setup = {"noise": lambda: ["--sino", scan(workspace), "--out", out],
             "reconstruct": lambda: ["--sino", scan(workspace), "--iters",
                                     "1", "--out", out],
             "train": lambda: ["--out-dir", out, "--phantoms", "1", "--size",
                               "16", "--views", "8", "--steps", "1",
                               "--mixer-d", "12"]}[command]()
    capsys.readouterr()
    assert run([command, *setup, *flags]) == 1
    err = one_error_line(capsys, "ConfigError")
    assert name in err and key in err
    assert not out.exists()


def outputs(path):
    """name -> bytes of an output file and its resolved config, or of every
    file under an output directory."""
    if path.is_dir():
        return {p.relative_to(path).as_posix(): p.read_bytes()
                for p in sorted(path.rglob("*")) if p.is_file()}
    return {suffix: path.with_name(path.name + suffix).read_bytes()
            for suffix in ("", ".cfg")}


@pytest.mark.parametrize("argv,out_flag,given", [
    (["phantom", "--kind", "random-ellipses", "--seed", "7", "--size", "32"],
     "--out", []),
    (["reconstruct", "--iters", "7", "--lam", "2", "--reg", "smoothed_tv",
      "--mu", "0.02", "--delta", "0.01"],
     "--out", ["--method", "gd", "--sino"]),
    (["reconstruct", "--iters", "5", "--line-search", "exact-quadratic",
      "--mu", "0.1"], "--out", ["--method", "qn", "--sino"]),
    (["reconstruct", "--iters", "4", "--step", "1e-5"],
     "--out", ["--method", "gd", "--sino"]),
    (["ood", "--count", "2", "--value", "0.7", "--iters", "3", "--size", "32",
      "--views", "16"], "--out-dir", ["--method", "qn"]),
    (["train", "--phantoms", "3", "--steps", "2", "--size", "16", "--views",
      "8", "--unroll-T", "2", "--mixer-d", "12"], "--out-dir", []),
], ids=["phantom", "gd-smoothed-tv", "qn-exact-quadratic", "gd-step", "ood-qn",
        "train"])
def test_every_command_reruns_from_its_resolved_config(workspace, argv,
                                                       out_flag, given):
    # a rerun passes only its paths and --method; every other value comes
    # from the resolved config the first run wrote
    command, *flags = argv
    if given[-1:] == ["--sino"]:
        given = [*given, scan(workspace)]
    first, again = workspace / "first", workspace / "again"
    if out_flag == "--out":
        first, again = first.with_suffix(".tomo"), again.with_suffix(".tomo")
    assert run([command, *flags, *given, out_flag, first]) == 0
    cfg = first / "resolved.cfg" if first.is_dir() \
        else first.with_name(first.name + ".cfg")
    assert run([command, *given, "--config", cfg, out_flag, again]) == 0
    assert outputs(again) == outputs(first)


@pytest.mark.parametrize("argv,key", [
    (["reconstruct", "--method", "gd", "--line-search", "nope"],
     "solver.line_search"),
    (["reconstruct", "--method", "qn", "--line-search", "nope"],
     "solver.line_search"),
    (["reconstruct", "--method", "qn", "--line-search", "fixed"],
     "solver.line_search"),
    (["reconstruct", "--method", "qn", "--line-search", "armijo"],
     "solver.line_search"),
    (["reconstruct", "--method", "gd", "--reg", "nope"], "solver.reg"),
    (["reconstruct", "--method", "gd", "--reg", "none"], "solver.reg"),
    (["reconstruct", "--method", "gd", "--iters", "abc"], "solver.iters"),
    (["phantom", "--kind", "nope"], "phantom.kind"),
], ids=["line-search-gd", "line-search-qn", "line-search-fixed",
        "line-search-armijo", "reg", "reg-none", "iters", "kind"])
def test_bad_solver_or_phantom_value_is_one_error_line(workspace, capsys,
                                                       argv, key):
    out = workspace / "out.tomo"
    if argv[0] == "reconstruct":
        argv = [*argv, "--sino", scan(workspace)]
    capsys.readouterr()
    assert run([*argv, "--out", out]) == 1
    assert key in one_error_line(capsys, "ConfigError")
    assert not out.exists()
    assert not out.with_name(out.name + ".cfg").exists()


def test_solver_keys_come_from_the_config_file_and_flags_override(workspace):
    sino = scan(workspace)
    cfg = workspace / "mu.cfg"
    cfg.write_text("solver.mu = 0.5\n")

    def reconstruct(name, *flags):
        out = workspace / name
        assert run(["reconstruct", "--method", "gd", "--sino", sino,
                    "--iters", "3", "--out", out, *flags]) == 0
        return out.read_bytes()

    from_file = reconstruct("file.tomo", "--config", cfg)
    assert "solver.mu = 0.5\n" in (workspace / "file.tomo.cfg").read_text()
    assert from_file == reconstruct("flag.tomo", "--mu", "0.5")
    overridden = reconstruct("over.tomo", "--config", cfg, "--mu", "0.05")
    assert overridden == reconstruct("default.tomo")
    assert overridden != from_file


@pytest.mark.parametrize("method", ["gd", "qn"])
def test_mu_0_is_no_regularizer_whatever_the_kind(workspace, method):
    sino = scan(workspace)
    images = set()
    for reg in cli._CHOICES["solver.reg"]:
        # --reg is refused under --mu 0; a config file may set any key
        cfg = workspace / f"{reg}.cfg"
        cfg.write_text(f"solver.reg = {reg}\n")
        out = workspace / f"{reg}.tomo"
        assert run(["reconstruct", "--method", method, "--sino", sino,
                    "--iters", "3", "--config", cfg, "--mu", "0",
                    "--out", out]) == 0
        images.add(out.read_bytes())
    assert len(images) == 1


def test_ood_gd_estimates_its_step_once(workspace, monkeypatch):
    calls = []
    project = geo.forward_project
    monkeypatch.setattr(geo, "forward_project",
                        lambda *args: calls.append(1) or project(*args))
    assert run(["ood", "--out-dir", workspace / "ood", "--method", "gd",
                "--count", "2", "--iters", "1", "--size", "32",
                "--views", "16"]) == 0
    # per image: its own projection and gd's two iterates; once per run:
    # the step's nine power-iteration projections
    assert len(calls) == 2 * (1 + 2) + 9
