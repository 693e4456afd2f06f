import re

import numpy as np
import pytest

from qnct import config as cfgmod
from qnct import geometry as geo
from qnct import tomo_io as tio
from qnct.errors import ConfigError, GeometryError, QnctError


class TestTomoFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(17, 23)).astype(np.float32)
        path = tmp_path / "x.tomo"
        tio.write_tomo(path, values, tio.KIND_IMAGE)
        back, kind = tio.read_tomo(path)
        assert kind == tio.KIND_IMAGE
        assert np.array_equal(back.view(np.uint32), values.view(np.uint32))

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.tomo"
        tio.write_tomo(path, np.zeros((2, 3), np.float32), tio.KIND_SINOGRAM)
        blob = path.read_bytes()
        assert blob[:4] == b"TOMO"
        assert blob[4] == 1  # version
        assert blob[5] == 1  # sinogram kind
        assert blob[6:8] == b"\x00\x00"  # reserved
        assert int.from_bytes(blob[8:12], "little") == 2
        assert int.from_bytes(blob[12:16], "little") == 3
        assert len(blob) == 16 + 2 * 3 * 4

    def test_bad_files(self, tmp_path):
        path = tmp_path / "bad.tomo"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(QnctError, match="magic"):
            tio.read_tomo(path)
        path.write_bytes(b"TOMO")
        with pytest.raises(QnctError, match="truncated"):
            tio.read_tomo(path)
        with pytest.raises(QnctError, match="kind"):
            tio.write_tomo(tmp_path / "k.tomo", np.zeros((2, 2)), 7)

    @pytest.mark.parametrize("rows,cols", [(0xFFFFFFFF, 0xFFFFFFFF), (2, 4)])
    def test_header_larger_than_file(self, tmp_path, rows, cols):
        path = tmp_path / "big.tomo"
        tio.write_tomo(path, np.zeros((2, 3), np.float32), tio.KIND_IMAGE)
        blob = bytearray(path.read_bytes())
        blob[8:16] = rows.to_bytes(4, "little") + cols.to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(QnctError, match=f"{rows}x{cols} values"):
            tio.read_tomo(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "k.tomo"
        tio.write_tomo(path, np.zeros((2, 2), np.float32), tio.KIND_IMAGE)
        blob = bytearray(path.read_bytes())
        blob[5] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(QnctError, match="kind 7"):
            tio.read_tomo(path)


class TestCsv:
    def test_round_trip(self, tmp_path):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": -1.0}]
        path = tmp_path / "t.csv"
        tio.write_csv(path, rows, ("a", "b"))
        back = tio.read_csv(path)
        assert back == [{"a": "1", "b": "2.5"}, {"a": "3", "b": "-1.0"}]


class TestConfig:
    def test_round_trip(self):
        cfg = cfgmod.default_config()
        cfg["geometry.views"] = 32
        text = cfgmod.format_config(cfg)
        back = cfgmod.parse_config(text)
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            cfgmod.parse_config("not.a.key = 1")

    def test_removed_pseudo_inverse_key_rejected(self):
        # resolved configs once recorded it; every model now starts from FBP
        with pytest.raises(ConfigError,
                           match="unknown key 'unroll.pseudo_inverse'"):
            cfgmod.resolve_config("unroll.pseudo_inverse = fbp\n", {})

    def test_schema_docstring_names_every_key(self):
        # entry lines start at column 2 and list their keys before the
        # description, " / " between keys; continuation lines indent further
        named = []
        for line in cfgmod.__doc__.splitlines():
            if line.startswith("  ") and not line.startswith("   "):
                entry = re.match(r"[\w.]+(?: / [\w.]+)*", line[2:]).group()
                named.extend(entry.split(" / "))
        assert sorted(named) == sorted(cfgmod.default_config())

    def test_type_coercion_errors(self):
        with pytest.raises(ConfigError, match="integer"):
            cfgmod.parse_config("image.size = sixty")
        with pytest.raises(ConfigError, match="number"):
            cfgmod.parse_config("train.lr = fast")

    def test_comments_and_blanks(self):
        cfg = cfgmod.parse_config("# comment\n\nimage.size = 32\n")
        assert cfg["image.size"] == 32

    def test_beam_aware_defaults(self):
        cfg = cfgmod.resolve_config(None, {"geometry.beam": "fan"})
        assert cfg["geometry.angular_end"] == pytest.approx(2 * np.pi)
        assert cfg["geometry.det_spacing_mm"] == 3.0
        cfg = cfgmod.resolve_config("geometry.det_spacing_mm = 2.5",
                                    {"geometry.beam": "fan"})
        assert cfg["geometry.det_spacing_mm"] == 2.5

    def test_geometry_from_config(self):
        cfg = cfgmod.default_config()
        cfg["geometry.views"] = 32
        g = cfgmod.geometry_from_config(cfg)
        assert g.n_views == 32
        np.testing.assert_array_equal(g.view_angles()[:3],
                                      np.pi / 180 * np.array([0, 6, 11]))
        # the same scan subsample_views keeps from a full-view scan
        full = cfgmod.geometry_from_config({**cfg, "geometry.views": 0})
        _, sub = geo.subsample_views(
            geo.Sinogram(np.zeros((180, 96), dtype=np.float32)), full, 32)
        assert g == sub
        cfg["geometry.views"] = 300
        with pytest.raises(GeometryError, match="cannot keep 300 of 180"):
            cfgmod.geometry_from_config(cfg)

    @pytest.mark.parametrize("views", [1, 7, 23, None])
    @pytest.mark.parametrize("scan", [
        geo.desk_geometry, lambda n: geo.desk_geometry(geo.FAN, n),
        lambda n: geo.Geometry(angular_range=(0.0, np.pi / 2.0),
                               n_views_full=45, n_views=n),
        geo.paper_geometry,
    ], ids=["parallel", "fan", "limited-angle", "paper"])
    def test_a_scan_round_trips_through_the_config(self, scan, views):
        # every field written as its geometry.* key and read back gives the
        # same scan, with the same disk-cache key
        g = scan(views)
        start, end = g.angular_range
        keys = {"beam": g.beam, "n_views_full": g.n_views_full,
                "n_det": g.n_det, "angular_start": start, "angular_end": end,
                "det_spacing_mm": g.det_spacing_mm,
                "image_extent_mm": g.image_extent_mm, "views": g.n_views}
        if g.beam == geo.FAN:
            keys.update(sad_mm=g.sad_mm, add_mm=g.add_mm)
        text = "".join(f"geometry.{k} = {v}\n" for k, v in keys.items())
        back = cfgmod.geometry_from_config(cfgmod.resolve_config(text, {}))
        assert back == g
        assert geo._cache_key("b", back, 8, 8) == geo._cache_key("b", g, 8, 8)

    def test_fan_geometry_from_config(self):
        cfg = cfgmod.resolve_config(None, {"geometry.beam": "fan"})
        g = cfgmod.geometry_from_config(cfg)
        assert g.beam == geo.FAN
        assert g.sad_mm == 300.0

    @pytest.mark.parametrize("beam", [geo.PARALLEL, geo.FAN])
    def test_default_scan_is_the_desk_scan(self, beam):
        cfg = cfgmod.default_config(beam)
        assert cfgmod.geometry_from_config(cfg) == geo.desk_geometry(beam)
        # a parallel config still holds the fan scan's SAD/ADD, as floats
        fan = geo.desk_geometry(geo.FAN)
        assert (cfg["geometry.sad_mm"], cfg["geometry.add_mm"]) == \
            (fan.sad_mm, fan.add_mm)
        assert all(type(cfg[f"geometry.{key}"]) is float for key in (
            "angular_start", "angular_end", "det_spacing_mm",
            "image_extent_mm", "sad_mm", "add_mm"))
