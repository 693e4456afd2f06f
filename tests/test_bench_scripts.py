"""Smoke test of the checked-in benchmark scripts, so they cannot rot."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from qnct import geometry as geo
from qnct import solvers
from qnct.phantoms import shepp_logan

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def bench_metrics(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    yield importlib.import_module("bench_metrics")
    for name in ("bench_metrics", "bench_kernels"):
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
