"""The benchmark's tracer wraps qnct functions by name; each must exist.

perfbench/tracing.py lists (metric, module, attribute path) targets and
replaces each with a timing wrapper. A refactor that renames or drops one
breaks every traced benchmark run, so this checks them without running one.
A refactor that stops calling one would leave its spans empty, so the
geometry targets' call counts are checked on a small solve and train step.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qnct import autodiff as ad
from qnct import geometry as geo
from qnct import mixer as mx
from qnct import solvers
from qnct import unroll as ur
from qnct.phantoms import shepp_logan

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("name,module,path", tracing.TARGETS,
                         ids=[f"{m}.{p}" for _, m, p in tracing.TARGETS])
def test_every_traced_target_resolves_to_a_callable(name, module, path):
    owner, key, is_item = tracing._resolve(
        importlib.import_module(f"qnct.{module}"), path)
    # the tracer reads the owner's own entry, never an inherited one
    target = owner[key] if is_item else owner.__dict__[key]
    assert callable(target), f"{module}.{path} is {target!r}"


GEOMETRY_TARGETS = tuple(t for t in tracing.TARGETS if t[1] == "geometry")


def traced_geometry_calls(run) -> dict:
    """{metric: calls} of perfbench's geometry spans while run() runs."""
    tracer = tracing.Tracer({"geometry": geo}, GEOMETRY_TARGETS)
    with tracer.op():
        run()
    return dict(tracer.counts)


def test_solvers_and_unrolled_step_call_the_traced_geometry_functions():
    """Every projection goes through the four module functions, so a
    refactor that calls the matrices directly fails here instead of
    leaving perfbench's geometry.* spans empty."""
    g = geo.Geometry(n_views_full=60, n_det=48, det_spacing_mm=2.0,
                     image_extent_mm=48.0,
                     view_subset=geo.uniform_view_subset(60, 8))
    sino = geo.forward_project(geo.Image(shepp_logan(16), g.pixel_mm(16)), g)
    spec = solvers.ObjectiveSpec.for_geometry(
        g, sino, 16, 16, regularizer=solvers.Regularizer("tikhonov", mu=0.1))
    # x0 and each iteration's direction d are projected once, and every
    # strong-Wolfe trial reuses A d; the gradient is formed at x0 and at
    # the three accepted points
    assert traced_geometry_calls(
        lambda: solvers.qn_reconstruct(spec, np.zeros((16, 16)), 3)) == {
        "geometry.forward_project.calls": 4,
        "geometry.back_project.calls": 4}
    # gradient descent projects each of its 31 iterates once, forward and
    # back
    assert traced_geometry_calls(
        lambda: solvers.gradient_descent(spec, np.zeros((16, 16)), 1e-3,
                                         30)) == {
        "geometry.forward_project.calls": 31,
        "geometry.back_project.calls": 31}

    model = ur.QnMixerModel.build(
        16, 16, 1, mx.MixerConfig(patch=4, d=12, n_layers=1),
        ur.UnrollConfig(T=2, codec=ur.CodecConfig(1, 4)))

    def step():
        x = ur.unrolled_forward(sino.values, g, model, 16, 16)
        ad.backward(ad.mean(ad.mul(x, x)))

    # forward: x0 = FBP y, then A and FBP in the learned gradient at x0 and
    # x1 (none at the last iterate); backward: only x1's gradient depends
    # on parameters, so Aᵀ and FBPᵀ run once each
    assert traced_geometry_calls(step) == {
        "geometry.fbp.calls": 3, "geometry.forward_project.calls": 2,
        "geometry.back_project.calls": 1, "geometry.fbp_transpose.calls": 1}
