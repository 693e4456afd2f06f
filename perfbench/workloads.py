"""The four benchmark workloads, driven through the public qnct API.

Each workload builds its inputs from the seed in ``setup`` (timed by
phase), then runs one op per ``op(i)`` call and checks the op's outputs
in ``check``. Workloads only call qnct; they never patch it.

Desk scale throughout: 64x64 images, 96 detectors, 180 full views,
Poisson 1e6 plus Gaussian 0.05 measurement noise, random-ellipse phantoms.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

POISSON = 1e6
GAUSS_FRAC = 0.05
LR = 1e-3
# Relative dot-test gap allowed for A/A^T and FBP/FBP^T (acceptance
# criterion 1's tolerance).
DOT_TOL = 1e-5
# Held-out phantoms for `infer` come from their own generator so they never
# coincide with training phantoms; the tag only has to differ from qnct's
# own substream tags (1..4).
HELD_OUT_TAG = 1000


@dataclass(frozen=True)
class Scale:
    """Problem sizes; DESK is the benchmark, TINY keeps its tests fast."""

    size: int = 64
    train_phantoms: int = 20
    train_views: int = 16
    scan_views: int = 32
    scan_pool: int = 3
    infer_pool: int = 4
    mixer_d: int = 48
    T: int = 6
    k: int = 2
    codec_width: int = 32
    gd_iters: int = 30
    qn_iters: int = 3
    infer_setup_steps: int = 10


DESK = Scale()
TINY = Scale(size=32, train_phantoms=3, train_views=8, scan_views=8,
             scan_pool=2, infer_pool=2, mixer_d=12, T=2, k=1, codec_width=4,
             gd_iters=3, qn_iters=1, infer_setup_steps=2)


class Phases:
    """Wall seconds per named set-up phase."""

    def __init__(self):
        self.seconds = {}

    @contextmanager
    def __call__(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + time.perf_counter() - start)

    def total(self) -> float:
        return sum(self.seconds.values())


def _finite(name, value, problems):
    if not np.all(np.isfinite(value)):
        problems.append(f"{name} is not finite")


class _Base:
    """Shared steps: sparse geometry, operator tables, dot tests, and the
    checks and PSNR bookkeeping of workloads that score a scan pool."""

    name = ""

    def __init__(self, q, scale: Scale, seed: int):
        self.q = q
        self.scale = scale
        self.seed = int(seed)

    def _geometries(self, full):
        geo = self.q.geometry
        empty = geo.Sinogram(np.zeros((full.n_views_full, full.n_det),
                                      dtype=np.float32))
        views = self.views
        _, sparse = geo.subsample_views(empty, full, views)
        return [full, sparse]

    def _first_calls(self, geometries):
        """First call of every operator on every geometry builds its tables."""
        geo = self.q.geometry
        n = self.scale.size
        for g in geometries:
            img = geo.Image(np.zeros((n, n), dtype=np.float32), g.pixel_mm(n))
            sino = geo.Sinogram(np.zeros((g.n_views, g.n_det),
                                         dtype=np.float32))
            geo.forward_project(img, g)
            geo.back_project(sino, g, n, n)
            geo.fbp(sino, g, h=n, w=n)
            geo.fbp_transpose(img, g)

    def _dot_tests(self, geometries) -> list:
        """<A x, y> = <x, A^T y> and <FBP y, x> = <y, FBP^T x> per geometry."""
        geo = self.q.geometry
        n = self.scale.size
        rng = np.random.default_rng([self.seed, 7])
        problems = []
        for g in geometries:
            # float64 in and out: with float32 outputs the rounding alone
            # can exceed the tolerance when the two products nearly cancel
            x = geo.Image(rng.normal(size=(n, n)), g.pixel_mm(n))
            y = geo.Sinogram(rng.normal(size=(g.n_views, g.n_det)))
            pairs = (
                ("A", geo.forward_project(x, g).values, y.values,
                 x.values, geo.back_project(y, g, n, n).values),
                ("FBP", geo.fbp(y, g, h=n, w=n).values, x.values,
                 y.values, geo.fbp_transpose(x, g).values),
            )
            for op, a1, b1, a2, b2 in pairs:
                lhs = float(np.vdot(a1, b1))
                rhs = float(np.vdot(a2, b2))
                gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
                if not gap < DOT_TOL:
                    problems.append(
                        f"dot test {op} on {g.beam} {g.n_views} views: "
                        f"gap {gap:.2e} >= {DOT_TOL:.0e}")
        return problems

    def _phantoms(self, rng, count):
        n = self.scale.size
        return [self.q.phantoms.random_ellipses(n, rng) for _ in range(count)]

    def _check_scores(self, i, image, scores) -> list:
        problems = []
        _finite("image", image, problems)
        for key, value in scores.items():
            _finite(key, value, problems)
        # ops cycle over the pool; each scan's PSNR is counted once
        self.psnrs.setdefault(i % len(self.items), scores["psnr"])
        return problems

    def quality(self) -> dict:
        return {"psnr_db": (float(np.mean(list(self.psnrs.values()))), "dB")}


class Train(_Base):
    """One op = one `qnct train` step: tape forward, MSE, backward, AdamW."""

    name = "train"

    @property
    def views(self):
        return self.scale.train_views

    @property
    def min_ops(self):
        # train_loss covers exactly the first epoch, so it is a pure
        # function of the seed
        return self.scale.train_phantoms

    def setup(self, phases: Phases) -> list:
        q, s = self.q, self.scale
        with phases("phantoms"):
            truths = self._phantoms(q.init.substream(self.seed, "data"),
                                    s.train_phantoms)
        with phases("tables"):
            geometries = self._geometries(q.geometry.desk_geometry())
            self._first_calls(geometries)
        with phases("dataset"):
            self.items, self.geometry = q.train.synthesize_dataset(
                truths, geometries[0], s.train_views, POISSON, GAUSS_FRAC,
                self.seed)
        with phases("model"):
            mixer = q.mixer.desk_mixer_config().scaled(s.mixer_d)
            unroll = q.unroll.UnrollConfig(
                T=s.T, codec=q.unroll.CodecConfig(s.k, s.codec_width))
            self.model = q.unroll.QnMixerModel.build(s.size, s.size, self.seed,
                                                     mixer, unroll)
            self.optimizer = q.train.default_optimizer(
                self.model, self._config(None))
            # epochs=0 only fills every item's FBP start image, as
            # `qnct train` does before its first step
            q.train.train_unrolled(self.items, self.geometry, self.model,
                                   self._config(None, epochs=0),
                                   self.optimizer)
            # same data order as train_unrolled: a fresh "data" substream,
            # one permutation per epoch
            self._order_rng = q.init.substream(self.seed, "data")
            self._order = []
        with phases("checks"):
            problems = self._dot_tests(geometries)
        self.losses = []
        return problems

    def _config(self, max_steps, epochs=1):
        return self.q.train.TrainConfig(epochs=epochs, lr=LR, seed=self.seed,
                                        max_steps=max_steps)

    def _item(self, i):
        while len(self._order) <= i:
            self._order.extend(
                int(j) for j in self._order_rng.permutation(len(self.items)))
        return self.items[self._order[i]]

    def op(self, i):
        _, curve = self.q.train.train_unrolled(
            [self._item(i)], self.geometry, self.model, self._config(1),
            self.optimizer)
        return curve[0]["loss"]

    def check(self, i, loss) -> list:
        problems = []
        _finite("loss", loss, problems)
        if i < self.min_ops:
            self.losses.append(loss)
        return problems

    def quality(self) -> dict:
        return {"train_loss": (float(np.mean(self.losses)), "mse")}


class Infer(_Base):
    """One op = one held-out scan through `unrolled_reconstruct`, scored by
    `evaluate_pair`, as `qnct reconstruct --method qn-mixer` then `qnct eval`.
    """

    name = "infer"

    @property
    def views(self):
        return self.scale.train_views

    @property
    def min_ops(self):
        return self.scale.infer_pool

    def setup(self, phases: Phases) -> list:
        q, s = self.q, self.scale
        self.trainer = Train(q, s, self.seed)
        problems = self.trainer.setup(phases)
        self.geometry = self.trainer.geometry
        self.model = self.trainer.model
        with phases("phantoms"):
            held = self._phantoms(
                np.random.default_rng([self.seed, HELD_OUT_TAG]), s.infer_pool)
        with phases("dataset"):
            # noise seeds seed*100003 + idx never meet the training items'
            full = q.geometry.desk_geometry()
            self.items, _ = q.train.synthesize_dataset(
                held, full, s.train_views, POISSON, GAUSS_FRAC, self.seed + 1)
        with phases("checks"):
            problems += self._cold_start()
        with phases("model"):
            # a few steps of the train recipe make every lambda_t non-zero
            for i in range(s.infer_setup_steps):
                self.trainer.op(i)
        self.psnrs = {}
        return problems

    def _cold_start(self) -> list:
        """A freshly built model must return FBP bit for bit."""
        geo, n = self.q.geometry, self.scale.size
        sino = geo.Sinogram(self.items[0].sino)
        img, _, _ = self.q.unroll.unrolled_reconstruct(
            sino, self.geometry, self.model, n, n)
        fbp = geo.fbp(sino, self.geometry, h=n, w=n)
        if np.array_equal(img.values, fbp.values):
            return []
        return ["cold start: fresh model does not reproduce FBP bit for bit"]

    def op(self, i):
        item = self.items[i % len(self.items)]
        n = self.scale.size
        # unrolled_reconstruct runs under no_grad itself
        img, _, _ = self.q.unroll.unrolled_reconstruct(
            self.q.geometry.Sinogram(item.sino), self.geometry, self.model,
            n, n, reference=item.truth)
        return img.values, self.q.metrics.evaluate_pair(img.values, item.truth)

    def check(self, i, result) -> list:
        return self._check_scores(i, *result)


class _Scan(_Base):
    """Fan-beam scans shared by `gd` and `qn`: FBP start, Tikhonov
    objective, a classical solver, then `evaluate_pair` on the result."""

    REG_MU = 0.05
    LAM = 1.0

    @property
    def views(self):
        return self.scale.scan_views

    @property
    def min_ops(self):
        return self.scale.scan_pool

    def setup(self, phases: Phases) -> list:
        q, s = self.q, self.scale
        with phases("phantoms"):
            truths = self._phantoms(q.init.substream(self.seed, "data"),
                                    s.scan_pool)
        with phases("tables"):
            geometries = self._geometries(
                q.geometry.desk_geometry(q.geometry.FAN))
            self._first_calls(geometries)
        with phases("dataset"):
            self.items, self.geometry = q.train.synthesize_dataset(
                truths, geometries[0], s.scan_views, POISSON, GAUSS_FRAC,
                self.seed)
        with phases("checks"):
            problems = self._dot_tests(geometries)
        self.psnrs = {}
        return problems

    def op(self, i):
        q, n = self.q, self.scale.size
        item = self.items[i % len(self.items)]
        sino = q.geometry.Sinogram(item.sino)
        spec = q.solvers.ObjectiveSpec.for_geometry(
            self.geometry, sino, n, n, lam=self.LAM,
            regularizer=q.solvers.Regularizer("tikhonov", mu=self.REG_MU))
        x0 = q.geometry.fbp(sino, self.geometry, h=n, w=n).values \
            .astype(np.float64)
        x, trace = self.solve(spec, x0)
        return x, trace, q.metrics.evaluate_pair(x, item.truth)

    def check(self, i, result) -> list:
        x, trace, scores = result
        problems = self._check_scores(i, x, scores)
        j0, j1 = trace[0]["J"], trace[-1]["J"]
        if not j1 < j0:
            problems.append(f"J did not decrease: {j0:.6g} -> {j1:.6g}")
        return problems


class GradientDescent(_Scan):
    """One op = `qnct reconstruct --method gd`: power-iteration step size,
    then fixed-step gradient descent."""

    name = "gd"

    def solve(self, spec, x0):
        step = self._step_size(spec, x0.shape)
        return self.q.solvers.gradient_descent(spec, x0, step,
                                               self.scale.gd_iters)

    def _step_size(self, spec, shape, power_iters=8):
        """1 / L of grad J by power iteration on its linear part, with the
        iteration count `qnct reconstruct` uses."""
        g0 = spec.grad(np.zeros(shape))
        v = self.q.init.substream(self.seed, "init").normal(size=shape)
        for _ in range(power_iters):
            v = spec.grad(v) - g0
            v /= np.linalg.norm(v)
        return 1.0 / float(np.vdot(v, spec.grad(v) - g0))


class QuasiNewton(_Scan):
    """One op = `qnct reconstruct --method qn`: dense-H BFGS with the
    strong-Wolfe line search."""

    name = "qn"

    def solve(self, spec, x0):
        x, trace, _ = self.q.solvers.qn_reconstruct(
            spec, x0, self.scale.qn_iters, line_search="strong-wolfe")
        return x, trace


WORKLOADS = {w.name: w for w in (Train, Infer, GradientDescent, QuasiNewton)}
