import functools
import tracemalloc

import numpy as np
import pytest

from qnct import geometry as geo
from qnct import solvers, unroll
from qnct.autodiff import Tensor
from qnct.errors import DivergenceError, MemoryGuardError, ShapeError
from qnct.phantoms import shepp_logan
from qnct.solvers import (
    BfgsState,
    ObjectiveSpec,
    Regularizer,
    bfgs_update,
    gradient_descent,
    qn_reconstruct,
    secant_diagnostics,
    strong_wolfe,
    symmetry_index,
)


class IdentityOperator:
    """Stub operator: A = I on a fixed shape."""

    def forward(self, x):
        return x

    def adjoint(self, y):
        return y


class CountingOperator:
    """Wraps an operator and records the bytes of every x it projects and
    of every y it back-projects."""

    def __init__(self, op):
        self.op = op
        self.projected = []
        self.adjoined = []

    def forward(self, x):
        self.projected.append(x.tobytes())
        return self.op.forward(x)

    def adjoint(self, y):
        self.adjoined.append(y.tobytes())
        return self.op.adjoint(y)


def fd_gradient(spec, x, eps=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = spec.value(x)
        flat[i] = orig - eps
        fm = spec.value(x)
        flat[i] = orig
        out[i] = (fp - fm) / (2 * eps)
    return g


class MatrixOperator:
    """A as a dense matrix on flat vectors."""

    def __init__(self, M):
        self.M = M

    def forward(self, x):
        return self.M @ x

    def adjoint(self, y):
        return self.M.T @ y


def hessian(spec):
    """The constant Hessian lam MᵀM + mu I of a Tikhonov spec over a
    MatrixOperator."""
    M = spec.op.M
    return spec.lam * M.T @ M + spec.regularizer.mu * np.eye(M.shape[1])


def minimizer(spec):
    return np.linalg.solve(hessian(spec), spec.lam * spec.op.M.T @ spec.y)


def random_quadratic(rng, dim):
    """J(x) = 1/2 |Fᵀx - y|² + dim/2 |x|², an SPD quadratic with the
    Hessian F Fᵀ + dim I, for solver correctness tests."""
    F = rng.normal(size=(dim, dim))
    return ObjectiveSpec(MatrixOperator(F.T), rng.normal(size=dim),
                         regularizer=Regularizer("tikhonov", mu=float(dim)))


def explicit_J(spec, x, r):
    """J at x from the residual r, written out."""
    return 0.5 * spec.lam * float(np.sum(r.astype(np.float64) ** 2)) \
        + spec.regularizer.value(x)


def explicit_grad(spec, x, r):
    return spec.lam * spec.op.adjoint(r) + spec.regularizer.grad(x)


def reprojected_grad(spec, x):
    """grad J at x from a fresh projection, without ObjectiveSpec.at."""
    return explicit_grad(spec, x, spec.op.forward(x) - spec.y)


class TestObjective:
    def test_identity_residual_zero(self):
        y = np.random.default_rng(0).normal(size=(8, 8))
        spec = ObjectiveSpec(IdentityOperator(), y, lam=1.0)
        assert spec.value(y) == 0.0

    def test_tikhonov_value(self):
        x = np.zeros((4, 4))
        x[0, 0] = 3.0  # ||x||^2 = 9
        spec = ObjectiveSpec(IdentityOperator(), np.zeros((4, 4)), lam=0.0,
                             regularizer=Regularizer("tikhonov", mu=2.0))
        assert spec.value(x) == pytest.approx(9.0)

    def test_all_zero_weights(self):
        rng = np.random.default_rng(1)
        spec = ObjectiveSpec(IdentityOperator(), rng.normal(size=(5, 5)), lam=0.0)
        assert spec.value(rng.normal(size=(5, 5))) == 0.0

    def test_lam_negative_rejected(self):
        with pytest.raises(ShapeError):
            ObjectiveSpec(IdentityOperator(), np.zeros((2, 2)), lam=-1.0)


class TestGradient:
    def test_identity_gradient(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 6))
        y = rng.normal(size=(6, 6))
        spec = ObjectiveSpec(IdentityOperator(), y, lam=1.0)
        np.testing.assert_allclose(spec.grad(x), x - y, atol=1e-12)

    def test_finite_difference_ct_instance(self):
        g = geo.Geometry(n_views_full=24, n_det=24, det_spacing_mm=2.0,
                         image_extent_mm=32.0)
        rng = np.random.default_rng(3)
        truth = rng.uniform(0.0, 1.0, size=(16, 16))
        sino = geo.forward_project(geo.Image(truth, g.pixel_mm(16)), g)
        spec = ObjectiveSpec.for_geometry(
            g, sino, 16, 16, lam=0.7,
            regularizer=Regularizer("smoothed_tv", mu=0.05, delta=1e-3),
        )
        x = rng.uniform(0.0, 1.0, size=(16, 16))
        analytic = spec.grad(x)
        numeric = fd_gradient(spec, x)
        scale = np.abs(numeric).max()
        assert np.abs(analytic - numeric).max() / scale < 1e-6

    def test_smoothed_tv_constant_image(self):
        spec = ObjectiveSpec(IdentityOperator(), np.full((8, 8), 0.3), lam=0.0,
                             regularizer=Regularizer("smoothed_tv", mu=1.0))
        np.testing.assert_array_equal(spec.grad(np.full((8, 8), 0.3)), 0.0)


class TestGradientDescent:
    def quadratic_spec(self, lam=1.0, mu=0.5):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(10, 10))
        return ObjectiveSpec(IdentityOperator(), y, lam=lam,
                             regularizer=Regularizer("tikhonov", mu=mu)), y

    def test_monotone_below_stability_limit(self):
        spec, y = self.quadratic_spec()
        lipschitz = spec.lam + spec.regularizer.mu
        x, trace = gradient_descent(spec, np.zeros((10, 10)), 1.8 / lipschitz, 25)
        js = [row["J"] for row in trace]
        assert all(b < a for a, b in zip(js, js[1:]))
        # linear contraction at rate |1 - step * L| = 0.8 toward the
        # closed-form minimizer lam y / (lam + mu)
        star = spec.lam * y / (spec.lam + spec.regularizer.mu)
        assert np.linalg.norm(x - star) <= 0.81 ** 25 * np.linalg.norm(star)

    def test_zero_step_is_identity(self):
        spec, _ = self.quadratic_spec()
        x0 = np.full((10, 10), 0.25)
        x, _ = gradient_descent(spec, x0, 0.0, 5)
        np.testing.assert_array_equal(x, x0)

    def test_ct_monotone_run(self):
        g = geo.desk_geometry(view_subset=geo.uniform_view_subset(180, 32))
        ph = shepp_logan(64)
        sino = geo.forward_project(geo.Image(ph, g.pixel_mm(64)), g)
        spec = ObjectiveSpec.for_geometry(
            g, sino, 64, 64, lam=1.0,
            regularizer=Regularizer("tikhonov", mu=0.1),
        )
        # step below 2/L with L estimated by power iteration on A^T A
        v = np.random.default_rng(5).normal(size=(64, 64))
        for _ in range(12):
            v = spec.op.adjoint(spec.op.forward(v))
            v /= np.linalg.norm(v)
        lip = float(np.vdot(v, spec.op.adjoint(spec.op.forward(v)))) + 0.1
        x0 = geo.fbp(sino, g, h=64, w=64).values
        _, trace = gradient_descent(spec, x0, 1.0 / lip, 100)
        js = [row["J"] for row in trace]
        assert all(b <= a for a, b in zip(js, js[1:]))

    def test_divergence_raises_with_trace(self):
        spec, _ = self.quadratic_spec()
        with pytest.raises(DivergenceError) as err:
            gradient_descent(spec, np.zeros((10, 10)), 25.0, 200)
        assert err.value.trace is not None
        assert len(err.value.trace) >= 2

    def test_one_gradient_per_iterate(self):
        spec, y = self.quadratic_spec()
        op = CountingOperator(spec.op)
        gradient_descent(ObjectiveSpec(op, y, spec.lam, spec.regularizer),
                         np.zeros((10, 10)), 0.5, 7)
        assert len(op.adjoined) == 7 + 1


def dense_bfgs_update(H, s, z):
    """Reference: the dense rank-two update (I - rho s z^T) H (I - rho z s^T)
    + rho s s^T, or H itself when solvers would skip the pair."""
    rho = solvers._inverse_curvature(s, z)
    if rho is None:
        return H
    V = np.eye(s.size) - rho * np.outer(z, s)
    return V.T @ H @ V + rho * np.outer(s, s)


def chained(pairs):
    """(BfgsState, dense H) after updating both with every pair."""
    state, H = BfgsState(), np.eye(pairs[0][0].size)
    for s, z in pairs:
        state, _ = bfgs_update(state, s, z)
        H = dense_bfgs_update(H, s, z)
    return state, H


def quadratic_pairs(rng, dim, count, skip=None):
    """Secant pairs of a random SPD quadratic; pair `skip` has z = -s."""
    Q = hessian(random_quadratic(rng, dim))
    pairs = []
    for k in range(count):
        s = rng.normal(size=dim)
        pairs.append((s, -s if k == skip else Q @ s))
    return pairs


class TestBfgsUpdate:
    def test_identity_fixed_point(self):
        e1 = np.array([1.0, 0.0])
        state, accepted = bfgs_update(BfgsState(), e1, e1)
        assert accepted
        for v in np.random.default_rng(5).normal(size=(4, 2)):
            np.testing.assert_allclose(state.apply(v), v, atol=1e-15)

    def test_secant_identity_random(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            dim = int(rng.integers(2, 12))
            state, _ = chained(quadratic_pairs(rng, dim, 3))
            s = rng.normal(size=dim)
            z = rng.normal(size=dim)
            if z @ s <= 0:
                z = -z
            new, accepted = bfgs_update(state, s, z)
            assert accepted
            Hz = new.apply(z)
            assert np.linalg.norm(Hz - s) / np.linalg.norm(s) < 1e-10
            g = rng.normal(size=dim)
            assert symmetry_index(g, new.apply(g), z, Hz) < 1e-10

    def test_nonpositive_curvature_skipped(self):
        s = np.array([1.0, 0.0, 0.0])
        state, _ = bfgs_update(BfgsState(), s, 2.0 * s)
        new, accepted = bfgs_update(state, s, -s)
        assert not accepted
        assert new.pairs == state.pairs
        assert (new.skips, state.skips) == (1, 0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            bfgs_update(BfgsState(), np.ones(3), np.ones(2))
        state, _ = bfgs_update(BfgsState(), np.ones(3), np.ones(3))
        with pytest.raises(ShapeError):
            bfgs_update(state, np.ones(2), np.ones(2))

    def test_chained_updates_read_symmetric_to_round_off(self):
        # nothing symmetrizes H; the two-loop form is symmetric by
        # construction, and the probe confirms it on random vectors
        rng = np.random.default_rng(11)
        for _ in range(20):
            state = BfgsState()
            for _ in range(3):
                s = rng.normal(size=9)
                z = rng.normal(size=9)
                if z @ s <= 0:
                    z = -z
                state, accepted = bfgs_update(state, s, z)
                assert accepted
            g, z = rng.normal(size=(2, 9))
            assert symmetry_index(g, state.apply(g), z, state.apply(z)) < 1e-14


class TestSymmetryIndex:
    @staticmethod
    def probe(M, g, z):
        return symmetry_index(g, M @ g, z, M @ z)

    def test_identity_zero(self):
        g, z = np.random.default_rng(7).normal(size=(2, 5))
        assert self.probe(np.eye(5), g, z) == 0.0

    def test_unit_asymmetry(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert self.probe(M, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_random_symmetric(self):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(9, 9))
        g, z = rng.normal(size=(2, 9))
        assert self.probe(M + M.T, g, z) < 1e-12

    def test_non_square(self):
        g, z = np.ones((2, 3))
        with pytest.raises(ShapeError, match="square"):
            self.probe(np.zeros((2, 3)), g, z)


class TestBfgsState:
    def test_apply_equals_chained_dense_updates(self):
        rng = np.random.default_rng(14)
        state, H = chained(quadratic_pairs(rng, 12, 7, skip=3))
        assert len(state.pairs) == 6 and state.skips == 1
        for _ in range(5):
            v = rng.normal(size=12)
            dense = H @ v
            assert np.linalg.norm(state.apply(v) - dense) \
                <= 1e-12 * np.linalg.norm(dense)

    def test_empty_state_is_the_identity(self):
        v = np.random.default_rng(15).normal(size=(3, 4))
        np.testing.assert_array_equal(BfgsState().apply(v), v)


class TestSecantDiagnostics:
    def state_and_pair(self):
        rng = np.random.default_rng(16)
        state = BfgsState()
        for s, z in quadratic_pairs(rng, 10, 4):
            state.pairs.append((s, z, 1.0 / float(z @ s)))
        return state, s, z, rng.normal(size=10)

    def test_exact_state_reads_round_off(self):
        state, s, z, g = self.state_and_pair()
        Hg, secant, si = secant_diagnostics(state.apply, s, z, g)
        np.testing.assert_array_equal(Hg, state.apply(g))
        assert secant < 1e-12
        assert si < 1e-12

    def test_secant_residual_reports_a_wrong_rho(self):
        state, s, z, g = self.state_and_pair()
        state.pairs[-1] = (s, z, 1.01 * state.pairs[-1][2])
        _, secant, _ = secant_diagnostics(state.apply, s, z, g)
        assert secant > 1e-3

    def test_probe_reports_an_asymmetric_h(self):
        rng = np.random.default_rng(17)
        M = np.eye(10) + 0.1 * rng.normal(size=(10, 10))
        s, z, g = rng.normal(size=(3, 10))
        _, _, si = secant_diagnostics(lambda v: M @ v, s, z, g)
        assert si > 0.0
        _, _, si_sym = secant_diagnostics(lambda v: (M + M.T) @ v, s, z, g)
        assert si_sym < 1e-12


class TestLatentDiagnosticsAgainstDenseH:
    """The latent loop's trace columns, from curvature pairs, against the
    dense update of the same pairs."""

    def run(self, rng, pairs, state):
        H = np.eye(pairs[0][0].size)
        rows = []
        for s, z in pairs:
            r_next = Tensor(rng.normal(size=s.size))
            H_next = dense_bfgs_update(H, s, z)
            state = state.updated(s, z, r_next)
            rows.append((state, H, H_next, s, z))
            H = H_next
        return rows

    def test_secant_and_step_match_the_dense_update(self):
        rng = np.random.default_rng(18)
        pairs = quadratic_pairs(rng, 16, 6, skip=2)
        start = unroll.LatentBfgsState.initial(Tensor(np.zeros(16)), 6)
        for k, (state, H, H_next, s, z) in enumerate(self.run(rng, pairs,
                                                              start)):
            if k == 2:
                assert np.isnan(state.secant_residual)
                assert state.frobenius_step == 0.0
                assert np.array_equal(H_next, H)
                continue
            secant = np.linalg.norm(H_next @ z - s) / np.linalg.norm(s)
            assert abs(state.secant_residual - secant) <= 1e-12
            step = np.linalg.norm(H_next - H)
            assert abs(state.frobenius_step - step) <= 1e-12 * step
            assert state.si <= 1e-12
        assert state.bfgs.skips == 1 and len(state.bfgs.pairs) == 5

    def test_asymmetric_product_shows_in_si(self):
        rng = np.random.default_rng(19)
        skew = np.triu(0.01 * rng.normal(size=(16, 16)), 1)

        class Skewed(BfgsState):
            def apply(self, v):
                return super().apply(v) + skew @ v

        start = unroll.LatentBfgsState(Skewed(), Tensor(np.zeros(16)))
        rows = self.run(rng, quadratic_pairs(rng, 16, 3), start)
        assert all(state.si > 1e-3 for state, *_ in rows)

    def test_scaled_newest_rho_shows_in_secant_residual(self, monkeypatch):
        def faulty(state, s, z):
            new, accepted = bfgs_update(state, s, z)
            s_, z_, rho = new.pairs[-1]
            new.pairs[-1] = (s_, z_, 1.01 * rho)
            return new, accepted

        monkeypatch.setattr(unroll, "bfgs_update", faulty)
        rng = np.random.default_rng(20)
        start = unroll.LatentBfgsState.initial(Tensor(np.zeros(16)), 3)
        rows = self.run(rng, quadratic_pairs(rng, 16, 3), start)
        assert all(state.secant_residual > 1e-3 for state, *_ in rows)


@pytest.fixture
def made_points(monkeypatch):
    """The bytes of x of every Point made, in order, and its J and grad
    computations as ("J" | "g", x bytes)."""
    made, computed = [], []

    class Recorded(solvers.Point):
        def __post_init__(self):
            super().__post_init__()
            made.append(self.x.tobytes())

    for name in ("J", "g"):
        prop = solvers.Point.__dict__[name]

        def recorded(self, prop=prop, name=name):
            computed.append((name, self.x.tobytes()))
            return prop.func(self)

        wrapped = functools.cached_property(recorded)
        wrapped.__set_name__(Recorded, name)
        setattr(Recorded, name, wrapped)
    monkeypatch.setattr(solvers, "Point", Recorded)
    return made, computed


class TestStrongWolfe:
    def test_each_point_evaluated_once(self, made_points):
        made, computed = made_points
        rng = np.random.default_rng(18)
        spec = ObjectiveSpec(IdentityOperator(), rng.normal(size=(8, 8)),
                             regularizer=Regularizer("smoothed_tv", mu=0.5))
        start = spec.at(rng.normal(size=(8, 8)))
        g = start.g
        # short steps bracket by doubling (the shortest up to the cap
        # a = 64), long ones zoom back from a = 1
        for scale in (1e-5, 0.05, 0.4, 3.0, 30.0):
            made.clear()
            computed.clear()
            d = -scale * g
            a, point = strong_wolfe(spec.line(start, d),
                                    float(g.reshape(-1) @ d.reshape(-1)))
            assert len(made) == len(set(made)) > 0
            assert len(computed) == len(set(computed))
            # the accepted point is x + a d, as qn_reconstruct forms it,
            # with J and grad J of its own residual
            assert point.x.tobytes() == (start.x + a * d).tobytes()
            assert point.J == explicit_J(spec, point.x, point.r)
            np.testing.assert_array_equal(
                point.g, explicit_grad(spec, point.x, point.r))


def ct_tikhonov(n=32, views=16):
    """(spec, FBP start) of a parallel-beam Tikhonov problem on n² pixels."""
    g = geo.Geometry(n_views_full=90, n_det=48, det_spacing_mm=2.0,
                     image_extent_mm=64.0,
                     view_subset=geo.uniform_view_subset(90, views))
    sino = geo.forward_project(geo.Image(shepp_logan(n), g.pixel_mm(n)), g)
    spec = ObjectiveSpec.for_geometry(
        g, sino, n, n, lam=1.0, regularizer=Regularizer("tikhonov", mu=0.05))
    return spec, geo.fbp(sino, g, h=n, w=n).values.astype(np.float64)


def reevaluating_qn(spec, x0, iters, line_search):
    """qn_reconstruct without reuse: J and grad J at x + alpha d are
    evaluated again, by the formulas, from the residual the search gave
    that point (or from a fresh projection where it gave none)."""
    search = solvers.LINE_SEARCHES[line_search]
    p = spec.at(np.array(x0, dtype=np.float64))
    x, r = p.x, p.r
    state = BfgsState()
    j, g = explicit_J(spec, x, r), explicit_grad(spec, x, r)
    Hg, si = g, 0.0
    trace = [solvers._trace_row(0, j, np.linalg.norm(g), si=si,
                                residual_norm=np.linalg.norm(r))]
    for t in range(1, iters + 1):
        d = -Hg
        g0d = float(g.reshape(-1) @ d.reshape(-1))
        assert g0d < 0
        alpha, point = search(spec.line(solvers.Point(spec, x, r), d), g0d)
        s = alpha * d
        x_new = x + s
        r = spec.op.forward(x_new) - spec.y if point is None else point.r
        g_new = explicit_grad(spec, x_new, r)
        z = g_new - g
        state, accepted = bfgs_update(state, s, z)
        if accepted:
            Hg, secant, si = secant_diagnostics(state.apply, s, z, g_new)
        else:
            Hg, secant = state.apply(g_new), np.nan
        x, g = x_new, g_new
        j = explicit_J(spec, x, r)
        trace.append(solvers._trace_row(t, j, np.linalg.norm(g), alpha,
                                        secant, si, np.linalg.norm(r),
                                        np.linalg.norm(s)))
    return x, trace


def trace_rows(trace, columns=solvers.TRACE_COLUMNS):
    return [[row[c] for c in columns] for row in trace]


class TestAcceptedPointReuse:
    @pytest.mark.parametrize("line_search", ["strong-wolfe"])
    def test_no_point_evaluated_twice(self, line_search, made_points):
        made, computed = made_points
        spec, x0 = ct_tikhonov()
        qn_reconstruct(spec, x0, 3, line_search=line_search)
        assert made and len(made) == len(set(made))
        assert len(computed) == len(set(computed))

    @pytest.mark.parametrize("line_search", sorted(solvers.LINE_SEARCHES))
    def test_bit_identical_to_reevaluating_loop(self, line_search):
        rng = np.random.default_rng(21)
        # curvature in [0.5, 1.5], where a unit step from H0 = I converges
        mild = ObjectiveSpec(MatrixOperator(np.diag(np.sqrt(
            rng.uniform(0.5, 1.5, 12)))), rng.normal(size=12))
        for spec, x0 in [(mild, np.zeros(12)), ct_tikhonov()]:
            x, trace, _ = qn_reconstruct(spec, x0, 4, line_search=line_search)
            x_ref, trace_ref = reevaluating_qn(spec, x0, 4, line_search)
            assert x.tobytes() == x_ref.tobytes()
            np.testing.assert_array_equal(trace_rows(trace),
                                          trace_rows(trace_ref))


class TestQnReconstruct:
    def test_quadratics_match_direct_solve(self):
        # the exact search resolves past the float64 floor of J values
        # where a value-based Wolfe search stalls near 1e-7
        rng = np.random.default_rng(8)
        for _ in range(20):
            quad = random_quadratic(rng, 16)
            x, trace, state = qn_reconstruct(
                quad, np.zeros(16), 40, line_search="exact-quadratic",
                gtol=1e-8
            )
            assert trace[-1]["grad_norm"] < 1e-8
            assert len(trace) - 1 <= 40
            np.testing.assert_allclose(x, minimizer(quad), atol=1e-6)
            for row in trace:
                assert not np.isfinite(row["si"]) or row["si"] < 1e-8
                if np.isfinite(row["secant_residual"]):
                    assert row["secant_residual"] < 1e-10

    def test_exact_line_search_terminates_fast(self):
        rng = np.random.default_rng(9)
        for dim in (4, 12, 32):
            quad = random_quadratic(rng, dim)
            _, trace, _ = qn_reconstruct(
                quad, np.zeros(dim), dim + 2, line_search="exact-quadratic",
                gtol=1e-10,
            )
            assert trace[-1]["grad_norm"] < 1e-10
            assert len(trace) - 1 <= dim + 2

    def test_strong_wolfe_converges_to_value_floor(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            quad = random_quadratic(rng, 16)
            _, trace, _ = qn_reconstruct(quad, np.zeros(16), 40,
                                         line_search="strong-wolfe",
                                         gtol=1e-6)
            assert trace[-1]["grad_norm"] < 1e-6
            js = [row["J"] for row in trace]
            assert all(b <= a + 1e-12 for a, b in zip(js, js[1:]))

    def test_positive_definiteness_probes(self):
        rng = np.random.default_rng(10)
        quad = random_quadratic(rng, 12)
        _, _, state = qn_reconstruct(quad, np.zeros(12), 20,
                                     line_search="strong-wolfe")
        assert state.pairs
        for _ in range(10):
            v = rng.normal(size=12)
            assert v @ state.apply(v) > 0.0

    def test_ct_beats_gradient_descent_head_to_head(self):
        spec, x0 = ct_tikhonov()
        xq, trace_q, _ = qn_reconstruct(spec, x0, 30, line_search="strong-wolfe")
        v = np.random.default_rng(11).normal(size=(32, 32))
        for _ in range(12):
            v = spec.op.adjoint(spec.op.forward(v))
            v /= np.linalg.norm(v)
        lip = float(np.vdot(v, spec.op.adjoint(spec.op.forward(v)))) + 0.05
        _, trace_g = gradient_descent(spec, x0, 1.0 / lip, 30)
        assert trace_q[-1]["J"] < trace_g[-1]["J"]
        # J non-increasing under the Wolfe search
        js = [row["J"] for row in trace_q]
        assert all(b <= a + 1e-12 for a, b in zip(js, js[1:]))

    def test_zero_iterations_returns_x0(self):
        quad = random_quadratic(np.random.default_rng(12), 5)
        x0 = np.arange(5.0)
        x, trace, _ = qn_reconstruct(quad, x0, 0)
        np.testing.assert_array_equal(x, x0)
        assert len(trace) == 1
        with pytest.raises(ShapeError, match="iters >= 0"):
            qn_reconstruct(quad, x0, -2)

    def test_memory_guard(self):
        # a dense H at 160x160 would take 5.2 GB; one iteration's pair fits
        y = np.random.default_rng(13).normal(size=(160, 160))
        spec = ObjectiveSpec(IdentityOperator(), y,
                             regularizer=Regularizer("tikhonov", mu=1.0))
        _, trace, state = qn_reconstruct(spec, np.zeros((160, 160)), 1)
        assert len(trace) == 2
        assert len(state.pairs) == 1

        # the pairs of a huge iteration count are refused up front
        op = CountingOperator(IdentityOperator())
        with pytest.raises(MemoryGuardError, match="iterations"):
            qn_reconstruct(ObjectiveSpec(op, y), np.zeros((160, 160)), 10**6)
        assert op.projected == []

    def test_state_memory_at_64(self):
        g = geo.desk_geometry(view_subset=geo.uniform_view_subset(180, 32))
        sino = geo.forward_project(geo.Image(shepp_logan(64), g.pixel_mm(64)),
                                   g)
        spec = ObjectiveSpec.for_geometry(
            g, sino, 64, 64, regularizer=Regularizer("tikhonov", mu=0.1))
        x0 = geo.fbp(sino, g, h=64, w=64).values.astype(np.float64)
        spec.grad(x0)  # the cached scan matrix is built outside the count
        tracemalloc.start()
        try:
            _, trace, state = qn_reconstruct(spec, x0, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace) == 4
        # the dense 4096x4096 H alone would be 128 MiB
        assert peak < 32 * 2**20


def counting_ct_tikhonov():
    spec, x0 = ct_tikhonov()
    op = CountingOperator(spec.op)
    return ObjectiveSpec(op, spec.y, spec.lam, spec.regularizer), op, x0


def reproject_every_trial(monkeypatch):
    """Make every Line trial project x + a d afresh from here on: the
    reference for the trial residual r + a Ad."""
    def at(self, a):
        return self.start.spec.at(self.start.x + a * self.d)

    monkeypatch.setattr(solvers.Line, "at", at)


class TestPoints:
    @pytest.mark.parametrize("regularizer", [
        Regularizer("tikhonov", mu=0.05),
        Regularizer("smoothed_tv", mu=0.05, delta=1e-2)],
        ids=["tikhonov", "tv"])
    def test_J_and_grad_are_the_formulas_bit_for_bit(self, regularizer):
        ct, x = ct_tikhonov()
        spec = ObjectiveSpec(ct.op, ct.y, 0.7, regularizer)
        point = spec.at(x)
        r = spec.op.forward(x) - spec.y
        np.testing.assert_array_equal(point.r, r)
        assert point.J == explicit_J(spec, x, r)
        np.testing.assert_array_equal(point.g, explicit_grad(spec, x, r))
        assert point.residual_norm == np.linalg.norm(r)
        assert point.x is x and not point.r.flags.writeable

    def test_line_points_carry_r_plus_a_Ad(self):
        spec, op, x0 = counting_ct_tikhonov()
        start = spec.at(x0)
        d = -start.g
        line = spec.line(start, d)
        assert len(op.projected) == 1  # d waits for the first trial
        Ad = spec.op.op.forward(d)
        for a in (1.0, 0.25, 3.5):
            point = line.at(a)
            assert point.x.tobytes() == (x0 + a * d).tobytes()
            assert point.r.tobytes() == (start.r + a * Ad).tobytes()
            assert point.J == explicit_J(spec, point.x, point.r)
            np.testing.assert_array_equal(
                point.g, explicit_grad(spec, point.x, point.r))
        assert op.projected == [x0.tobytes(), d.tobytes()]

    def test_a_line_reuses_its_last_trial_only(self):
        spec, op, x0 = counting_ct_tikhonov()
        line = spec.line(spec.at(x0), np.ones_like(x0))
        j = line.value(0.5)
        sl, point = line.slope(0.5)
        assert point is line.at(0.5) and point.J == j
        assert line.at(0.25) is not point
        assert line.at(0.5) is not point
        assert len(op.projected) == 2

    def test_value_and_grad_each_project_afresh(self):
        spec, op, x0 = counting_ct_tikhonov()
        j = spec.value(x0)
        assert spec.value(x0) == j
        g = spec.grad(x0)
        assert op.projected == [x0.tobytes()] * 3
        assert len(op.adjoined) == 1
        np.testing.assert_array_equal(g, spec.at(x0).g)

    def test_norm_is_numpys_norm_bit_for_bit(self):
        rng = np.random.default_rng(32)
        for size in (1, 7, 64, 4096, (32, 48)):
            for scale in (1e-200, 1e-3, 1.0, 1e150):
                v = scale * rng.normal(size=size)
                assert solvers._norm(v) == np.linalg.norm(v)


class TestResidualReuse:
    def test_gradient_descent_projects_once_per_iterate(self):
        spec, op, x0 = counting_ct_tikhonov()
        gradient_descent(spec, x0, 1e-3, 6)
        assert len(op.projected) == 6 + 1

    @pytest.mark.parametrize("line_search", ["strong-wolfe"])
    def test_qn_trace_norms_project_no_point_again(self, line_search):
        spec, op, x0 = counting_ct_tikhonov()
        _, trace, _ = qn_reconstruct(spec, x0, 3, line_search=line_search)
        assert op.projected and len(op.projected) == len(set(op.projected))
        assert all(np.isfinite(row["residual_norm"]) for row in trace)

    def test_strong_wolfe_projects_each_distinct_point_once(self,
                                                            made_points):
        made, _ = made_points
        spec, op, x0 = counting_ct_tikhonov()
        qn_reconstruct(spec, x0, 3, line_search="strong-wolfe")
        # x0 and one direction per iteration; every trial point is new and
        # costs no projection
        assert len(op.projected) == len(set(op.projected)) == 1 + 3
        assert len(made) == len(set(made)) > len(op.projected)

    def test_x_mutated_in_place_is_projected_again(self):
        spec, op, x0 = counting_ct_tikhonov()
        x = x0.copy()
        before = spec.at(x)
        j = before.J
        x[3, 4] += 1.0
        after = spec.at(x)
        assert len(op.projected) == 2
        assert after.J != j
        np.testing.assert_array_equal(after.g, reprojected_grad(spec, x))

    def test_signed_zeros_are_different_points(self):
        op = CountingOperator(IdentityOperator())
        spec = ObjectiveSpec(op, np.ones((4, 4)))
        x = np.zeros((4, 4))
        spec.at(x)
        g = spec.grad(-x)  # -0.0 everywhere: equal values, other bits
        assert op.projected == [x.tobytes(), (-x).tobytes()]
        np.testing.assert_array_equal(g, reprojected_grad(spec, -x))

    def test_strided_x_is_the_point_of_its_contiguous_copy(self):
        spec = ObjectiveSpec(IdentityOperator(), np.ones((4, 4)),
                             regularizer=Regularizer("smoothed_tv", mu=0.1))
        x = np.arange(32.0).reshape(4, 8)[:, ::2]
        strided, contiguous = spec.at(x), spec.at(np.ascontiguousarray(x))
        assert strided.J == contiguous.J
        np.testing.assert_array_equal(strided.g, contiguous.g)
        assert strided.residual_norm == contiguous.residual_norm

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_point_holds_x_without_copying(self, dtype):
        x = np.random.default_rng(31).normal(size=(128, 128)).astype(dtype)
        spec = ObjectiveSpec(IdentityOperator(), np.zeros_like(x))
        tracemalloc.start()
        try:
            point = spec.at(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert point.x is x
        assert peak < 1.25 * x.nbytes  # the residual, and no copy of x

    def test_equal_values_of_another_dtype_are_projected_again(self):
        y = np.random.default_rng(30).normal(size=(6, 6))
        op = CountingOperator(IdentityOperator())
        spec = ObjectiveSpec(op, y)
        x = np.arange(36.0).reshape(6, 6)  # exact in float32 as well
        spec.value(x)
        g32 = spec.grad(x.astype(np.float32))
        assert len(op.projected) == 2
        np.testing.assert_array_equal(
            g32, reprojected_grad(spec, x.astype(np.float32)))

    def test_data_and_fields_cannot_change_under_the_residual(self):
        y = np.zeros((4, 4))
        spec = ObjectiveSpec(IdentityOperator(), y)
        x = np.ones((4, 4))
        j = spec.value(x)
        y[:] = 5.0  # the caller's array, not the spec's copy
        assert spec.value(x) == j
        assert not spec.y.flags.writeable
        with pytest.raises(ValueError):
            spec.y[0, 0] = 1.0
        with pytest.raises(AttributeError):
            spec.y = y
        with pytest.raises(AttributeError):
            spec.op = IdentityOperator()

    def test_kept_residual_is_not_part_of_equality_or_repr(self):
        spec = ObjectiveSpec(IdentityOperator(), np.zeros(1))
        fresh = ObjectiveSpec(spec.op, np.zeros(1))
        spec.value(np.ones(1))
        assert repr(spec) == repr(fresh)

    @pytest.mark.parametrize("line_search", sorted(solvers.LINE_SEARCHES))
    def test_qn_bit_identical_to_reprojecting_spec(self, line_search,
                                                   monkeypatch):
        """Bit-identical where no trial value comes from the line's r + a Ad
        (exact-quadratic); within round-off where one does."""
        spec, x0 = ct_tikhonov()
        runs = []
        for reproject in (False, True):
            if reproject:
                reproject_every_trial(monkeypatch)
            x, trace, state = qn_reconstruct(spec, x0, 4,
                                             line_search=line_search)
            runs.append((x, trace_rows(trace),
                         (len(state.pairs), state.skips)))
        (x, rows, updates), (x_ref, rows_ref, updates_ref) = runs
        if line_search == "exact-quadratic":
            assert x.tobytes() == x_ref.tobytes()
            np.testing.assert_array_equal(rows, rows_ref)
            return
        assert updates == updates_ref
        assert len(rows) == len(rows_ref)
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
        j = solvers.TRACE_COLUMNS.index("J")
        np.testing.assert_allclose([r[j] for r in rows],
                                   [r[j] for r in rows_ref], rtol=1e-12, atol=0)

    def test_gradient_descent_bit_identical_to_reprojecting_spec(self):
        spec, x0 = ct_tikhonov()
        step = solvers.estimate_step(spec, 32)
        x, trace = gradient_descent(spec, x0, step, 12)
        # the same descent, each iterate projected and J, grad J and |r|
        # written out
        x_ref, rows = x0, []
        for _ in range(13):
            r = spec.op.forward(x_ref) - spec.y
            g = explicit_grad(spec, x_ref, r)
            rows.append([explicit_J(spec, x_ref, r), np.linalg.norm(g),
                         np.linalg.norm(r)])
            x_new, x_ref = x_ref, x_ref - step * g
        assert x.tobytes() == x_new.tobytes()
        np.testing.assert_array_equal(
            trace_rows(trace, ("J", "grad_norm", "residual_norm")), rows)


class TestLineRestriction:
    """ObjectiveSpec.line: trial steps reuse one projection of d."""

    @pytest.mark.parametrize("line_search", ["strong-wolfe"])
    def test_qn_projects_x0_and_one_direction_per_iteration(self,
                                                            line_search):
        spec, op, x0 = counting_ct_tikhonov()
        qn_reconstruct(spec, x0, 3, line_search=line_search)
        assert len(op.projected) == 1 + 3
        assert op.projected[0] == x0.tobytes()

    @pytest.mark.parametrize("search", [strong_wolfe])
    def test_search_and_accepted_point_project_only_the_direction(self,
                                                                  search):
        spec, op, x0 = counting_ct_tikhonov()
        start = spec.at(x0)
        d = -start.g
        op.projected.clear()
        a, point = search(spec.line(start, d),
                          float(start.g.reshape(-1) @ d.reshape(-1)))
        assert a > 0 and point is not None
        assert point.x.tobytes() == (x0 + a * d).tobytes()
        assert np.isfinite(point.J) and np.isfinite(point.g).all()
        assert op.projected == [d.tobytes()]

    @pytest.mark.parametrize("regularizer", [
        Regularizer("tikhonov", mu=0.05),
        Regularizer("smoothed_tv", mu=0.05, delta=1e-2)],
        ids=["tikhonov", "tv"])
    @pytest.mark.parametrize("kind", ["identity", "ct"])
    def test_trial_values_and_slopes_match_a_reprojection(
            self, kind, regularizer, monkeypatch):
        if kind == "identity":
            rng = np.random.default_rng(40)
            spec = ObjectiveSpec(IdentityOperator(), rng.normal(size=(8, 8)),
                                 regularizer=regularizer)
            x = rng.normal(size=(8, 8))
        else:
            ct, x = ct_tikhonov()
            spec = ObjectiveSpec(ct.op, ct.y, ct.lam, regularizer)
        # (d, a, J or None, (slope, point) or None) of every trial evaluated
        trials = []
        value, slope = solvers.Line.value, solvers.Line.slope
        zoom, zooms = solvers._zoom, []

        def recorded_value(self, a):
            trials.append((self.d, a, value(self, a), None))
            return trials[-1][2]

        def recorded_slope(self, a):
            trials.append((self.d, a, None, slope(self, a)))
            return trials[-1][3]

        def counted_zoom(*args):
            zooms.append(args)
            return zoom(*args)

        monkeypatch.setattr(solvers.Line, "value", recorded_value)
        monkeypatch.setattr(solvers.Line, "slope", recorded_slope)
        monkeypatch.setattr(solvers, "_zoom", counted_zoom)
        start = spec.at(x)
        g = start.g
        # short steps bracket by doubling, long ones zoom or shrink
        for scale in (1e-5, 0.05, 0.4, 3.0, 30.0):
            d = -scale * g
            g0d = float(g.reshape(-1) @ d.reshape(-1))
            strong_wolfe(spec.line(start, d), g0d)
        assert zooms and len(trials) > 20
        # gradients relative to the one at x: a search can land where the
        # gradient cancels to round-off
        g_norm = np.linalg.norm(g)
        for d, a, j, slope in trials:
            xa = x + a * d
            if slope is None:
                j_ref = spec.value(xa)
                assert abs(j - j_ref) <= 1e-12 * abs(j_ref)
            else:
                sl, point = slope
                g_ref = spec.grad(xa)
                assert np.linalg.norm(point.g - g_ref) <= 1e-12 * g_norm
                assert abs(sl - float(g_ref.reshape(-1) @ d.reshape(-1))) \
                    <= 1e-12 * g_norm * np.linalg.norm(d)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_regularizer_weight_and_corner(self, bad):
        with pytest.raises(ShapeError, match="mu"):
            Regularizer("tikhonov", mu=bad)
        with pytest.raises(ShapeError, match="delta"):
            Regularizer("smoothed_tv", mu=0.1, delta=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_data_weight(self, bad):
        with pytest.raises(ShapeError, match="lam"):
            ObjectiveSpec(IdentityOperator(), np.zeros((2, 2)), lam=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gradient_descent_step_refused_before_projecting(self, bad):
        op = CountingOperator(IdentityOperator())
        spec = ObjectiveSpec(op, np.zeros((3, 3)))
        with pytest.raises(ShapeError, match="step"):
            gradient_descent(spec, np.ones((3, 3)), bad, 4)
        assert op.projected == []


@pytest.mark.parametrize("kind,moves", [("tikhonov", True),
                                        ("smoothed_tv", True)])
def test_only_a_regularizer_with_a_mu_term_adds_mu_to_the_step(kind, moves):
    spec, _ = ct_tikhonov(n=16)
    step = {mu: solvers.estimate_step(ObjectiveSpec(
        spec.op, spec.y, spec.lam, Regularizer(kind, mu=mu)), 16)
        for mu in (0.0, 7.0)}
    assert (step[7.0] != step[0.0]) == moves


def _solve(method, spec, x0, iters):
    if method == "gd":
        return gradient_descent(spec, x0, solvers.estimate_step(spec, 16),
                                iters)
    return qn_reconstruct(spec, x0, iters)[:2]


@pytest.mark.parametrize("method", ["gd", "qn"])
def test_trace_residual_and_step_norms_match_independent_norms(method):
    spec, x0 = ct_tikhonov(n=16)
    _, trace = _solve(method, spec, x0, 4)
    # each x_t again, from a run of t iterations, projected afresh
    xs = [x0] + [_solve(method, spec, x0, t)[0] for t in range(1, 5)]
    op = geo.ScanOperator(spec.op.geometry, 16, 16)
    for t, row in enumerate(trace):
        assert row["residual_norm"] == pytest.approx(
            np.linalg.norm(op.forward(xs[t]) - spec.y), rel=1e-9)
        if t == 0:
            assert np.isnan(row["step_norm"])
        else:
            assert row["step_norm"] == pytest.approx(
                np.linalg.norm(xs[t] - xs[t - 1]), rel=1e-9)
            assert row["step_norm"] > 0
    # step keeps its meaning: the fixed step, or the accepted alpha
    if method == "gd":
        assert [row["step"] for row in trace[1:]] == \
            [solvers.estimate_step(spec, 16)] * 4


def test_trace_residual_norm_is_read_from_each_point():
    spec, op, x0 = counting_ct_tikhonov()
    step = solvers.estimate_step(spec, 32)
    op.projected.clear()
    _, trace = gradient_descent(spec, x0, step, 2)
    assert len(op.projected) == 2 + 1
    assert all(np.isfinite(row["residual_norm"]) for row in trace)
    assert np.isnan(trace[0]["step_norm"]) and trace[1]["step_norm"] > 0
