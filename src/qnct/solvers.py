"""Variational objective, handcrafted regularizers, and classical solvers.

Both quasi-Newton loops, the classical reconstructor here and the latent
loop of the unrolled model, refine an inverse-Hessian approximation H by
the rank-two secant update

    H' = (I - rho s z^T) H (I - rho z s^T) + rho s s^T,   rho = 1 / (z^T s),

which satisfies H'z = s exactly. Updates with non-positive curvature are
skipped (logged, never raised) so H stays positive definite.

Neither loop forms H. A BfgsState keeps every accepted pair (s, z, rho),
appended by bfgs_update, and applies H v by the two-loop recursion from
H0 = I (Nocedal 1980), which equals the chained update in exact arithmetic
at O(t n) work and memory after t pairs. The trace diagnostics come from
H-products alone: the secant residual |Hz - s| / |s|, and as "si" the
symmetry probe symmetry_index, |g.Hz - z.Hg| / (|g||Hz| + |z||Hg|), which
is 0 for a symmetric H up to round-off.

The objective is evaluated once per iterate. ObjectiveSpec.at(x) projects
x and returns a Point holding x and its residual r = A x - y, from which J,
grad J and |r| are computed on first use. The line searches see J only
along a Line from that Point: the operator is linear, so A(x + a d) - y =
r + a Ad, d is projected once and no trial step is projected. The Point a
search accepts, with what it computed, is the next iterate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import geometry as geo
from .errors import DivergenceError, MemoryGuardError, ShapeError
from .init import substream

log = logging.getLogger("qnct.solvers")

# bytes of curvature pairs either quasi-Newton loop may hold
HESSIAN_BYTE_LIMIT = 2**31
WOLFE_C1 = 1e-4  # sufficient decrease, the textbook value (Nocedal & Wright)
WOLFE_C2 = 0.9  # curvature, the textbook value


def check_pair_budget(updates: int, n: int, where: str, remedy: str):
    """Refuse a quasi-Newton loop whose curvature pairs, two float64
    n-vectors per update, could exceed HESSIAN_BYTE_LIMIT."""
    pair_bytes = 2 * updates * n * 8
    if pair_bytes > HESSIAN_BYTE_LIMIT:
        raise MemoryGuardError(
            f"curvature pairs for {updates} updates on {where} need "
            f"{pair_bytes} bytes, above the {HESSIAN_BYTE_LIMIT}-byte limit; "
            f"{remedy}")


# ---------------------------------------------------------------------------
# objective specification
# ---------------------------------------------------------------------------

REG_TIKHONOV = "tikhonov"
REG_SMOOTHED_TV = "smoothed_tv"
REGULARIZERS = (REG_TIKHONOV, REG_SMOOTHED_TV)


@dataclass(frozen=True)
class Regularizer:
    """R(x), weighted by mu; mu = 0 is no regularizer, whatever the kind."""

    kind: str = REG_TIKHONOV
    mu: float = 0.0
    delta: float = 1e-3

    def __post_init__(self):
        if self.kind not in REGULARIZERS:
            raise ShapeError(f"unknown regularizer {self.kind!r}")
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ShapeError(
                f"regularizer weight mu must be finite and >= 0, got {self.mu}")
        if self.kind == REG_SMOOTHED_TV and not (np.isfinite(self.delta)
                                                 and self.delta > 0):
            raise ShapeError(
                f"smoothed TV needs a finite delta > 0, got {self.delta}")

    def value(self, x: np.ndarray) -> float:
        if self.mu == 0.0:
            return 0.0
        if self.kind == REG_TIKHONOV:
            return 0.5 * self.mu * float(np.sum(x * x))
        dx, dy = _forward_diff(x)
        return self.mu * float(np.sum(np.sqrt(dx * dx + dy * dy
                                              + self.delta * self.delta)))

    def grad(self, x: np.ndarray) -> np.ndarray:
        if self.mu == 0.0:
            return np.zeros_like(x)
        if self.kind == REG_TIKHONOV:
            return self.mu * x
        dx, dy = _forward_diff(x)
        w = np.sqrt(dx * dx + dy * dy + self.delta * self.delta)
        return self.mu * _forward_diff_adjoint(dx / w, dy / w)


def _forward_diff(x):
    dx = np.zeros_like(x)
    dy = np.zeros_like(x)
    dx[:, :-1] = x[:, 1:] - x[:, :-1]
    dy[:-1, :] = x[1:, :] - x[:-1, :]
    return dx, dy


def _forward_diff_adjoint(u, v):
    out = np.zeros_like(u)
    out[:, :-1] -= u[:, :-1]
    out[:, 1:] += u[:, :-1]
    out[:-1, :] -= v[:-1, :]
    out[1:, :] += v[:-1, :]
    return out


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """J(x) = lam/2 ||A x - y||^2 + R(x) with a pluggable linear operator.

    at(x) projects x once and returns its Point, which holds x and the
    residual r = A x - y; J, grad J and |r| come from that r. Line(point,
    d) projects d once and yields trial Points x + a d whose residual is
    r + a Ad, so a trial costs no projection. The solvers pass Points along
    and never ask again about an x. value(x) and grad(x) are at(x).J and
    at(x).g, so each call projects x. Fields cannot be reassigned and y is
    a read-only copy.
    """

    op: object
    y: np.ndarray
    lam: float = 1.0
    regularizer: Regularizer = field(default_factory=Regularizer)

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ShapeError(
                f"data weight lam must be finite and >= 0, got {self.lam}")
        y = np.array(self.y)
        y.flags.writeable = False
        object.__setattr__(self, "y", y)

    @classmethod
    def for_geometry(cls, geometry: geo.Geometry, sino: geo.Sinogram,
                     h: int, w: int, lam: float = 1.0,
                     regularizer: Regularizer | None = None):
        return cls(geo.ScanOperator(geometry, h, w), sino.values, lam,
                   regularizer or Regularizer())

    def at(self, x: np.ndarray) -> Point:
        x = np.asarray(x)
        return Point(self, x, self.op.forward(x) - self.y)

    def value(self, x: np.ndarray) -> float:
        return self.at(x).J

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.at(x).g


@dataclass(frozen=True, eq=False)
class Point:
    """x and its residual r = A x - y under spec, read-only. J, grad J and
    |r| are computed from r on first use and kept. x is held, not copied:
    the point describes x as it was when the point was made."""

    spec: ObjectiveSpec
    x: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        if self.r.shape != self.spec.y.shape:
            raise ShapeError(f"objective: operator output {self.r.shape} "
                             f"vs data {self.spec.y.shape}")
        self.r.flags.writeable = False

    @cached_property
    def J(self) -> float:
        r64 = self.r.astype(np.float64, copy=False)
        data = 0.5 * self.spec.lam * float(np.sum(r64 ** 2))
        return data + self.spec.regularizer.value(self.x)

    @cached_property
    def g(self) -> np.ndarray:
        spec = self.spec
        return (spec.lam * spec.op.adjoint(self.r)
                + spec.regularizer.grad(self.x))

    @cached_property
    def residual_norm(self) -> float:
        return _norm(self.r.astype(np.float64, copy=False))


class Line:
    """J on x + a d from a Point at x, as the line searches see it.

    d is projected once, at the first trial; the trial Point at a has the
    residual r + a Ad, which can differ from A(x + a d) - y by round-off.
    The last trial is kept, so asking again for its a returns that Point
    with whatever it already computed.
    """

    def __init__(self, start: Point, d: np.ndarray):
        self.start, self.d = start, d
        self._Ad = None
        self._last = (None, None)

    def at(self, a: float) -> Point:
        last_a, point = self._last
        if a != last_a:
            if self._Ad is None:
                self._Ad = self.start.spec.op.forward(self.d)
            point = Point(self.start.spec, self.start.x + a * self.d,
                          self.start.r + a * self._Ad)
            self._last = (a, point)
        return point

    def value(self, a: float) -> float:
        return self.at(a).J

    def slope(self, a: float):
        """(grad J . d, the trial Point) at x + a d."""
        point = self.at(a)
        return float(point.g.reshape(-1) @ self.d.reshape(-1)), point


def _norm(v: np.ndarray) -> float:
    """|v| as np.linalg.norm computes it for a contiguous float64 v,
    sqrt(v . v), without its per-call overhead."""
    v = v.reshape(-1)
    return math.sqrt(v.dot(v))


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

# "step" is the line search's alpha (qn) or the fixed step (gd); "si" is
# symmetry_index of the updated H, as in unroll.TRACE_COLUMNS, and gradient
# descent leaves it and secant_residual NaN. "residual_norm" is |A x_t - y|,
# from the residual x_t's Point holds, and "step_norm" is |x_t - x_{t-1}|,
# NaN at t = 0.
TRACE_COLUMNS = ("iteration", "J", "grad_norm", "step", "secant_residual",
                 "si", "residual_norm", "step_norm")


def _trace_row(iteration, J, grad_norm, step=np.nan, secant=np.nan, si=np.nan,
               residual_norm=np.nan, step_norm=np.nan):
    return {
        "iteration": int(iteration),
        "J": float(J),
        "grad_norm": float(grad_norm),
        "step": float(step),
        "secant_residual": float(secant),
        "si": float(si),
        "residual_norm": float(residual_norm),
        "step_norm": float(step_norm),
    }


# ---------------------------------------------------------------------------
# gradient descent
# ---------------------------------------------------------------------------

def gradient_descent(spec: ObjectiveSpec, x0: np.ndarray, step: float,
                     iters: int):
    """Fixed-step descent x <- x - step * grad J(x); returns (x, trace)."""
    if not (np.isfinite(step) and step >= 0):
        raise ShapeError(
            f"gradient_descent needs a finite step >= 0, got {step}")
    if iters < 1:
        raise ShapeError(f"gradient_descent needs iters >= 1, got {iters}")
    p = spec.at(np.array(x0, dtype=np.float64, copy=True))
    j0, g_norm = p.J, _norm(p.g)
    trace = [_trace_row(0, j0, g_norm, residual_norm=p.residual_norm)]
    limit = 10.0 * j0 + 1e-12
    for t in range(1, iters + 1):
        p = spec.at(p.x - step * p.g)
        # the step taken is step * g: its norm needs no pass over x
        step_norm, g_norm = step * g_norm, _norm(p.g)
        trace.append(_trace_row(t, p.J, g_norm, step,
                                residual_norm=p.residual_norm,
                                step_norm=step_norm))
        if p.J > limit:
            raise DivergenceError(
                f"gradient_descent diverged at iteration {t}: "
                f"J={p.J:.3e} > 10 * J0={j0:.3e}", trace=trace,
            )
    return p.x.astype(np.asarray(x0).dtype), trace


def estimate_step(spec, size: int) -> float:
    """1 / L for gradient_descent: 8 power iterations on lam AᵀA, plus the
    regularizer's mu."""
    v = substream(0, "init").normal(size=(size, size))
    for _ in range(8):
        v = spec.op.adjoint(spec.op.forward(v))
        v /= _norm(v)
    lip = float(np.vdot(v, spec.op.adjoint(spec.op.forward(v))))
    return 1.0 / (spec.lam * lip + spec.regularizer.mu + 1e-12)


# ---------------------------------------------------------------------------
# BFGS machinery
# ---------------------------------------------------------------------------

def _inverse_curvature(s: np.ndarray, z: np.ndarray):
    """rho = 1 / z.s of a secant pair, or None when the update must be
    skipped: z.s below 1e-10 |s||z|, the positive-definiteness safeguard."""
    curvature = float(z @ s)
    eps = 1e-10 * _norm(s) * _norm(z)
    if curvature <= eps:
        log.info("BFGS update skipped: curvature %.3e <= %.3e", curvature, eps)
        return None
    return 1.0 / curvature


@dataclass
class BfgsState:
    """Inverse Hessian in product form: every accepted secant pair
    (s, z, rho), oldest first, and the count of skipped updates.

    H is the chain of secant updates over the pairs from H0 = I, never
    formed; apply(v) returns H v by the two-loop recursion in O(t n) for
    t pairs. H is symmetric, so apply is also its transpose.
    """

    pairs: list = field(default_factory=list)
    skips: int = 0

    def apply(self, v: np.ndarray) -> np.ndarray:
        q = np.array(v, dtype=np.float64).reshape(-1)
        alphas = []
        for s, z, rho in reversed(self.pairs):
            a = rho * float(s @ q)
            q -= a * z
            alphas.append(a)
        for (s, z, rho), a in zip(self.pairs, reversed(alphas)):
            q += (a - rho * float(z @ q)) * s
        return q.reshape(np.shape(v))


def bfgs_update(state: BfgsState, s: np.ndarray, z: np.ndarray):
    """One secant update of H; returns (state', accepted).

    Appends the pair (s, z, rho), or counts a skip when _inverse_curvature
    rejects it. The given state is left as it was.
    """
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    n = state.pairs[0][0].size if state.pairs else s.size
    if s.size != n or z.size != n:
        raise ShapeError(
            f"bfgs_update: s {s.shape}, z {z.shape} for an H of size {n}"
        )
    rho = _inverse_curvature(s, z)
    if rho is None:
        return replace(state, skips=state.skips + 1), False
    return replace(state, pairs=state.pairs + [(s, z, rho)]), True


def symmetry_index(g, Hg, z, Hz) -> float:
    """Symmetry probe |g.Hz - z.Hg| / (|g||Hz| + |z||Hg|) of an H known by
    its products with g and z: 0 for a symmetric H, up to round-off."""
    if not np.size(g) == np.size(Hg) == np.size(z) == np.size(Hz):
        raise ShapeError(
            f"symmetry_index: H must be square; g {np.shape(g)}, "
            f"Hg {np.shape(Hg)}, z {np.shape(z)}, Hz {np.shape(Hz)}"
        )
    gap = abs(float(np.vdot(g, Hz)) - float(np.vdot(z, Hg)))
    scale = _norm(g) * _norm(Hz) + _norm(z) * _norm(Hg)
    return gap / max(scale, 1e-300)


def secant_diagnostics(apply, s: np.ndarray, z: np.ndarray, g: np.ndarray,
                       index=None):
    """(Hg, secant residual, symmetry_index) of an H known by products.

    apply(v) = H v, after H was updated with (s, z). The secant residual
    |Hz - s| / |s| is 0 when H z = s holds. Both read round-off for a
    correct H and cost two products; qn_reconstruct reuses Hg as its next
    direction. index, when given, is called in symmetry_index's place: the
    latent model passes its own import of it, so perfbench times the latent
    probe under its layer.
    """
    Hz, Hg = apply(z), apply(g)
    secant = _norm(Hz - s) / max(_norm(s), 1e-300)
    return Hg, secant, (index or symmetry_index)(g, Hg, z, Hz)


# ---------------------------------------------------------------------------
# line searches
# ---------------------------------------------------------------------------
#
# A line search gets the Line through the current Point along d and the
# slope g0d = grad J . d there, and returns (alpha, Point at x + alpha d), or
# (alpha, None) where it evaluated no trial at alpha; qn_reconstruct then
# projects x + alpha d itself.

def strong_wolfe(line, g0d):
    """Bracket and zoom until both strong Wolfe conditions hold.

    Each trial step is evaluated once: the bracket ends enter _zoom with the
    value and slope already computed for them, starting from (0, J, g0d).
    """
    j0 = line.start.J
    a_prev, j_prev, sl_prev = 0.0, j0, g0d
    a = 1.0
    a_max = 64.0
    for i in range(25):
        j = line.value(a)
        if j > j0 + WOLFE_C1 * a * g0d or (i > 0 and j >= j_prev):
            return _zoom(line, a_prev, j_prev, sl_prev, a, j, j0, g0d)
        sl, point = line.slope(a)
        if abs(sl) <= -WOLFE_C2 * g0d:
            return a, point
        if sl >= 0:
            return _zoom(line, a, j, sl, a_prev, j_prev, j0, g0d)
        if a == a_max:
            return a, point
        a_prev, j_prev, sl_prev = a, j, sl
        a = min(2.0 * a, a_max)
    return a, None


def _zoom(line, lo, j_lo, sl_lo, hi, j_hi, j0, g0d):
    """Shrink the bracket [lo, hi], whose ends come evaluated: (J, slope)
    at lo and J at hi."""
    for _ in range(40):
        # safeguarded quadratic interpolation through (lo, j_lo, sl_lo) and
        # (hi, j_hi); exact for quadratic objectives, bisection otherwise
        span = hi - lo
        denom = j_hi - j_lo - sl_lo * span
        a = lo - 0.5 * sl_lo * span * span / denom if denom != 0 else None
        if a is None or not np.isfinite(a) or \
                not (min(lo, hi) + 1e-3 * abs(span) < a
                     < max(lo, hi) - 1e-3 * abs(span)):
            a = lo + 0.5 * span
        j = line.value(a)
        if j > j0 + WOLFE_C1 * a * g0d or j >= j_lo:
            hi, j_hi = a, j
        else:
            sl, point = line.slope(a)
            if abs(sl) <= -WOLFE_C2 * g0d:
                return a, point
            if sl * (hi - lo) >= 0:
                hi, j_hi = lo, j_lo
            lo, j_lo, sl_lo = a, j, sl
        if abs(hi - lo) < 1e-14:
            break
    return 0.5 * (lo + hi), None


def exact_quadratic(line, g0d):
    """Exact minimizer along d for quadratic J: slope is linear in alpha."""
    s1, _ = line.slope(1.0)
    denom = s1 - g0d
    if denom <= 0:
        return 1.0, None
    return -g0d / denom, None

LINE_SEARCHES = {
    "strong-wolfe": strong_wolfe,
    "exact-quadratic": exact_quadratic,
}


# ---------------------------------------------------------------------------
# classical quasi-Newton reconstruction
# ---------------------------------------------------------------------------

def qn_reconstruct(spec: ObjectiveSpec, x0: np.ndarray, iters: int,
                   line_search: str = "strong-wolfe", gtol: float = 0.0):
    """BFGS minimization of the objective; returns (x, trace, state).

    The search direction is -H grad J, with H the full-memory BFGS inverse
    Hessian from H0 = I held as its curvature pairs (BfgsState), so work and
    memory grow as iters * x0.size, not x0.size**2. Refuses runs whose
    pairs could exceed HESSIAN_BYTE_LIMIT, before any projection.
    line_search is a LINE_SEARCHES name; the Point it accepts becomes the
    next iterate, with the J and grad it already computed.
    """
    if iters < 0:
        raise ShapeError(f"qn_reconstruct needs iters >= 0, got {iters}")
    x0 = np.asarray(x0)
    check_pair_budget(iters, x0.size, f"{x0.size} unknowns",
                      "run fewer iterations")
    search = LINE_SEARCHES[line_search]
    p = spec.at(np.array(x0, dtype=np.float64))
    state = BfgsState()
    Hg = p.g  # H0 = I
    limit = 10.0 * p.J + 1e-12
    si = 0.0  # the identity start is symmetric
    trace = [_trace_row(0, p.J, _norm(p.g), si=si,
                        residual_norm=p.residual_norm)]
    for t in range(1, iters + 1):
        g = p.g
        d = -Hg
        g0d = float(g.reshape(-1) @ d.reshape(-1))
        if g0d >= 0:
            # H lost descent property (should not happen with skips); reset
            log.warning("direction not a descent direction; resetting H")
            state = replace(state, pairs=[])
            si = 0.0
            d = -g
            g0d = float(g.reshape(-1) @ d.reshape(-1))
        alpha, new = search(Line(p, d), g0d)
        s = alpha * d
        if new is None:
            new = spec.at(p.x + s)  # the point a trial would form, bit for bit
        z = new.g - g
        state, accepted = bfgs_update(state, s, z)
        if accepted:
            Hg, secant, si = secant_diagnostics(state.apply, s, z, new.g)
        else:
            # H is unchanged, and so is its symmetry probe
            Hg = state.apply(new.g)
            secant = np.nan
        p = new
        trace.append(_trace_row(t, p.J, _norm(p.g), alpha, secant, si,
                                p.residual_norm, _norm(s)))
        if p.J > limit:
            raise DivergenceError(
                f"qn_reconstruct diverged at iteration {t}: J={p.J:.3e}",
                trace=trace,
            )
        if gtol > 0 and _norm(p.g) < gtol:
            break
    return p.x.astype(x0.dtype), trace, state
