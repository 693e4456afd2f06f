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

The line searches see J only along the search line, through _phi. For an
ObjectiveSpec, whose operator is linear, that restriction projects the
direction once: A(x + a d) - y = r + a Ad, so no trial step is projected.
Any other objective with value/grad is evaluated at x + a d as given.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

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

REG_NONE = "none"
REG_TIKHONOV = "tikhonov"
REG_SMOOTHED_TV = "smoothed_tv"


@dataclass(frozen=True)
class Regularizer:
    kind: str = REG_NONE
    mu: float = 0.0
    delta: float = 1e-3

    def __post_init__(self):
        if self.kind not in (REG_NONE, REG_TIKHONOV, REG_SMOOTHED_TV):
            raise ShapeError(f"unknown regularizer {self.kind!r}")
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ShapeError(
                f"regularizer weight mu must be finite and >= 0, got {self.mu}")
        if self.kind == REG_SMOOTHED_TV and not (np.isfinite(self.delta)
                                                 and self.delta > 0):
            raise ShapeError(
                f"smoothed TV needs a finite delta > 0, got {self.delta}")

    def value(self, x: np.ndarray) -> float:
        if self.kind == REG_NONE or self.mu == 0.0:
            return 0.0
        if self.kind == REG_TIKHONOV:
            return 0.5 * self.mu * float(np.sum(x * x))
        dx, dy = _forward_diff(x)
        return self.mu * float(np.sum(np.sqrt(dx * dx + dy * dy
                                              + self.delta * self.delta)))

    def grad(self, x: np.ndarray) -> np.ndarray:
        if self.kind == REG_NONE or self.mu == 0.0:
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


def _words(a: np.ndarray) -> np.ndarray:
    """a's bits, flat, as uint64 words (bytes if they do not fill whole
    words): a view, with no copy, when a is contiguous. Equal words are
    equal bits, so -0.0 and +0.0 differ and a NaN equals its own bits."""
    flat = np.ascontiguousarray(a).reshape(-1)
    return flat.view(np.uint64 if flat.nbytes % 8 == 0 else np.uint8)


@dataclass(frozen=True)
class ObjectiveSpec:
    """J(x) = lam/2 ||A x - y||^2 + R(x) with a pluggable linear operator.

    value(x) and grad(x) share one forward projection per point: the spec
    keeps the residual A x - y of the last x it evaluated, and reuses it
    while x has the same dtype, shape and bytes. It keeps a copy of that x,
    so an x mutated in place is projected afresh. Fields cannot be
    reassigned and y is a read-only copy, so the residual cannot go stale.

    line(x, d) restricts J to x + a d with one projection of d: the residual
    there is r(x) + a Ad, and it becomes the kept residual, so value and
    grad at that point project nothing more.
    """

    op: object
    y: np.ndarray
    lam: float = 1.0
    regularizer: Regularizer = field(default_factory=Regularizer)
    # (dtype, shape, a copy of the bits) of the last x projected, and its
    # residual
    _memo: tuple = field(default=(None, None), init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ShapeError(
                f"data weight lam must be finite and >= 0, got {self.lam}")
        y = np.array(self.y)
        y.flags.writeable = False
        object.__setattr__(self, "y", y)

    def __eq__(self, other):
        """Field equality with y compared by value; the residual is left out."""
        if not isinstance(other, ObjectiveSpec):
            return NotImplemented
        return ((self.op, self.lam, self.regularizer)
                == (other.op, other.lam, other.regularizer)
                and np.array_equal(self.y, other.y))

    @classmethod
    def for_geometry(cls, geometry: geo.Geometry, sino: geo.Sinogram,
                     h: int, w: int, lam: float = 1.0,
                     regularizer: Regularizer | None = None):
        return cls(geo.ScanOperator(geometry, h, w), sino.values, lam,
                   regularizer or Regularizer())

    def _residual(self, x: np.ndarray, caller: str,
                  known=None) -> np.ndarray:
        """A x - y, kept for the last x; known() gives it without a
        projection when the caller can form it."""
        x = np.asarray(x)
        words = _words(x)
        seen, r = self._memo
        if seen is not None and seen[:2] == (x.dtype, x.shape) \
                and not np.count_nonzero(seen[2] != words):
            return r
        r = self.op.forward(x) - self.y if known is None else known()
        if r.shape != self.y.shape:
            raise ShapeError(
                f"{caller}: operator output {r.shape} vs data {self.y.shape}"
            )
        r.flags.writeable = False
        object.__setattr__(self, "_memo",
                           ((x.dtype, x.shape, words.copy()), r))
        return r

    def value(self, x: np.ndarray) -> float:
        r = self._residual(x, "objective")
        r64 = r.astype(np.float64, copy=False)
        data = 0.5 * self.lam * float(np.sum(r64 ** 2))
        return data + self.regularizer.value(x)

    def grad(self, x: np.ndarray) -> np.ndarray:
        r = self._residual(x, "gradient")
        return self.lam * self.op.adjoint(r) + self.regularizer.grad(x)

    def residual_norm(self, x: np.ndarray) -> float:
        """|A x - y|, from the kept residual when x is the last point
        evaluated (the solvers ask only then), so it projects nothing."""
        r = self._residual(x, "residual norm")
        return float(np.linalg.norm(r.astype(np.float64, copy=False)))

    def line(self, x: np.ndarray, d: np.ndarray):
        """(value, slope) of J on x + a d, as _phi returns them.

        d is projected once; the residual at x + a d is r(x) + a Ad, not a
        new projection, so it can differ from A(x + a d) - y by round-off.
        """
        r0 = self._residual(x, "line search")
        Ad = self.op.forward(d)

        def point(a):
            xa = x + a * d
            self._residual(xa, "line search", lambda: r0 + a * Ad)
            return xa

        def value(a):
            return self.value(point(a))

        def slope(a):
            g = self.grad(point(a))
            return float(g.reshape(-1) @ d.reshape(-1)), g

        return value, slope


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

# "step" is the line search's alpha (qn) or the fixed step (gd); "si" is
# symmetry_index of the updated H, as in unroll.TRACE_COLUMNS, and gradient
# descent leaves it and secant_residual NaN. "residual_norm" is |A x_t - y|,
# NaN for an objective that keeps no residual (_residual_norm), and
# "step_norm" is |x_t - x_{t-1}|, NaN at t = 0.
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


def _residual_norm(spec, x) -> float:
    """|A x - y| of the point spec last evaluated, from the residual an
    ObjectiveSpec keeps; NaN for any other objective."""
    return spec.residual_norm(x) if isinstance(spec, ObjectiveSpec) \
        else np.nan


# ---------------------------------------------------------------------------
# gradient descent
# ---------------------------------------------------------------------------

def gradient_descent(spec, x0: np.ndarray, step: float, iters: int):
    """Fixed-step descent x <- x - step * grad J(x); returns (x, trace)."""
    if not (np.isfinite(step) and step >= 0):
        raise ShapeError(
            f"gradient_descent needs a finite step >= 0, got {step}")
    if iters < 1:
        raise ShapeError(f"gradient_descent needs iters >= 1, got {iters}")
    x = np.array(x0, dtype=np.float64, copy=True)
    j0 = spec.value(x)
    g = spec.grad(x)
    g_norm = np.linalg.norm(g)
    trace = [_trace_row(0, j0, g_norm, residual_norm=_residual_norm(spec, x))]
    limit = 10.0 * j0 + 1e-12
    for t in range(1, iters + 1):
        x = x - step * g
        j = spec.value(x)
        g = spec.grad(x)
        # the step taken is step * g: its norm needs no pass over x
        step_norm, g_norm = step * g_norm, np.linalg.norm(g)
        trace.append(_trace_row(t, j, g_norm, step,
                                residual_norm=_residual_norm(spec, x),
                                step_norm=step_norm))
        if j > limit:
            raise DivergenceError(
                f"gradient_descent diverged at iteration {t}: "
                f"J={j:.3e} > 10 * J0={j0:.3e}", trace=trace,
            )
    return x.astype(np.asarray(x0).dtype), trace


def estimate_step(spec, size: int) -> float:
    """1 / L for gradient_descent: 8 power iterations on lam AᵀA, plus mu."""
    v = substream(0, "init").normal(size=(size, size))
    for _ in range(8):
        v = spec.op.adjoint(spec.op.forward(v))
        v /= np.linalg.norm(v)
    lip = float(np.vdot(v, spec.op.adjoint(spec.op.forward(v))))
    return 1.0 / (spec.lam * lip + spec.regularizer.mu + 1e-12)


# ---------------------------------------------------------------------------
# BFGS machinery
# ---------------------------------------------------------------------------

def _inverse_curvature(s: np.ndarray, z: np.ndarray):
    """rho = 1 / z.s of a secant pair, or None when the update must be
    skipped: z.s below 1e-10 |s||z|, the positive-definiteness safeguard."""
    curvature = float(z @ s)
    eps = 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(z))
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
    scale = float(np.linalg.norm(g) * np.linalg.norm(Hz)
                  + np.linalg.norm(z) * np.linalg.norm(Hg))
    return gap / max(scale, 1e-300)


def secant_diagnostics(apply, s: np.ndarray, z: np.ndarray, g: np.ndarray):
    """(Hg, secant residual, symmetry_index) of an H known by products.

    apply(v) = H v, after H was updated with (s, z). The secant residual
    |Hz - s| / |s| is 0 when H z = s holds. Both read round-off for a
    correct H and cost two products; qn_reconstruct reuses Hg as its next
    direction.
    """
    Hz, Hg = apply(z), apply(g)
    secant = float(np.linalg.norm(Hz - s) / max(np.linalg.norm(s), 1e-300))
    return Hg, secant, symmetry_index(g, Hg, z, Hz)


# ---------------------------------------------------------------------------
# line searches
# ---------------------------------------------------------------------------
#
# A line search returns (alpha, J, grad) for the accepted point x + alpha d,
# with J or grad None where it did not evaluate them there; qn_reconstruct
# computes only what is missing.
#
# _phi restricts J to the line x + a d. An ObjectiveSpec gives its own
# restriction (ObjectiveSpec.line), which projects d once for every trial
# step and leaves the last trial as its kept residual; any other objective
# is evaluated at x + a d through its value and grad.

def _phi(spec, x, d):
    if isinstance(spec, ObjectiveSpec):
        return spec.line(x, d)

    def value(a):
        return spec.value(x + a * d)

    def slope(a):
        """(grad J . d, grad J) at x + a d."""
        g = spec.grad(x + a * d)
        return float(g.reshape(-1) @ d.reshape(-1)), g

    return value, slope


def fixed_step(spec, x, d, j0, g0d):
    return 1.0, None, None


def armijo(spec, x, d, j0, g0d):
    value, _ = _phi(spec, x, d)
    a = 1.0
    for _ in range(40):
        j = value(a)
        if j <= j0 + WOLFE_C1 * a * g0d:
            return a, j, None
        a *= 0.5
    return a, None, None


def strong_wolfe(spec, x, d, j0, g0d):
    """Bracket and zoom until both strong Wolfe conditions hold.

    Each trial step is evaluated once: the bracket ends enter _zoom with the
    value and slope already computed for them, starting from (0, j0, g0d).
    """
    value, slope = _phi(spec, x, d)
    a_prev, j_prev, sl_prev = 0.0, j0, g0d
    a = 1.0
    a_max = 64.0
    for i in range(25):
        j = value(a)
        if j > j0 + WOLFE_C1 * a * g0d or (i > 0 and j >= j_prev):
            return _zoom(value, slope, a_prev, j_prev, sl_prev, a, j, j0, g0d)
        sl, g = slope(a)
        if abs(sl) <= -WOLFE_C2 * g0d:
            return a, j, g
        if sl >= 0:
            return _zoom(value, slope, a, j, sl, a_prev, j_prev, j0, g0d)
        if a == a_max:
            return a, j, g
        a_prev, j_prev, sl_prev = a, j, sl
        a = min(2.0 * a, a_max)
    return a, None, None


def _zoom(value, slope, lo, j_lo, sl_lo, hi, j_hi, j0, g0d):
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
        j = value(a)
        if j > j0 + WOLFE_C1 * a * g0d or j >= j_lo:
            hi, j_hi = a, j
        else:
            sl, g = slope(a)
            if abs(sl) <= -WOLFE_C2 * g0d:
                return a, j, g
            if sl * (hi - lo) >= 0:
                hi, j_hi = lo, j_lo
            lo, j_lo, sl_lo = a, j, sl
        if abs(hi - lo) < 1e-14:
            break
    return 0.5 * (lo + hi), None, None


def exact_quadratic(spec, x, d, j0, g0d):
    """Exact minimizer along d for quadratic J: slope is linear in alpha."""
    _, slope = _phi(spec, x, d)
    s1, _ = slope(1.0)
    denom = s1 - g0d
    if denom <= 0:
        return 1.0, None, None
    return -g0d / denom, None, None

LINE_SEARCHES = {
    "fixed": fixed_step,
    "armijo": armijo,
    "strong-wolfe": strong_wolfe,
    "exact-quadratic": exact_quadratic,
}


# ---------------------------------------------------------------------------
# classical quasi-Newton reconstruction
# ---------------------------------------------------------------------------

def qn_reconstruct(spec, x0: np.ndarray, iters: int,
                   line_search: str = "strong-wolfe", gtol: float = 0.0):
    """BFGS minimization of the objective; returns (x, trace, state).

    The search direction is -H grad J, with H the full-memory BFGS inverse
    Hessian from H0 = I held as its curvature pairs (BfgsState), so work and
    memory grow as iters * x0.size, not x0.size**2. Refuses runs whose
    pairs could exceed HESSIAN_BYTE_LIMIT, before any projection.
    line_search is a LINE_SEARCHES name; J and grad at the point it
    accepts are reused.
    """
    if iters < 0:
        raise ShapeError(f"qn_reconstruct needs iters >= 0, got {iters}")
    x0 = np.asarray(x0)
    check_pair_budget(iters, x0.size, f"{x0.size} unknowns",
                      "run fewer iterations")
    search = LINE_SEARCHES[line_search]
    x = np.array(x0, dtype=np.float64)
    state = BfgsState()
    j = spec.value(x)
    g = spec.grad(x)
    Hg = g  # H0 = I
    limit = 10.0 * j + 1e-12
    si = 0.0  # the identity start is symmetric
    trace = [_trace_row(0, j, np.linalg.norm(g), si=si,
                        residual_norm=_residual_norm(spec, x))]
    for t in range(1, iters + 1):
        d = -Hg
        g0d = float(g.reshape(-1) @ d.reshape(-1))
        if g0d >= 0:
            # H lost descent property (should not happen with skips); reset
            log.warning("direction not a descent direction; resetting H")
            state = replace(state, pairs=[])
            si = 0.0
            d = -g
            g0d = float(g.reshape(-1) @ d.reshape(-1))
        alpha, j_new, g_new = search(spec, x, d, j, g0d)
        s = alpha * d
        x_new = x + s  # the point the search formed, bit for bit
        if g_new is None:
            g_new = spec.grad(x_new)
        z = g_new - g
        state, accepted = bfgs_update(state, s, z)
        if accepted:
            Hg, secant, si = secant_diagnostics(state.apply, s, z, g_new)
        else:
            # H is unchanged, and so is its symmetry probe
            Hg = state.apply(g_new)
            secant = np.nan
        x, g = x_new, g_new
        j = spec.value(x) if j_new is None else j_new
        trace.append(_trace_row(t, j, np.linalg.norm(g), alpha, secant, si,
                                _residual_norm(spec, x), np.linalg.norm(s)))
        if j > limit:
            raise DivergenceError(
                f"qn_reconstruct diverged at iteration {t}: J={j:.3e}",
                trace=trace,
            )
        if gtol > 0 and np.linalg.norm(g) < gtol:
            break
    return x.astype(x0.dtype), trace, state
