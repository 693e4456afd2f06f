"""Dense n-dimensional arrays with reverse-mode automatic differentiation.

The engine is a classic tape: every primitive records an ``OpNode`` holding
its inputs and a backward closure, and ``backward`` replays the recorded
nodes in exact reverse execution order (a valid reverse topological order,
and a deterministic one). Arrays are contiguous row-major numpy buffers,
float32 by default with float64 available for finite-difference work.

Conventions:
  - image tensors are NCHW;
  - broadcasting is limited to bias-add and scalar scaling, everything else
    requires explicit reshape/permute;
  - only leaf tensors with ``requires_grad`` receive a ``.grad`` buffer, and
    grads accumulate across backward calls until ``zero_grad``.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy.special import erf

from .errors import CheckpointError, FiniteCheckError, ShapeError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

_state = threading.local()


def _grad_enabled():
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that disables tape recording on this thread."""

    def __enter__(self):
        self._prev = _grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


_debug_finite = False


def set_debug_checks(enabled: bool):
    """Toggle the NaN/Inf check that runs after every primitive op."""
    global _debug_finite
    _debug_finite = bool(enabled)


_seq_counter = 0


def _next_seq():
    global _seq_counter
    _seq_counter += 1
    return _seq_counter


class OpNode:
    """One recorded primitive: inputs, backward closure, execution index."""

    __slots__ = ("op", "inputs", "backward_fn", "seq")

    def __init__(self, op, inputs, backward_fn):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.seq = _next_seq()


class Tensor:
    """Contiguous row-major array, optionally tracked by the tape."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor has shape {self.shape}, expected a scalar")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self):
        self.grad = None

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype), requires_grad=self.requires_grad)

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``.grad``."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward: output has shape {self.shape}, expected a scalar"
            )
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

    # Small operator sugar used throughout the network code.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale_const(self, float(other))
        return mul(self, other)

    def __neg__(self):
        return scale_const(self, -1.0)


def _check_finite(op, out):
    if _debug_finite and not np.all(np.isfinite(out)):
        raise FiniteCheckError(f"{op}: non-finite values in output")


def _result(op, out, inputs, backward_fn):
    """Wrap a primitive output, recording a node when the tape is active."""
    _check_finite(op, out)
    t = Tensor(out)
    if _grad_enabled() and any(i.requires_grad for i in inputs):
        t.requires_grad = True
        t.node = OpNode(op, inputs, backward_fn)
    return t


def _same_dtype(op, *tensors):
    dt = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dt:
            raise ShapeError(f"{op}: mixed dtypes {[str(x.dtype) for x in tensors]}")
    return dt


def backward(out: Tensor):
    if out.node is None:
        if out.requires_grad:
            if out.grad is None:
                out.grad = np.zeros_like(out.data)
            out.grad += np.ones_like(out.data)
        return
    # Walk back from `out` to map each recorded node to its output tensor,
    # then replay newest-first: the exact reverse of execution order, which
    # keeps every reduction deterministic.
    node_out = {}
    stack = [out]
    while stack:
        t = stack.pop()
        if t.node is None or id(t.node) in node_out:
            continue
        node_out[id(t.node)] = t
        for inp in t.node.inputs:
            stack.append(inp)
    ordered = sorted(node_out.values(), key=lambda t: t.node.seq, reverse=True)

    grads = {id(out): np.ones_like(out.data)}
    for t in ordered:
        g = grads.pop(id(t), None)
        if g is None:
            continue
        in_grads = t.node.backward_fn(g)
        for inp, ig in zip(t.node.inputs, in_grads):
            if ig is None:
                continue
            if inp.node is None:
                if inp.requires_grad:
                    if inp.grad is None:
                        inp.grad = np.zeros_like(inp.data)
                    inp.grad += ig
            else:
                key = id(inp)
                if key in grads:
                    grads[key] = grads[key] + ig
                else:
                    grads[key] = ig


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("add", a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} vs {b.shape}")
    return _result("add", a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("sub", a, b)
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes {a.shape} vs {b.shape}")
    return _result("sub", a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; one operand may be a 0-d/1-element scalar."""
    _same_dtype("mul", a, b)
    if a.shape != b.shape:
        if b.size == 1:
            bd = b.data.reshape(())

            def bw(g, a=a, b=b, bd=bd):
                return (g * bd, np.sum(g * a.data).reshape(b.shape))

            return _result("mul", a.data * bd, (a, b), bw)
        if a.size == 1:
            return mul(b, a)
        raise ShapeError(f"mul: shapes {a.shape} vs {b.shape}")
    return _result(
        "mul", a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data)
    )


def scale_const(a: Tensor, c: float) -> Tensor:
    return _result("scale_const", a.data * c, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("matmul", a, b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} vs {b.shape}")
    return _result(
        "matmul",
        a.data @ b.data,
        (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g),
    )


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map on the last axis: y[..., o] = x[..., i] w[i, o] (+ b[o])."""
    _same_dtype("linear", *( [x, w] + ([b] if b is not None else []) ))
    if w.data.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input {x.shape} vs weight {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias {b.shape} vs weight {w.shape}")
    lead = x.shape[:-1]
    x2 = x.data.reshape(-1, x.shape[-1])
    out = x2 @ w.data
    if b is not None:
        out = out + b.data

    def bw(g, lead=lead):
        g2 = g.reshape(-1, w.shape[1])
        gx = (g2 @ w.data.T).reshape(x.shape)
        gw = x2.T @ g2
        gb = g2.sum(axis=0) if b is not None else None
        return (gx, gw, gb) if b is not None else (gx, gw)

    inputs = (x, w) if b is None else (x, w, b)
    return _result("linear", out.reshape(*lead, w.shape[1]), inputs, bw)


def _pad_nchw(x, padding):
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _conv_out_size(op, size, k, stride, padding):
    span = size + 2 * padding - k
    if span < 0 or span % stride != 0:
        raise ShapeError(
            f"{op}: size {size} with kernel {k}, stride {stride}, padding {padding} "
            "does not divide evenly"
        )
    return span // stride + 1


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1,
           padding: int = 0) -> Tensor:
    """NCHW cross-correlation with kernel w of shape (out_c, in_c, kh, kw)."""
    _same_dtype("conv2d", *( [x, w] + ([b] if b is not None else []) ))
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: input {x.shape}, kernel {w.shape}")
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    if ic != c:
        raise ShapeError(f"conv2d: input channels {c} vs kernel channels {ic}")
    if b is not None and b.shape != (oc,):
        raise ShapeError(f"conv2d: bias {b.shape} vs out channels {oc}")
    oh = _conv_out_size("conv2d", h, kh, stride, padding)
    ow = _conv_out_size("conv2d", wd, kw, stride, padding)

    xp = _pad_nchw(x.data, padding)
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (n, c, oh, ow, kh, kw)
    # im2col GEMM: rows are output positions, columns c*kh*kw taps
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n * oh * ow, c * kh * kw)
    wmat = w.data.reshape(oc, c * kh * kw).T
    out = cols @ wmat
    if b is not None:
        out = out + b.data
    out = np.ascontiguousarray(
        out.reshape(n, oh, ow, oc).transpose(0, 3, 1, 2))

    def bw(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(
            n * oh * ow, oc)
        gw = (cols.T @ gmat).T.reshape(oc, c, kh, kw)
        gcols = (gmat @ wmat.T).reshape(n, oh, ow, c, kh, kw)
        gxp = np.zeros_like(xp)
        for ki in range(kh):
            for kj in range(kw):
                gxp[:, :, ki:ki + oh * stride:stride,
                    kj:kj + ow * stride:stride] += \
                    gcols[:, :, :, :, ki, kj].transpose(0, 3, 1, 2)
        if padding:
            gx = gxp[:, :, padding:padding + h, padding:padding + wd]
        else:
            gx = gxp
        gb = gmat.sum(axis=0) if b is not None else None
        return (gx, gw, gb) if b is not None else (gx, gw)

    inputs = (x, w) if b is None else (x, w, b)
    return _result("conv2d", out, inputs, bw)


def conv_transpose2d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """2x upsampling transposed conv, kernel 2 stride 2, w: (in_c, out_c, 2, 2)."""
    _same_dtype("conv_transpose2d", *( [x, w] + ([b] if b is not None else []) ))
    if x.data.ndim != 4 or w.data.ndim != 4 or w.shape[2:] != (2, 2):
        raise ShapeError(f"conv_transpose2d: input {x.shape}, kernel {w.shape}")
    n, c, h, wd = x.shape
    ic, oc, _, _ = w.shape
    if ic != c:
        raise ShapeError(f"conv_transpose2d: input channels {c} vs kernel {ic}")
    if b is not None and b.shape != (oc,):
        raise ShapeError(f"conv_transpose2d: bias {b.shape} vs out channels {oc}")
    xmat = np.ascontiguousarray(x.data.transpose(0, 2, 3, 1)).reshape(
        n * h * wd, c)
    out = np.zeros((n, oc, 2 * h, 2 * wd), dtype=x.dtype)
    for ki in range(2):
        for kj in range(2):
            piece = (xmat @ w.data[:, :, ki, kj]).reshape(n, h, wd, oc)
            out[:, :, ki::2, kj::2] = piece.transpose(0, 3, 1, 2)
    if b is not None:
        out += b.data[None, :, None, None]

    def bw(g):
        gxm = np.zeros_like(xmat)
        gw = np.zeros_like(w.data)
        for ki in range(2):
            for kj in range(2):
                gpart = np.ascontiguousarray(
                    g[:, :, ki::2, kj::2].transpose(0, 2, 3, 1)).reshape(
                    n * h * wd, oc)
                gxm += gpart @ w.data[:, :, ki, kj].T
                gw[:, :, ki, kj] = xmat.T @ gpart
        gx = np.ascontiguousarray(
            gxm.reshape(n, h, wd, c).transpose(0, 3, 1, 2))
        gb = g.sum(axis=(0, 2, 3)) if b is not None else None
        return (gx, gw, gb) if b is not None else (gx, gw)

    inputs = (x, w) if b is None else (x, w, b)
    return _result("conv_transpose2d", out, inputs, bw)


def maxpool2d(x: Tensor, kernel: int, stride: int | None = None,
              padding: int = 0) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d: input {x.shape}")
    stride = kernel if stride is None else stride
    n, c, h, wd = x.shape
    oh = _conv_out_size("maxpool2d", h, kernel, stride, padding)
    ow = _conv_out_size("maxpool2d", wd, kernel, stride, padding)
    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                    constant_values=-np.inf)
    else:
        xp = x.data
    win = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    win = win[:, :, ::stride, ::stride].reshape(n, c, oh, ow, kernel * kernel)
    arg = np.argmax(win, axis=-1)
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    out = np.ascontiguousarray(out)

    def bw(g):
        gxp = np.zeros_like(xp, dtype=x.dtype)
        ki, kj = np.divmod(arg, kernel)
        ii = (np.arange(oh)[None, None, :, None] * stride + ki)
        jj = (np.arange(ow)[None, None, None, :] * stride + kj)
        nn = np.arange(n)[:, None, None, None]
        cc = np.arange(c)[None, :, None, None]
        np.add.at(gxp, (nn, cc, ii, jj), g)
        if padding:
            return (gxp[:, :, padding:padding + h, padding:padding + wd],)
        return (gxp,)

    return _result("maxpool2d", out, (x,), bw)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit, 0.5 x (1 + erf(x / sqrt 2))."""
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd * _INV_SQRT2))
    out = (xd * cdf).astype(x.dtype)

    def bw(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
        return ((g * (cdf + xd * pdf)).astype(x.dtype),)

    return _result("gelu", out, (x,), bw)


def prelu(x: Tensor, slopes: Tensor) -> Tensor:
    """Channelwise parametric ReLU on NCHW input; one slope per channel."""
    if x.data.ndim != 4 or slopes.data.ndim != 1 or slopes.shape[0] != x.shape[1]:
        raise ShapeError(f"prelu: input {x.shape}, slopes {slopes.shape}")
    _same_dtype("prelu", x, slopes)
    pos = x.data > 0
    a = slopes.data[None, :, None, None]
    out = np.where(pos, x.data, a * x.data)

    def bw(g):
        gx = np.where(pos, g, a * g)
        ga = np.where(pos, 0.0, g * x.data).sum(axis=(0, 2, 3))
        return gx.astype(x.dtype), ga.astype(x.dtype)

    return _result("prelu", out, (x, slopes), bw)


def _norm_backward(g, xhat, inv_std, axes):
    """Shared backward for layer/instance norm over the normalized axes."""
    m = np.prod([g.shape[ax] for ax in axes])
    gsum = g.sum(axis=axes, keepdims=True)
    gxhat_sum = (g * xhat).sum(axis=axes, keepdims=True)
    return inv_std * (g - gsum / m - xhat * gxhat_sum / m)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: affine {gamma.shape}/{beta.shape} vs feature dim {d}"
        )
    _same_dtype("layer_norm", x, gamma, beta)
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv_std
    out = xhat * gamma.data + beta.data

    def bw(g):
        ggamma = (g * xhat).reshape(-1, d).sum(axis=0)
        gbeta = g.reshape(-1, d).sum(axis=0)
        gx = _norm_backward(g * gamma.data, xhat, inv_std, (-1,))
        return gx.astype(x.dtype), ggamma.astype(x.dtype), gbeta.astype(x.dtype)

    return _result("layer_norm", out.astype(x.dtype), (x, gamma, beta), bw)


def instance_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each (sample, channel) plane of NCHW input, then affine."""
    if x.data.ndim != 4:
        raise ShapeError(f"instance_norm: input {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"instance_norm: affine {gamma.shape}/{beta.shape} vs channels {c}"
        )
    _same_dtype("instance_norm", x, gamma, beta)
    mean = x.data.mean(axis=(2, 3), keepdims=True)
    var = x.data.var(axis=(2, 3), keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv_std
    out = xhat * gamma.data[None, :, None, None] + beta.data[None, :, None, None]

    def bw(g):
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        gbeta = g.sum(axis=(0, 2, 3))
        gx = _norm_backward(g * gamma.data[None, :, None, None], xhat, inv_std, (2, 3))
        return gx.astype(x.dtype), ggamma.astype(x.dtype), gbeta.astype(x.dtype)

    return _result("instance_norm", out.astype(x.dtype), (x, gamma, beta), bw)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: {x.shape} -> {shape}")
    return _result(
        "reshape", x.data.reshape(shape), (x,), lambda g: (g.reshape(x.shape),)
    )


def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"permute: axes {axes} for shape {x.shape}")
    inv = tuple(np.argsort(axes))
    return _result(
        "permute",
        np.ascontiguousarray(x.data.transpose(axes)),
        (x,),
        lambda g: (np.ascontiguousarray(g.transpose(inv)),),
    )


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = list(tensors)
    _same_dtype("concat", *tensors)
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != len(base) or any(
            o != b for i, (o, b) in enumerate(zip(other, base)) if i != axis
        ):
            raise ShapeError(f"concat: shapes {[t.shape for t in tensors]}")
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _result(
        "concat", np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw
    )


def mean(x: Tensor) -> Tensor:
    n = x.size
    return _result(
        "mean",
        np.asarray(x.data.mean(), dtype=x.dtype),
        (x,),
        lambda g: (np.full(x.shape, g / n, dtype=x.dtype),),
    )


def sum_of_squares(x: Tensor) -> Tensor:
    return _result(
        "sum_of_squares",
        np.asarray(np.sum(x.data.astype(np.float64) ** 2), dtype=x.dtype),
        (x,),
        lambda g: ((2.0 * g * x.data).astype(x.dtype),),
    )


def linear_operator(x: Tensor, fwd, adj, name: str = "linear_operator") -> Tensor:
    """Record an arbitrary linear map with a known adjoint as one node.

    ``fwd`` and ``adj`` are numpy functions; the op is differentiable with
    backward g -> adj(g). The caller guarantees adj is the exact transpose.
    """
    out = np.asarray(fwd(x.data), dtype=x.dtype)
    return _result(name, out, (x,), lambda g: (np.asarray(adj(g), dtype=x.dtype),))


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, tensors, eps: float = 1e-6, max_coords: int = 200,
               seed: int = 0) -> dict:
    """Compare analytic gradients of scalar ``f(`` against central differences.

    ``tensors`` are the leaves to perturb; every tensor must be float64 and
    is checked on all coordinates, or on a seeded random subset once it has
    more than ``max_coords`` entries. Frozen tensors (requires_grad False)
    are skipped and reported as absent. Returns a report with the max
    relative error over all checked coordinates.
    """
    if isinstance(tensors, Tensor):
        tensors = [tensors]
    for t in tensors:
        if t.dtype != np.float64:
            raise ShapeError("grad_check: tensors must be float64")

    for t in tensors:
        t.zero_grad()
    out = f()
    if out.size != 1:
        raise ShapeError(f"grad_check: f returned shape {out.shape}, expected scalar")
    out.backward()

    rng = np.random.default_rng(seed)
    report = {"max_rel_err": 0.0, "per_tensor": []}
    # Coordinates whose gradient sits far below the problem's gradient scale
    # (including exactly-dead parameters, e.g. a bias swallowed by a norm)
    # live in the FD roundoff regime; a floor tied to the global scale keeps
    # the relative error meaningful there without hiding grad-sized bugs.
    scale = 0.0
    for t in tensors:
        if t.requires_grad and t.grad is not None:
            scale = max(scale, float(np.max(np.abs(t.grad), initial=0.0)))
    floor = max(1e-2 * scale, 1e-10)
    for idx, t in enumerate(tensors):
        if not t.requires_grad:
            report["per_tensor"].append({"index": idx, "checked": 0, "frozen": True})
            continue
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        flat = t.data.reshape(-1)
        n = flat.size
        coords = (np.arange(n) if n <= max_coords
                  else np.sort(rng.choice(n, size=max_coords, replace=False)))
        worst = 0.0
        for c in coords:
            orig = flat[c]
            with no_grad():
                flat[c] = orig + eps
                fp = f().item()
                flat[c] = orig - eps
                fm = f().item()
            flat[c] = orig
            fd = (fp - fm) / (2.0 * eps)
            a = analytic.reshape(-1)[c]
            denom = max(abs(a), abs(fd), floor)
            worst = max(worst, abs(a - fd) / denom)
        report["per_tensor"].append(
            {"index": idx, "checked": int(len(coords)), "max_rel_err": worst}
        )
        report["max_rel_err"] = max(report["max_rel_err"], worst)
    return report


# ---------------------------------------------------------------------------
# parameter checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = "NDCKPT1"


def save_checkpoint(params: dict, path, meta: dict | None = None):
    """Write named tensors: plain-text manifest, then little-endian f32 payload.

    Manifest line: ``<name> <dim0,dim1,...> <byte offset>``. Optional meta
    key=value lines are prefixed with ``#``. Round trips are bit exact.
    """
    names = list(params)
    arrays = []
    for name in names:
        t = params[name]
        arr = t.data if isinstance(t, Tensor) else np.asarray(t)
        arrays.append(np.ascontiguousarray(arr, dtype="<f4"))
    lines = [f"{_CKPT_MAGIC} {len(names)}"]
    for key, value in (meta or {}).items():
        lines.append(f"# {key}={value}")
    offset = 0
    for name, arr in zip(names, arrays):
        shape = ",".join(str(d) for d in arr.shape) or "1"
        lines.append(f"{name} {shape} {offset}")
        offset += arr.nbytes
    lines.append("END")
    header = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in arrays:
            fh.write(arr.tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (dict name -> float32 ndarray, meta dict)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    end = blob.find(b"END\n")
    if end < 0:
        raise CheckpointError(f"{path}: missing END marker")
    payload = blob[end + 4:]
    try:
        header = blob[:end].decode("ascii").splitlines()
        if not header or not header[0].startswith(_CKPT_MAGIC):
            raise CheckpointError(f"{path}: bad magic")
        n = int(header[0].split()[1])
        meta = {}
        entries = []
        for line in header[1:]:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value
                continue
            name, shape_s, off_s = line.rsplit(" ", 2)
            shape = tuple(int(d) for d in shape_s.split(","))
            entries.append((name, shape, int(off_s)))
    except (ValueError, IndexError) as exc:
        raise CheckpointError(f"{path}: malformed manifest ({exc})") from None
    if len(entries) != n:
        raise CheckpointError(f"{path}: manifest lists {len(entries)} of {n} entries")
    out = {}
    for name, shape, off in entries:
        count = math.prod(shape)
        if min(shape) < 0 or off < 0 or off + 4 * count > len(payload):
            raise CheckpointError(
                f"{path}: entry {name} {shape} at byte {off} does not fit the "
                f"{len(payload)}-byte payload (truncated file?)")
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=off)
        out[name] = arr.reshape(shape).copy()
    return out, meta
