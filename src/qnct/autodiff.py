"""Dense n-dimensional arrays with reverse-mode automatic differentiation.

The engine is a classic tape: every primitive records an ``OpNode`` linking
to its inputs' nodes and holding a backward closure, and ``backward``
replays the recorded nodes in exact reverse execution order (a valid
reverse topological order, and a deterministic one). Arrays are contiguous row-major numpy buffers,
float32 by default with float64 available for finite-difference work.

Conventions:
  - image tensors are NCHW;
  - conv2d is stride 1, one GEMM per sample, W (oc, c*kh*kw) @ cols, with
    one row of cols per (channel, tap), so it writes NCHW directly. x is
    padded once into flat planes of width wp = w + 2p (one spare row),
    where tap (ki, kj) is the contiguous slice from ki*wp + kj of length
    oh*wp. The GEMM output is oh rows of wp pixels; the last kw - 1 of
    each row are dropped. Backward forms Wᵀ g on the same wide grid (g
    zero-padded to wp columns) and adds each tap back as a contiguous
    slice. A 1x1 conv with no padding uses x itself (the mixer's patch
    embedding is one, over a space-to-depth view). gW is one GEMM over
    the batch with the compact (c*kh*kw, n*oh*ow) columns, rebuilt tap by
    tap from x (an input the closure already reads): the tape keeps no
    column matrix;
    conv_transpose2d is the same GEMM with the roles of x and g swapped;
  - a primitive returns outputs and gradients in its inputs' dtype and
    computes in it: float32 work stays float32, float64 (grad_check) stays
    float64. Constants in kernels are Python numbers, never numpy scalars,
    which NumPy 2 promotion (NEP 50) treats as strongly typed: a float64
    or int64 scalar turns a float32 array expression into float64 work;
  - broadcasting is limited to bias-add and scalar scaling (mul's second
    operand), everything else requires explicit reshape/permute;
  - no primitive calls another, so ``profile`` times each call once;
  - only leaf tensors with ``requires_grad`` receive a ``.grad`` buffer, and
    grads accumulate across backward calls until ``zero_grad``;
  - a node keeps links, not arrays: ``OpNode.inputs`` holds the producing
    ``OpNode`` for an input another node made, and the Tensor itself for a
    leaf (a weight or a constant the caller holds). An activation lives on
    only while a backward closure reads it and its producer cannot rebuild
    it;
  - an op whose output is a cheap function of what its own backward keeps
    gives its node a ``rebuild``, and its forward computes the output by
    calling that rebuild, so a rebuilt array is bit-equal to the forward's:
      * prelu, from its input (which its backward reads);
      * layer_norm and instance_norm_prelu, from xhat and the affine
        weights;
      * permute, reshape and concat, when every input has a rebuild (else
        the node would hold input arrays its backward does not read);
  - conv2d, conv_transpose2d, linear and mlp read their input in backward
    through a reader (``_reader``): the producer's rebuild where it has
    one, else the array; they never hold the input Tensor. prelu, mul and
    sum_of_squares hold the input arrays they read. A closure that needs
    only a shape or a dtype captures that value, so the inputs of add, sub,
    concat, permute, reshape, mean, the norms, maxpool2d and linear
    operators are freed as soon as the forward drops them;
  - a backward closure keeps only what it cannot rebuild for less than a
    GEMM. Beyond the inputs they read, the ops keep:
      * mlp (linear, exact GELU, linear as one node): cdf(u); backward
        rebuilds u = x w1 + b1 with the forward's GEMM and add, and the
        hidden output u cdf(u);
      * layer_norm and instance_norm_prelu: xhat and 1 / std;
        instance_norm_prelu rebuilds the PReLU's input xhat gamma + beta;
      * maxpool2d: one tap index per output pixel;
      * conv2d, conv_transpose2d and prelu: nothing; conv2d rebuilds its
        columns from x, and prelu its per-element slopes from x;
  - closures and rebuilds read weights when backward runs: a step updates
    its weights only after its backward pass;
  - ``backward`` releases each node right after replaying it (its closure,
    its input links and its rebuild), so the tape's memory returns while
    backward runs. A graph supports one backward: a second one through a
    released node raises ``GraphReleasedError``; rebuild the graph to
    differentiate it again.
"""

from __future__ import annotations

import collections
import functools
import math
import threading
import time
import types

import numpy as np

from .errors import CheckpointError, GraphReleasedError, ShapeError

# Python floats, not numpy scalars: they keep float32 kernels in float32.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_NORM_EPS = 1e-5  # added to the variance by both norms


class _State(threading.local):
    """Per-thread tape state. The class attributes are every thread's
    defaults, so reading one is a plain attribute lookup: getattr with a
    default on a bare threading.local raises and catches an AttributeError,
    about ten times slower, on every primitive call."""

    grad_enabled = True
    profile = None


_state = _State()


class no_grad:
    """Context manager that disables tape recording on this thread."""

    def __enter__(self):
        self._prev = _state.grad_enabled
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class profile:
    """Context manager that records per-op calls, wall time and the bytes
    kept for backward, on this thread.

    Keys are ``OpNode.op``: the primitive's name, or the name given to
    ``linear_operator``. Forward time runs from the primitive's entry to
    its ``_result``; backward time is the op's backward closure in
    the replay of ``backward``, less the rebuilds it reads. Those go to the
    op that made the rebuilt array: ``rebuilds`` counts its rebuild calls
    and ``rebuild_ms`` is their time, less the time of the rebuilds they
    read in turn. ``kept_bytes`` sums, over the op's recorded
    nodes, the arrays its backward closure references that are neither its
    inputs' data nor its output (``_kept_bytes``): what the tape holds for
    this op beyond the activations its closure reads (a node holds no
    input array of its own). Off by default; when off, each
    primitive call pays a wrapper call and two thread-local lookups, and
    each rebuild read in backward one lookup: under 0.1 % of a desk
    training step.

        with ad.profile() as prof:
            loss = model(x)
            loss.backward()
        prof.stats  # {op: {"calls": n, "forward_ms": f, "backward_ms": b,
                    #       "rebuilds": r, "rebuild_ms": m, "kept_bytes": k}}
    """

    def __init__(self):
        self.stats = collections.defaultdict(
            lambda: {"calls": 0, "forward_ms": 0.0, "backward_ms": 0.0,
                     "rebuilds": 0, "rebuild_ms": 0.0, "kept_bytes": 0})
        self._entered = None  # perf_counter() at the last primitive's entry
        self._rebuilt_ms = 0.0  # rebuild time inside the timed closure

    def __enter__(self):
        self._prev = _profiler()
        _state.profile = self
        return self

    def __exit__(self, *exc):
        _state.profile = self._prev
        return False


def _profiler():
    return _state.profile


def _primitive(fn):
    """Mark a primitive's entry for an active ``profile``."""

    @functools.wraps(fn)
    def marked(*args, **kwargs):
        prof = _state.profile
        if prof is not None:
            prof._entered = time.perf_counter()
        return fn(*args, **kwargs)

    return marked


_seq_counter = 0


def _next_seq():
    global _seq_counter
    _seq_counter += 1
    return _seq_counter


class OpNode:
    """One recorded primitive: links to its inputs, backward closure,
    execution index, and the rebuild of its output, if it has one.

    ``inputs`` holds, per input, the node that made it, or the input itself
    when it is a leaf (a weight or a constant). Either way the entry's
    ``.node`` is the producing node (a node's ``node`` is itself), or None
    for a leaf.
    ``rebuild`` is None or a function of no arguments that recomputes the
    output from what the node's backward keeps (see ``_reader``)."""

    __slots__ = ("op", "inputs", "backward_fn", "rebuild", "seq")

    def __init__(self, op, inputs, backward_fn, rebuild=None):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.rebuild = rebuild
        self.seq = _next_seq()

    @property
    def node(self):
        return self


class Tensor:
    """Contiguous row-major array, optionally tracked by the tape."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
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

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``.grad``."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward: output has shape {self.shape}, expected a scalar"
            )
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


def _result(op, out, inputs, backward_fn, rebuild=None):
    """Wrap a primitive output, recording a node when the tape is active.

    ``rebuild``, when given, is the function that computed ``out``; the
    node keeps it for the consumers that read ``out`` in backward."""
    t = Tensor(out)
    if _state.grad_enabled and any(i.requires_grad for i in inputs):
        t.requires_grad = True
        t.node = OpNode(op, tuple(i.node or i for i in inputs),
                        backward_fn, rebuild)
    prof = _state.profile
    if prof is not None:
        entry = prof.stats[op]
        entry["calls"] += 1
        entry["forward_ms"] += 1e3 * (time.perf_counter() - prof._entered)
        if t.node is not None:
            entry["kept_bytes"] += _kept_bytes(backward_fn, inputs, t.data)
    return t


def _buffer(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _kept_bytes(backward_fn, inputs, out: np.ndarray) -> int:
    """Bytes of the arrays ``backward_fn`` references, through its closure
    cells and defaults (and the Tensors, tuples and lists among them), that
    are neither an input's data nor ``out``; each buffer counted once.
    Helpers the primitive defined (a ``__qualname__`` in the closure's own
    scope, like conv2d's ``weight_columns``) are followed in turn; input
    readers, rebuilds and a linear operator's maps belong to others."""
    skip = {id(_buffer(t.data)) for t in inputs} | {id(_buffer(out))}
    scope = backward_fn.__qualname__.rpartition(".")[0] + "."
    values = [backward_fn]
    followed = set()
    kept = {}
    while values:
        v = values.pop()
        if isinstance(v, Tensor):
            v = v.data
        if isinstance(v, (tuple, list)):
            values.extend(v)
        elif isinstance(v, np.ndarray):
            buf = _buffer(v)
            if id(buf) not in skip:
                kept[id(buf)] = buf.nbytes
        elif isinstance(v, types.FunctionType) and id(v) not in followed \
                and (v is backward_fn or v.__qualname__.startswith(scope)):
            followed.add(id(v))
            values += [cell.cell_contents for cell in v.__closure__ or ()]
            values += v.__defaults__ or ()
    return sum(kept.values())


def _same_dtype(op, *tensors):
    dt = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dt:
            raise ShapeError(f"{op}: mixed dtypes {[str(x.dtype) for x in tensors]}")
    return dt


def _reader(t: Tensor):
    """What a backward closure calls to read input t's array. It holds
    neither t nor, where the node that made t can rebuild it, the array:
    it is that node's rebuild, else a function returning t's array. In an
    active ``profile`` a rebuild's time goes to the rebuilt op."""
    node = t.node
    if node is None or node.rebuild is None:
        data = t.data
        return lambda: data
    rebuild, op = node.rebuild, node.op

    def read():
        prof = _state.profile
        if prof is None:
            return rebuild()
        outer, prof._rebuilt_ms = prof._rebuilt_ms, 0.0
        start = time.perf_counter()
        out = rebuild()
        ms = 1e3 * (time.perf_counter() - start)
        entry = prof.stats[op]
        entry["rebuilds"] += 1
        entry["rebuild_ms"] += ms - prof._rebuilt_ms
        prof._rebuilt_ms = outer + ms
        return out

    return read


def _chain(make, tensors):
    """The rebuild of a shape op's output, make(*input arrays), over its
    inputs' rebuilds. None unless every input has one: the node would
    otherwise hold input arrays its own backward does not read."""
    if any(t.node is None or t.node.rebuild is None for t in tensors):
        return None
    reads = [_reader(t) for t in tensors]
    return lambda: make(*(read() for read in reads))


def backward(out: Tensor):
    if out.node is None:
        if out.requires_grad:
            if out.grad is None:
                out.grad = np.zeros_like(out.data)
            out.grad += np.ones_like(out.data)
        return
    # Walk back from `out` to collect the recorded nodes, then replay
    # newest-first: the exact reverse of execution order, which keeps every
    # reduction deterministic.
    seen = set()
    ordered = []
    stack = [out.node]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        if node.backward_fn is None:
            raise GraphReleasedError(
                f"backward: the {node.op} node was released by an earlier "
                "backward; rebuild the graph to differentiate it again")
        seen.add(node)
        ordered.append(node)
        stack.extend(i.node for i in node.inputs if i.node is not None)
    ordered.sort(key=lambda node: node.seq)

    grads = {out.node: np.ones_like(out.data)}
    prof = _profiler()
    while ordered:
        # popping and releasing the node drops the tape's hold on its
        # closure: the arrays only it read return once nothing outside the
        # graph holds them
        node = ordered.pop()
        backward_fn, inputs = node.backward_fn, node.inputs
        node.backward_fn, node.inputs, node.rebuild = None, (), None
        g = grads.pop(node, None)
        if g is None:
            continue
        if prof is None:
            in_grads = backward_fn(g)
        else:
            prof._rebuilt_ms = 0.0
            start = time.perf_counter()
            in_grads = backward_fn(g)
            prof.stats[node.op]["backward_ms"] += \
                1e3 * (time.perf_counter() - start) - prof._rebuilt_ms
        for inp, ig in zip(inputs, in_grads):
            if ig is None:
                continue
            if inp.node is None:
                if inp.requires_grad:
                    if inp.grad is None:
                        inp.grad = np.zeros_like(inp.data)
                    inp.grad += ig
            elif inp.node in grads:
                grads[inp.node] = grads[inp.node] + ig
            else:
                grads[inp.node] = ig


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

@_primitive
def add(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("add", a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} vs {b.shape}")
    return _result("add", a.data + b.data, (a, b), lambda g: (g, g))


@_primitive
def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("sub", a, b)
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes {a.shape} vs {b.shape}")
    return _result("sub", a.data - b.data, (a, b), lambda g: (g, -g))


@_primitive
def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; b may be a 0-d/1-element scalar."""
    _same_dtype("mul", a, b)
    if a.shape != b.shape:
        if b.size != 1:
            raise ShapeError(f"mul: shapes {a.shape} vs {b.shape}")
        bd = b.data.reshape(())

        def bw(g, a=a, b=b, bd=bd):
            return (g * bd, np.sum(g * a.data).reshape(b.shape))

        return _result("mul", a.data * bd, (a, b), bw)
    return _result(
        "mul", a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data)
    )


@_primitive
def linear(x: Tensor, w: Tensor) -> Tensor:
    """Linear map on the last axis, no bias: y[..., o] = x[..., i] w[i, o]."""
    _same_dtype("linear", x, w)
    if w.data.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input {x.shape} vs weight {w.shape}")
    shape = x.shape
    out = x.data.reshape(-1, shape[-1]) @ w.data
    read = _reader(x)

    def bw(g):
        g2 = g.reshape(-1, w.shape[1])
        gx = (g2 @ w.data.T).reshape(shape)
        return gx, read().reshape(-1, shape[-1]).T @ g2

    return _result("linear", out.reshape(*shape[:-1], w.shape[1]), (x, w), bw)


def _mm(a, b):
    """a @ b over the last two axes. An inner size of 1 (a rank-one
    product) is a broadcast multiply: the same products, which np.matmul
    computes about 20x slower."""
    if a.shape[-1] == 1:
        return a * b
    return a @ b


def _conv_out_size(op, size, k, stride, padding):
    span = size + 2 * padding - k
    if span < 0 or span % stride != 0:
        raise ShapeError(
            f"{op}: size {size} with kernel {k}, stride {stride}, padding {padding} "
            "does not divide evenly"
        )
    return span // stride + 1


def _flat_grid(x, kw, padding):
    """NCHW x zero-padded into flat (n, c, rows * wp) planes of width
    wp = w + 2 padding, with one spare row when kw > 1. Tap (ki, kj) of a
    stride-1 conv is then the contiguous slice from ki wp + kj of length
    oh wp: each output row's ow pixels, then kw - 1 that run past the row
    and are dropped. With no padding and kw = 1 the planes are x itself.
    Returns (planes, rows, wp)."""
    n, c, h, wd = x.shape
    wp = wd + 2 * padding
    rows = h + 2 * padding + (kw > 1)
    if rows == h:
        return x.reshape(n, c, h * wd), rows, wp
    xp = np.zeros((n, c, rows, wp), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    return xp.reshape(n, c, rows * wp), rows, wp


def _tap_starts(kh, kw, wp):
    """Where each tap (ki, kj), row-major, starts on flat planes of width wp."""
    return [ki * wp + kj for ki in range(kh) for kj in range(kw)]


@_primitive
def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           padding: int = 0) -> Tensor:
    """Stride-1 NCHW cross-correlation with kernel w of shape
    (out_c, in_c, kh, kw), any kernel and padding."""
    _same_dtype("conv2d", *( [x, w] + ([b] if b is not None else []) ))
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: input {x.shape}, kernel {w.shape}")
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    if ic != c:
        raise ShapeError(f"conv2d: input channels {c} vs kernel channels {ic}")
    if b is not None and b.shape != (oc,):
        raise ShapeError(f"conv2d: bias {b.shape} vs out channels {oc}")
    oh = _conv_out_size("conv2d", h, kh, 1, padding)
    ow = _conv_out_size("conv2d", wd, kw, 1, padding)

    k, npix = c * kh * kw, oh * ow
    wmat = w.data.reshape(oc, k)
    dtype, read = x.dtype, _reader(x)
    planes, rows, wp = _flat_grid(x.data, kw, padding)
    span = oh * wp
    if kh * kw == 1:
        cols = planes
    else:
        cols = np.empty((n, c, kh * kw, span), dtype=x.dtype)
        for t, start in enumerate(_tap_starts(kh, kw, wp)):
            cols[:, :, t] = planes[:, :, start:start + span]
    del planes
    # (n, oc, oh, wp): NCHW with no transpose, kw - 1 columns too wide
    out = _mm(wmat, cols.reshape(n, k, span)).reshape(n, oc, oh, wp)
    del cols
    if wp != ow:
        out = np.ascontiguousarray(out[..., :ow])
    if b is not None:
        out += b.data[:, None, None]

    def weight_columns():
        """The (c*kh*kw, n*oh*ow) columns of gW's GEMM, rebuilt from x."""
        if kh * kw == 1 and padding == 0:
            return read().transpose(1, 0, 2, 3).reshape(k, n * npix)
        grid = _flat_grid(read(), kw, padding)[0].reshape(n, c, rows, wp)
        cols = np.empty((c, kh, kw, n, oh, ow), dtype=dtype)
        for ki in range(kh):
            for kj in range(kw):
                cols[:, ki, kj] = grid[:, :, ki:ki + oh,
                                       kj:kj + ow].transpose(1, 0, 2, 3)
        return cols.reshape(k, n * npix)

    def bw(g):
        gmat = g.reshape(n, oc, npix)
        # one GEMM sums over the batch: (k, n*npix) @ (n*npix, oc)
        gw = (weight_columns()
              @ gmat.transpose(1, 0, 2).reshape(oc, n * npix).T).T
        gw = gw.reshape(w.shape)  # the (oc, k) transpose, copied
        if wp == ow:
            gwide = gmat
        else:
            # g on the wide grid: zeros where the forward dropped columns
            gwide = np.zeros((n, oc, oh, wp), dtype=dtype)
            gwide[..., :ow] = g
            gwide = gwide.reshape(n, oc, span)
        gcols = _mm(wmat.T, gwide)  # (n, k, oh*wp)
        del gwide
        if kh * kw == 1:
            gplanes = gcols
        else:
            # each tap's slice adds back where the forward read it; the
            # columns that ran past a row carry zeros
            gcols = gcols.reshape(n, c, kh * kw, span)
            gplanes = np.zeros((n, c, rows * wp), dtype=dtype)
            for t, start in enumerate(_tap_starts(kh, kw, wp)):
                gplanes[:, :, start:start + span] += gcols[:, :, t]
        gx = gplanes.reshape(n, c, rows, wp)[
            :, :, padding:padding + h, padding:padding + wd]
        if b is None:
            return gx, gw
        return gx, gw, gmat.sum(axis=(0, 2))

    inputs = (x, w) if b is None else (x, w, b)
    return _result("conv2d", out, inputs, bw)


@_primitive
def conv_transpose2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """2x upsampling transposed conv, kernel 2 stride 2, w: (in_c, out_c, 2, 2)."""
    _same_dtype("conv_transpose2d", x, w, b)
    if x.data.ndim != 4 or w.data.ndim != 4 or w.shape[2:] != (2, 2):
        raise ShapeError(f"conv_transpose2d: input {x.shape}, kernel {w.shape}")
    n, c, h, wd = x.shape
    ic, oc, _, _ = w.shape
    if ic != c:
        raise ShapeError(f"conv_transpose2d: input channels {c} vs kernel {ic}")
    if b.shape != (oc,):
        raise ShapeError(f"conv_transpose2d: bias {b.shape} vs out channels {oc}")
    npix = h * wd
    wmat = w.data.reshape(c, oc * 4)
    # (n, oc, 2, 2, h, w): one output plane per tap, interleaved 2x2
    cols = _mm(wmat.T, x.data.reshape(n, c, npix)).reshape(n, oc, 2, 2, h, wd)
    out = np.empty((n, oc, 2 * h, 2 * wd), dtype=x.dtype)
    for ki in range(2):
        for kj in range(2):
            out[:, :, ki::2, kj::2] = cols[:, :, ki, kj]
    out += b.data[:, None, None]
    read = _reader(x)

    def bw(g):
        gcols = g.reshape(n, oc, h, 2, wd, 2).transpose(
            0, 1, 3, 5, 2, 4).reshape(n, oc * 4, npix)
        gx = _mm(wmat, gcols).reshape(n, c, h, wd)
        xmat = read().reshape(n, c, npix)
        gw = (xmat.transpose(1, 0, 2).reshape(c, n * npix)
              @ gcols.transpose(1, 0, 2).reshape(oc * 4, n * npix).T)
        return gx, gw.reshape(w.shape), g.sum(axis=(0, 2, 3))

    return _result("conv_transpose2d", out, (x, w, b), bw)


@_primitive
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
    hp, wp = xp.shape[2:]
    dtype = x.dtype

    def tap(a, idx):
        ki, kj = divmod(idx, kernel)
        return a[:, :, ki:ki + oh * stride:stride, kj:kj + ow * stride:stride]

    # Running max over the taps, and the first tap that holds it. Compare
    # and select are arithmetic, not masked writes: on random data a
    # branching select (np.where) mispredicts and runs ~5x slower.
    out = tap(xp, 0).copy()
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(kernel * kernel - 1))
    for idx in range(1, kernel * kernel):
        v = tap(xp, idx)
        better = v > out
        np.maximum(out, v, out=out)  # NaN propagates
        arg += better * (arg.dtype.type(idx) - arg)

    def bw(g):
        # g times a 0/1 mask: a non-finite g turns NaN across its window
        if stride == kernel:
            # the windows tile the padded input: each tap writes its own
            # (oh, ow) lattice of a (n, c, oh, k, ow, k) view, once
            gxp = np.empty((n, c, oh, kernel, ow, kernel), dtype=dtype)
            for idx in range(kernel * kernel):
                ki, kj = divmod(idx, kernel)
                np.multiply(g, arg == idx, out=gxp[:, :, :, ki, :, kj])
            gxp = gxp.reshape(n, c, hp, wp)
        else:
            gxp = np.zeros((n, c, hp, wp), dtype=dtype)
            for idx in range(kernel * kernel):
                gtap = tap(gxp, idx)
                gtap += g * (arg == idx)
        return (gxp[:, :, padding:padding + h, padding:padding + wd],)

    return _result("maxpool2d", out, (x,), bw)


@_primitive
def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two affine maps on the last axis with an exact GELU between them:
    y = gelu(x w1 + b1) w2 + b2, where gelu(u) = u cdf(u) and
    cdf(u) = 0.5 (1 + erf(u / sqrt 2)).

    The node keeps cdf(u) and reads x; backward rebuilds u = x w1 + b1 with
    the forward's own GEMM and add, and the hidden output u cdf(u), the
    same product, for w2's gradient."""
    # scipy.special costs ~0.1 s and ~6 MB to import: only a network needs it
    from scipy.special import erf

    _same_dtype("mlp", x, w1, b1, w2, b2)
    if (w1.data.ndim != 2 or w2.data.ndim != 2 or x.shape[-1] != w1.shape[0]
            or w2.shape[0] != w1.shape[1] or b1.shape != (w1.shape[1],)
            or b2.shape != (w2.shape[1],)):
        raise ShapeError(
            f"mlp: input {x.shape}, weights {w1.shape} and {w2.shape}, "
            f"biases {b1.shape} and {b2.shape}")
    shape, d_out = x.shape, w2.shape[1]

    def pre_activation(x2):
        u = x2 @ w1.data
        u += b1.data
        return u

    pre = pre_activation(x.data.reshape(-1, shape[-1]))
    cdf = erf(pre * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    out = (pre * cdf) @ w2.data
    del pre
    out += b2.data
    read = _reader(x)

    def bw(g):
        x2 = read().reshape(-1, shape[-1])
        pre = pre_activation(x2)
        g2 = g.reshape(-1, d_out)
        gw2 = (pre * cdf).T @ g2
        gb2 = g2.sum(axis=0)
        dy = pre * pre
        dy *= -0.5
        np.exp(dy, out=dy)
        dy *= _INV_SQRT2PI
        dy *= pre
        dy += cdf  # d/du u cdf(u) = cdf + u pdf
        dy *= g2 @ w2.data.T
        gx = (dy @ w1.data.T).reshape(shape)
        return gx, x2.T @ dy, dy.sum(axis=0), gw2, gb2

    return _result("mlp", out.reshape(*shape[:-1], d_out), (x, w1, b1, w2, b2),
                   bw)


def _prelu_scale(x, slopes):
    """Per-element slope 1 or a, by arithmetic: a branching select
    (np.where) on random signs runs ~5x slower. pos + (1 - pos) a is
    exactly 1 or exactly a."""
    pos = (x > 0).astype(x.dtype)
    scale = 1.0 - pos
    scale *= slopes[None, :, None, None]
    scale += pos
    return scale


@_primitive
def prelu(x: Tensor, slopes: Tensor) -> Tensor:
    """Channelwise parametric ReLU on NCHW input; one slope per channel."""
    if x.data.ndim != 4 or slopes.data.ndim != 1 or slopes.shape[0] != x.shape[1]:
        raise ShapeError(f"prelu: input {x.shape}, slopes {slopes.shape}")
    _same_dtype("prelu", x, slopes)
    xd = x.data

    def rebuild():
        return xd * _prelu_scale(xd, slopes.data)

    def bw(g):
        # a non-finite g where x > 0 times min(x, 0) = 0 makes its slope NaN
        ga = np.einsum("nchw,nchw->c", g, np.minimum(xd, 0.0))
        return g * _prelu_scale(xd, slopes.data), ga

    return _result("prelu", rebuild(), (x, slopes), bw, rebuild)


def _row_sums(a):
    """Sums along the rows of a 2-D array, as a GEMV with a ones vector:
    numpy's own reduction is ~5x slower on short rows."""
    return a @ np.ones(a.shape[1], dtype=a.dtype)


def _normalize(x, m):
    """Each run of m trailing elements of x to zero mean and unit variance.

    Returns xhat as (rows, m) and 1 / sqrt(var + _NORM_EPS) as (rows, 1)."""
    xhat = x.reshape(-1, m)
    xhat = xhat - (_row_sums(xhat) / m)[:, None]
    var = np.einsum("ij,ij->i", xhat, xhat) / m
    inv_std = (1.0 / np.sqrt(var + _NORM_EPS))[:, None]
    xhat *= inv_std
    return xhat, inv_std


def _norm_backward(g, xhat, inv_std):
    """Input gradient of ``_normalize`` for an output gradient g (rows, m)."""
    m = xhat.shape[1]
    gx = g - (_row_sums(g) / m)[:, None]
    gx -= xhat * (np.einsum("ij,ij->i", g, xhat) / m)[:, None]
    gx *= inv_std
    return gx


@_primitive
def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: affine {gamma.shape}/{beta.shape} vs feature dim {d}"
        )
    _same_dtype("layer_norm", x, gamma, beta)
    xhat, inv_std = _normalize(x.data, d)
    shape = x.shape

    def rebuild():
        out = xhat * gamma.data
        out += beta.data
        return out.reshape(shape)

    def bw(g):
        g = g.reshape(-1, d)
        ggamma = (g * xhat).sum(axis=0)
        gx = _norm_backward(g * gamma.data, xhat, inv_std)
        return gx.reshape(shape), ggamma, g.sum(axis=0)

    return _result("layer_norm", rebuild(), (x, gamma, beta), bw, rebuild)


@_primitive
def instance_norm_prelu(x: Tensor, gamma: Tensor, beta: Tensor,
                        slopes: Tensor) -> Tensor:
    """Normalize each (sample, channel) plane of NCHW input, apply the
    affine y = xhat gamma + beta, then a channelwise PReLU of y.

    The node keeps xhat and 1 / std; backward rebuilds y, the same
    product and sum, for the PReLU terms, and the output's rebuild is the
    forward itself."""
    if x.data.ndim != 4:
        raise ShapeError(f"instance_norm_prelu: input {x.shape}")
    n, c, h, wd = x.shape
    if gamma.shape != (c,) or beta.shape != (c,) or slopes.shape != (c,):
        raise ShapeError(
            f"instance_norm_prelu: affine {gamma.shape}/{beta.shape}, slopes "
            f"{slopes.shape} vs channels {c}")
    _same_dtype("instance_norm_prelu", x, gamma, beta, slopes)
    xhat, inv_std = _normalize(x.data, h * wd)
    xhat = xhat.reshape(n, c, h, wd)
    gamma4 = gamma.data[None, :, None, None]
    beta4 = beta.data[None, :, None, None]

    def affine():
        y = xhat * gamma4
        y += beta4
        return y

    def rebuild():
        y = affine()
        return y * _prelu_scale(y, slopes.data)

    def bw(g):
        y = affine()
        # a non-finite g where y > 0 times min(y, 0) = 0 makes its slope NaN
        gslopes = np.einsum("nchw,nchw->c", g, np.minimum(y, 0.0))
        g = g * _prelu_scale(y, slopes.data)
        del y
        ggamma = np.einsum("nchw,nchw->c", g, xhat)
        gbeta = g.sum(axis=(0, 2, 3))
        gx = _norm_backward((g * gamma4).reshape(-1, h * wd),
                            xhat.reshape(-1, h * wd), inv_std)
        return gx.reshape(n, c, h, wd), ggamma, gbeta, gslopes

    return _result("instance_norm_prelu", rebuild(),
                   (x, gamma, beta, slopes), bw, rebuild)


@_primitive
def reshape(x: Tensor, shape) -> Tensor:
    shape, in_shape = tuple(shape), x.shape
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: {in_shape} -> {shape}")

    def make(xd):
        return xd.reshape(shape)

    return _result("reshape", make(x.data), (x,),
                   lambda g: (g.reshape(in_shape),), _chain(make, (x,)))


@_primitive
def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"permute: axes {axes} for shape {x.shape}")
    inv = tuple(np.argsort(axes))

    def make(xd):
        return np.ascontiguousarray(xd.transpose(axes))

    return _result("permute", make(x.data), (x,),
                   lambda g: (np.ascontiguousarray(g.transpose(inv)),),
                   _chain(make, (x,)))


@_primitive
def concat(tensors) -> Tensor:
    """Join tensors along axis 1, the channel axis of NCHW."""
    tensors = list(tensors)
    _same_dtype("concat", *tensors)
    others = [t.shape[:1] + t.shape[2:] for t in tensors]  # all but axis 1
    if any(other != others[0] for other in others):
        raise ShapeError(f"concat: shapes {[t.shape for t in tensors]}")
    sizes = [t.shape[1] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=1))

    def make(*arrays):
        return np.concatenate(arrays, axis=1)

    return _result("concat", make(*(t.data for t in tensors)), tuple(tensors),
                   bw, _chain(make, tensors))


@_primitive
def mean(x: Tensor) -> Tensor:
    n, shape, dtype = x.size, x.shape, x.dtype
    return _result(
        "mean",
        np.asarray(x.data.mean(), dtype=dtype),
        (x,),
        lambda g: (np.full(shape, g / n, dtype=dtype),),
    )


@_primitive
def sum_of_squares(x: Tensor) -> Tensor:
    return _result(
        "sum_of_squares",
        np.asarray(np.sum(x.data.astype(np.float64) ** 2), dtype=x.dtype),
        (x,),
        lambda g: ((2.0 * g * x.data).astype(x.dtype),),
    )


@_primitive
def linear_operator(x: Tensor, fwd, adj, name: str = "linear_operator") -> Tensor:
    """Record an arbitrary linear map with a known adjoint as one node.

    ``fwd`` and ``adj`` are numpy functions; the op is differentiable with
    backward g -> adj(g). The caller guarantees adj is the exact transpose.
    """
    dtype = x.dtype
    out = np.asarray(fwd(x.data), dtype=dtype)
    return _result(name, out, (x,), lambda g: (np.asarray(adj(g), dtype=dtype),))


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
