"""Outside-in span tracing of the qnct layers.

The tracer replaces public functions of the qnct modules with timing
wrappers while a traced op runs and puts the originals back afterwards.
Nothing inside ``src/`` knows about it. Spans live in memory as
``[name, start, end, parent]`` rows; a span's self time is its duration
minus the time its direct children cover (calls are strictly nested, so
children never overlap).
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

# (metric name, module, attribute path). The metric name's first component
# is the layer that owns the span. Names imported by name into another
# module are wrapped at that call site too (unroll.bfgs_update,
# unroll.symmetry_index, train.unrolled_forward), because those callers
# never read the attribute of the defining module.
TARGETS = (
    ("geometry.forward_project", "geometry", "forward_project"),
    ("geometry.back_project", "geometry", "back_project"),
    ("geometry.fbp", "geometry", "fbp"),
    ("geometry.fbp_transpose", "geometry", "fbp_transpose"),
    ("autodiff.backward", "autodiff", "backward"),
    ("mixer.incept_mixer_forward", "mixer", "incept_mixer_forward"),
    ("mixer.inception_forward", "mixer", "inception_forward"),
    ("mixer.mixer_layer", "mixer", "mixer_layer"),
    ("mixer.patch_expand", "mixer", "patch_expand"),
    ("unroll.encode_gradient", "unroll", "encode_gradient"),
    ("unroll.decode_direction", "unroll", "decode_direction"),
    ("unroll.LatentBfgsState.updated", "unroll", "LatentBfgsState.updated"),
    ("unroll.bfgs_update", "unroll", "bfgs_update"),
    ("unroll.symmetry_index", "unroll", "symmetry_index"),
    ("solvers.bfgs_update", "solvers", "bfgs_update"),
    ("solvers.symmetry_index", "solvers", "symmetry_index"),
    ("solvers.strong_wolfe", "solvers", "strong_wolfe"),
    # qn_reconstruct looks line searches up in this table, not by name
    ("solvers.strong_wolfe", "solvers", "LINE_SEARCHES[strong-wolfe]"),
    ("solvers.ObjectiveSpec.value", "solvers", "ObjectiveSpec.value"),
    ("solvers.ObjectiveSpec.grad", "solvers", "ObjectiveSpec.grad"),
    ("train.AdamW.step", "train", "AdamW.step"),
    ("train.forward", "train", "unrolled_forward"),
    ("metrics.psnr", "metrics", "psnr"),
    ("metrics.ssim", "metrics", "ssim"),
    ("metrics.ms_ssim", "metrics", "ms_ssim"),
)

OP = "op"


def tape_nodes(out) -> int:
    """Distinct OpNodes reachable from ``out`` through Tensor.node/inputs."""
    seen = set()
    stack = [out]
    while stack:
        t = stack.pop()
        if t.node is None or id(t.node) in seen:
            continue
        seen.add(id(t.node))
        stack.extend(t.node.inputs)
    return len(seen)


def _resolve(module, path: str):
    """(owner, key, is_item) of an attribute path such as ``A.b`` or
    ``TABLE[key]``."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    last = parts[-1]
    if last.endswith("]"):
        table, key = last[:-1].split("[", 1)
        return getattr(owner, table), key, True
    return owner, last, False


class Tracer:
    """Span recorder plus counters for the wrapped qnct functions."""

    def __init__(self, modules: dict, targets=TARGETS):
        self.modules = modules
        self.targets = targets
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._saved = []

    # -- wrapping ------------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, module, path in self.targets:
            owner, key, is_item = _resolve(self.modules[module], path)
            original = owner[key] if is_item else owner.__dict__[key]
            wrapped = self._wrap(name, original)
            if is_item:
                owner[key] = wrapped
            else:
                setattr(owner, key, wrapped)
            self._saved.append((owner, key, is_item, original))

    def uninstall(self):
        for owner, key, is_item, original in reversed(self._saved):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        count_tape = name == "autodiff.backward"
        count_accept = name.endswith(".bfgs_update")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_tape:
                # walked before the span opens, so backward's self time
                # does not include the count
                counts["autodiff.tape_nodes"] += tape_nodes(args[0])
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            counts[name + ".calls"] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if count_accept:
                counts[name + ".accepted"] += int(bool(result[1]))
            return result

        return wrapper

    # -- op spans ------------------------------------------------------------

    @contextmanager
    def op(self):
        """Root span of one op; wrappers are installed only inside it."""
        if self._stack:
            raise RuntimeError("op spans do not nest")
        idx = len(self.spans)
        self.spans.append([OP, 0.0, 0.0, -1])
        self._stack.append(idx)
        self.install()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.uninstall()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end


def self_times(spans) -> list:
    """Self time of every span: duration minus its direct children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans, counts) -> dict:
    """Per-op self time (ms) per span name and per layer, plus op count and
    op wall time. Counters are divided by the op count as well."""
    own = self_times(spans)
    n_ops = sum(1 for s in spans if s[0] == OP)
    op_wall = sum(s[2] - s[1] for s in spans if s[0] == OP)
    by_name = Counter()
    by_layer = Counter()
    for (name, _, _, _), t in zip(spans, own):
        if name == OP:
            continue
        by_name[name] += t
        by_layer[name.split(".", 1)[0]] += t
    per_op = max(n_ops, 1)
    return {
        "ops": n_ops,
        "op_wall_s": op_wall,
        "self_ms": {k: 1e3 * v / per_op for k, v in by_name.items()},
        "layer_share": {k: v / op_wall if op_wall > 0 else 0.0
                        for k, v in by_layer.items()},
        "counts": {k: v / per_op for k, v in counts.items()},
    }
