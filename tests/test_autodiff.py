import importlib.util
import math
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qnct import autodiff as ad
from qnct import mixer as mx
from qnct.autodiff import Tensor
from qnct.errors import CheckpointError, GraphReleasedError, ShapeError

ROOT = Path(__file__).resolve().parent.parent


def t64(arr, requires_grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


def test_layer_norm_constant_input_is_zero_before_affine():
    x = Tensor(np.full((4, 8), 3.7, dtype=np.float32))
    gamma = Tensor(np.ones(8, dtype=np.float32))
    beta = Tensor(np.zeros(8, dtype=np.float32))
    out = ad.layer_norm(x, gamma, beta)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_conv2d_all_ones_center_value():
    x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
    w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    out = ad.conv2d(x, w, padding=1)
    assert out.shape == (1, 1, 4, 4)
    # interior pixels see the full 3x3 window
    assert out.data[0, 0, 1, 1] == 9.0
    assert out.data[0, 0, 2, 2] == 9.0
    # corners see a 2x2 window
    assert out.data[0, 0, 0, 0] == 4.0


def test_sum_of_squares_backward():
    x = t64([1.0, 2.0, 3.0])
    out = ad.sum_of_squares(x)
    out.backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])


def test_grad_check_sum_of_squares_tight():
    x = t64(np.random.default_rng(0).normal(size=7))
    report = ad.grad_check(lambda: ad.sum_of_squares(x), x, eps=1e-6)
    assert report["max_rel_err"] < 1e-9


def test_grad_check_skips_frozen_parameter():
    x = t64([[1.0, 2.0]])
    frozen = t64([[3.0]], requires_grad=False)

    def f():
        return ad.sum_of_squares(ad.mul(x, ad.concat([frozen, frozen])))

    report = ad.grad_check(lambda: f(), [x, frozen])
    assert report["per_tensor"][1]["frozen"] is True
    assert frozen.grad is None
    assert report["max_rel_err"] < 1e-8


class TestPrimitiveGradients:
    """Central-difference checks for each primitive in 64-bit mode."""

    rng = np.random.default_rng(42)

    def check(self, build, tensors, tol=1e-6):
        report = ad.grad_check(build, tensors, eps=1e-6)
        assert report["max_rel_err"] < tol, report

    def test_add_mul_sub(self):
        a = t64(self.rng.normal(size=(3, 4)))
        b = t64(self.rng.normal(size=(3, 4)))
        self.check(lambda: ad.sum_of_squares(ad.mul(ad.add(a, b), ad.sub(a, b))), [a, b])

    def test_scalar_mul(self):
        a = t64(self.rng.normal(size=(5,)))
        s = t64([0.7])
        self.check(lambda: ad.sum_of_squares(ad.mul(a, s)), [a, s])

    def test_linear(self):
        x = t64(self.rng.normal(size=(2, 3, 5)))
        w = t64(self.rng.normal(size=(5, 4)))
        self.check(lambda: ad.sum_of_squares(ad.linear(x, w)), [x, w])

    def test_conv2d(self):
        x = t64(self.rng.normal(size=(2, 3, 6, 6)))
        w = t64(self.rng.normal(size=(4, 3, 3, 3)))
        b = t64(self.rng.normal(size=(4,)))
        self.check(
            lambda: ad.sum_of_squares(ad.conv2d(x, w, b, padding=1)),
            [x, w, b],
        )

    def test_conv2d_strided(self):
        # the stride-4 patch embedding: a 1x1 conv2d over a space-to-depth view
        x = t64(self.rng.normal(size=(1, 2, 8, 8)))
        w = t64(self.rng.normal(size=(3, 2, 4, 4)))
        self.check(lambda: ad.sum_of_squares(mx.patch_embed(x, w)), [x, w])

    def test_conv_transpose2d(self):
        x = t64(self.rng.normal(size=(1, 3, 4, 4)))
        w = t64(self.rng.normal(size=(3, 2, 2, 2)))
        b = t64(self.rng.normal(size=(2,)))
        self.check(lambda: ad.sum_of_squares(ad.conv_transpose2d(x, w, b)), [x, w, b])

    def test_maxpool2d(self):
        x = t64(self.rng.normal(size=(1, 2, 6, 6)))
        self.check(lambda: ad.sum_of_squares(ad.maxpool2d(x, 2)), [x])

    def test_maxpool2d_overlapping(self):
        x = t64(self.rng.normal(size=(1, 2, 5, 5)))
        self.check(
            lambda: ad.sum_of_squares(ad.maxpool2d(x, 3, stride=1, padding=1)), [x]
        )

    def test_mlp(self):
        x = t64(self.rng.normal(size=(2, 3, 5)))
        params = [t64(self.rng.normal(size=s))
                  for s in ((5, 7), (7,), (7, 4), (4,))]
        self.check(lambda: ad.sum_of_squares(ad.mlp(x, *params)),
                   [x, *params])

    def test_prelu(self):
        x = t64(self.rng.normal(size=(2, 3, 4, 4)))
        a = t64(np.full(3, 0.25))
        self.check(lambda: ad.sum_of_squares(ad.prelu(x, a)), [x, a])

    def test_layer_norm(self):
        # weight the output elementwise: a plain sum of squares of normalized
        # values is nearly constant in x, which starves the FD signal
        x = t64(self.rng.normal(size=(3, 6)))
        gamma = t64(self.rng.normal(size=(6,)) + 1.0)
        beta = t64(self.rng.normal(size=(6,)))
        c = Tensor(np.asarray(self.rng.normal(size=(3, 6)), dtype=np.float64))
        self.check(
            lambda: ad.sum_of_squares(ad.mul(c, ad.layer_norm(x, gamma, beta))),
            [x, gamma, beta],
        )

    def test_instance_norm_prelu(self):
        x = t64(self.rng.normal(size=(2, 3, 5, 5)))
        gamma = t64(self.rng.normal(size=(3,)) + 1.0)
        beta = t64(self.rng.normal(size=(3,)))
        slopes = t64([0.25, -0.5, 0.75])
        c = Tensor(np.asarray(self.rng.normal(size=(2, 3, 5, 5)), dtype=np.float64))
        self.check(
            lambda: ad.sum_of_squares(ad.mul(
                c, ad.instance_norm_prelu(x, gamma, beta, slopes))),
            [x, gamma, beta, slopes],
        )

    def test_reshape_permute_concat_mean(self):
        a = t64(self.rng.normal(size=(2, 3, 4)))
        b = t64(self.rng.normal(size=(2, 5, 4)))

        def f():
            c = ad.concat([a, b])
            c = ad.permute(c, (1, 0, 2))
            c = ad.reshape(c, (8, 8))
            return ad.mean(ad.mul(c, c))

        self.check(f, [a, b])

    def test_linear_operator(self):
        m = self.rng.normal(size=(6, 4))
        x = t64(self.rng.normal(size=(4,)))
        self.check(
            lambda: ad.sum_of_squares(
                ad.linear_operator(x, lambda v: m @ v, lambda g: m.T @ g)
            ),
            [x],
        )


def mlp_weights(rng, d_in, hidden, d_out, dtype=np.float64,
                requires_grad=True):
    """w1, b1, w2, b2 of an ``mlp`` with normal entries."""
    return [Tensor(rng.normal(size=s).astype(dtype),
                   requires_grad=requires_grad)
            for s in ((d_in, hidden), (hidden,), (hidden, d_out), (d_out,))]


def test_forward_backward_bit_deterministic():
    def run():
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(1, 2, 8, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32), requires_grad=True)
        params = mlp_weights(rng, 8, 16, 8, np.float32)
        out = ad.mean(ad.mlp(ad.conv2d(x, w, padding=1), *params))
        out.backward()
        return (out.data.copy(), x.grad.copy(), w.grad.copy(),
                *(p.grad.copy() for p in params))

    a = run()
    b = run()
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_backward_twice_doubles_grads():
    x = t64([[1.0, -2.0, 0.5]])
    params = mlp_weights(np.random.default_rng(0), 3, 4, 3,
                         requires_grad=False)

    def loss():
        return ad.sum_of_squares(ad.mlp(x, *params))

    loss().backward()
    once = x.grad.copy()
    loss().backward()
    np.testing.assert_array_equal(x.grad, 2.0 * once)


def test_grad_accumulates_across_multiple_uses():
    x = t64([2.0])
    out = ad.add(ad.mul(x, x), ad.mul(x, x))
    out = ad.reshape(out, ())
    out.backward()
    np.testing.assert_allclose(x.grad, [8.0])


def test_shape_errors_name_op():
    with pytest.raises(ShapeError, match="add"):
        ad.add(Tensor([1.0]), Tensor([1.0, 2.0]))
    with pytest.raises(ShapeError, match="conv2d"):
        ad.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))


def test_pool_and_conv_reject_uneven_division():
    x = Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32))
    with pytest.raises(ShapeError, match="maxpool2d"):
        ad.maxpool2d(x, 2, stride=2)
    with pytest.raises(ShapeError, match="patch_embed"):
        mx.patch_embed(x, Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32)))


def test_no_grad_blocks_recording():
    x = t64([1.0, 2.0])
    with ad.no_grad():
        out = ad.sum_of_squares(x)
    assert out.node is None and not out.requires_grad


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    params = {
        "mixer.conv.w": Tensor(rng.normal(size=(4, 1, 3, 3)).astype(np.float32)),
        "lambda": Tensor(np.array([0.125], dtype=np.float32)),
        "scalar": Tensor(np.float32(rng.normal())),
    }
    path = tmp_path / "weights.ckpt"
    ad.save_checkpoint(params, path, meta={"T": 6, "note": "a=b"})
    loaded, meta = ad.load_checkpoint(path)
    assert meta["T"] == "6" and meta["note"] == "a=b"
    assert set(loaded) == set(params)
    for name in params:
        assert loaded[name].shape == params[name].data.reshape(loaded[name].shape).shape
        assert np.array_equal(
            loaded[name].view(np.uint32),
            np.ascontiguousarray(params[name].data, dtype="<f4").reshape(
                loaded[name].shape
            ).view(np.uint32),
        )


def test_checkpoint_bad_file(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"garbage")
    with pytest.raises(CheckpointError):
        ad.load_checkpoint(path)


def test_checkpoint_truncated_or_malformed(tmp_path):
    path = tmp_path / "weights.ckpt"
    ad.save_checkpoint({"w": Tensor(np.ones((4, 3), dtype=np.float32))}, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-1])  # intact header, payload one byte short
    with pytest.raises(CheckpointError, match="truncated"):
        ad.load_checkpoint(path)
    for line in (b"w 4,3\n", b"w 4,x 0\n", b"w -4,3 0\n"):
        path.write_bytes(blob.replace(b"w 4,3 0\n", line))
        with pytest.raises(CheckpointError):
            ad.load_checkpoint(path)


def test_profile_counts_calls_and_times_both_passes():
    x = t64(np.random.default_rng(1).normal(size=(1, 2, 6, 6)))
    affine = [t64([1.0, 2.0]), t64([0.0, 0.5]), t64([0.25, 0.25])]
    s = t64([0.5])
    with ad.profile() as prof:
        y = ad.mul(ad.instance_norm_prelu(x, *affine), s)
        ad.sum_of_squares(y).backward()
    assert {op: e["calls"] for op, e in prof.stats.items()} == {
        "instance_norm_prelu": 1, "mul": 1, "sum_of_squares": 1}
    for entry in prof.stats.values():
        assert entry["forward_ms"] > 0.0 and entry["backward_ms"] > 0.0
    assert ad._profiler() is None


def test_profile_keys_named_linear_operators_and_is_off_by_default():
    x = t64(np.ones(3))
    assert ad._profiler() is None
    with ad.profile() as prof:
        with ad.no_grad():
            ad.linear_operator(x, lambda v: 2 * v, lambda g: 2 * g, name="A")
    assert set(prof.stats) == {"A"}
    assert prof.stats["A"]["calls"] == 1 and prof.stats["A"]["backward_ms"] == 0


@ad._primitive
def square_keeping_a_copy(x: Tensor) -> Tensor:
    """x², with a backward closure that keeps 2x, an array backward could
    rebuild from x: the fault the profile's kept_bytes must show."""
    twice = 2.0 * x.data
    return ad._result("square_keeping_a_copy", x.data * x.data, (x,),
                      lambda g: (g * twice,))


@ad._primitive
def square(x: Tensor) -> Tensor:
    return ad._result("square", x.data * x.data, (x,),
                      lambda g: (2.0 * g * x.data,))


def test_profile_reports_the_bytes_a_closure_keeps():
    x = t64(np.ones((4, 5)))
    with ad.profile() as prof:
        ad.mean(ad.add(square_keeping_a_copy(x), square(x))).backward()
    assert prof.stats["square_keeping_a_copy"]["kept_bytes"] == 4 * 5 * 8
    assert prof.stats["square"]["kept_bytes"] == 0
    assert prof.stats["add"]["kept_bytes"] == 0
    with ad.profile() as prof, ad.no_grad():
        square_keeping_a_copy(x)  # nothing recorded, nothing kept
    assert prof.stats["square_keeping_a_copy"]["kept_bytes"] == 0


@ad._primitive
def double_through_a_helper(x: Tensor) -> Tensor:
    """2x, whose backward reads its factor from an array that only a helper
    the primitive defined holds, and reads x through a reader."""
    twos = np.full(x.shape, 2.0)
    read = ad._reader(x)

    def factor():
        return twos

    def bw(g):
        assert read().shape == g.shape
        return (g * factor(),)

    return ad._result("double_through_a_helper", 2.0 * x.data, (x,), bw)


def test_kept_bytes_follow_the_primitives_helpers_but_not_readers():
    x = t64(np.random.default_rng(3).normal(size=(1, 2, 4, 4)))
    with ad.profile() as prof:
        # the reader leads to prelu's rebuild, which holds x: prelu's
        # input, not an array the helper op keeps
        y = double_through_a_helper(ad.prelu(x, t64([0.25, 0.5])))
    assert prof.stats["double_through_a_helper"]["kept_bytes"] == 2 * 16 * 8
    assert prof.stats["prelu"]["kept_bytes"] == 0
    ad.mean(y).backward()
    slopes = np.array([0.25, 0.5])[None, :, None, None]
    np.testing.assert_array_equal(
        x.grad, 2.0 * np.where(x.data > 0, 1.0, slopes) / x.size)


def test_mul_takes_a_scalar_only_second():
    x, s = t64(np.ones((2, 3))), t64([0.5])
    np.testing.assert_array_equal(ad.mul(x, s).data, np.full((2, 3), 0.5))
    with pytest.raises(ShapeError, match="mul: shapes"):
        ad.mul(s, x)


def test_conv2d_and_prelu_keep_nothing_beyond_their_inputs():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32),
               requires_grad=True)
    slopes = Tensor(np.full(4, 0.25, dtype=np.float32), requires_grad=True)
    with ad.profile() as prof:
        for k, padding in ((1, 0), (1, 1), (3, 1)):
            w = Tensor(rng.normal(size=(4, 3, k, k)).astype(np.float32),
                       requires_grad=True)
            b = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
            ad.prelu(ad.conv2d(x, w, b, padding=padding), slopes)
        w = Tensor(rng.normal(size=(4, 3, 4, 4)).astype(np.float32),
                   requires_grad=True)
        ad.prelu(mx.patch_embed(x, w), slopes)  # a 1x1 conv2d of a view
    assert prof.stats["conv2d"]["calls"] == 4
    assert prof.stats["conv2d"]["kept_bytes"] == 0
    assert prof.stats["prelu"]["kept_bytes"] == 0
    # the check can fail: mlp keeps its cdf, one hidden-sized array
    with ad.profile() as prof:
        ad.mlp(x, *mlp_weights(rng, 8, 8, 8, np.float32))
    assert prof.stats["mlp"]["kept_bytes"] == x.data.nbytes


def test_padded_maxpool2d_keeps_only_its_argmax_indices():
    x = Tensor(np.random.default_rng(6).normal(size=(1, 8, 64, 64)).astype(
        np.float32), requires_grad=True)
    with ad.profile() as prof:
        out = ad.maxpool2d(x, 3, stride=1, padding=1)
    # one uint8 tap index per output pixel, and no padded copy of x
    assert prof.stats["maxpool2d"]["kept_bytes"] == out.size == 32768


def test_backward_frees_intermediate_outputs():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(1, 2, 8, 8)).astype(np.float32),
               requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32),
               requires_grad=True)
    h = ad.conv2d(x, w, padding=1)
    y = ad.mlp(h, *mlp_weights(rng, 8, 16, 8, np.float32))
    refs = [weakref.ref(h.data), weakref.ref(y.data)]
    loss = ad.mean(ad.mul(y, y))
    del h, y
    assert all(ref() is not None for ref in refs)  # the tape holds them
    loss.backward()
    assert all(ref() is None for ref in refs)
    assert x.grad is not None and w.grad is not None


def _pinned_graph(params):
    """conv2d -> instance_norm_prelu -> maxpool2d -> concat -> layer_norm
    -> permute -> add -> mean. Returns the loss and the arrays of the
    intermediates, none of which a backward closure reads."""
    x, w, b, gamma, beta, slopes, g2, b2, c = params
    h1 = ad.conv2d(x, w, b, padding=1)
    h2 = ad.instance_norm_prelu(h1, gamma, beta, slopes)
    h3 = ad.maxpool2d(h2, 2)
    h4 = ad.concat([h3, h3])
    h5 = ad.layer_norm(h4, g2, b2)
    h6 = ad.permute(h5, (0, 2, 3, 1))
    h7 = ad.add(h6, c)
    return ad.mean(h7), [h.data for h in (h1, h2, h3, h4, h5, h6, h7)]


def test_tape_frees_inputs_no_closure_reads_with_identical_gradients():
    def params():
        rng = np.random.default_rng(8)
        shapes = ((1, 2, 8, 8), (3, 2, 3, 3), (3,), (3,), (3,), (3,), (4,),
                  (4,), (1, 4, 4, 6))
        return [Tensor(rng.normal(size=s).astype(np.float32),
                       requires_grad=True) for s in shapes]

    held = params()
    loss, arrays = _pinned_graph(held)
    loss.backward()
    del arrays

    freed = params()
    loss, arrays = _pinned_graph(freed)
    refs = [weakref.ref(a) for a in arrays]
    del arrays
    assert loss.node is not None  # the graph is alive
    assert all(ref() is None for ref in refs)
    loss.backward()
    for a, b in zip(held, freed):
        assert a.grad.dtype == b.grad.dtype == np.float32
        assert a.grad.tobytes() == b.grad.tobytes()


def _rebuild_graph(params):
    """Every rebuilding producer (prelu, instance_norm_prelu, layer_norm,
    concat, permute, reshape) feeding every lazily reading consumer
    (conv2d with taps and 1x1, the patch embedding's 1x1 conv2d over the
    space-to-depth view of a concat, conv_transpose2d, linear, mlp).
    Returns the loss and the outputs, in graph order."""
    (x, w1, b1, s1, w2, gamma, beta, s2, wt, w3, wp, lg, lb,
     m1, mb1, m2, mb2, wl, bt) = params
    n = x.shape[0]
    a = ad.conv2d(x, w1, b1, padding=1)
    p = ad.prelu(a, s1)
    c = ad.conv2d(p, w2, padding=1)  # reads prelu's rebuild
    i = ad.instance_norm_prelu(c, gamma, beta, s2)
    t = ad.conv_transpose2d(i, wt, bt)  # reads instance_norm_prelu's
    c3 = ad.conv2d(i, w3)  # 1x1, no padding
    cat = ad.concat([p, i])
    e = mx.patch_embed(cat, wp)
    ln = ad.layer_norm(ad.permute(e, (0, 2, 3, 1)), lg, lb)
    m = ad.mlp(ln, m1, mb1, m2, mb2)  # reads layer_norm's rebuild
    r = ad.reshape(ad.permute(ln, (0, 3, 1, 2)), (n, 6, 4))
    lin = ad.linear(r, wl)  # reads reshape(permute(layer_norm))
    outs = (a, p, c, i, t, c3, cat, e, ln, m, r, lin)
    loss = ad.sum_of_squares(t)
    for y in (c3, m, lin):
        loss = ad.add(loss, ad.sum_of_squares(y))
    return loss, [y.data for y in outs]


def _rebuild_params(n, dt):
    rng = np.random.default_rng(10 + n)
    shapes = ((n, 2, 8, 8), (4, 2, 3, 3), (4,), (4,), (4, 4, 3, 3), (4,),
              (4,), (4,), (4, 3, 2, 2), (1, 4, 1, 1), (6, 8, 4, 4), (6,),
              (6,), (6, 12), (12,), (12, 6), (6,), (4, 5), (3,))
    return [Tensor((0.5 * rng.normal(size=s)).astype(dt), requires_grad=True)
            for s in shapes]


def _rebuild_mismatches(n, dt, reader=None):
    """Names of the outputs and gradients that differ in any bit from the
    same graph with every input array held (no rebuilds read), with
    ``reader`` in place of ``ad._reader`` for the rebuilt side."""
    real = ad._reader
    sides = []
    for patched in (lambda t: (lambda data=t.data: data), reader or real):
        ad._reader = patched
        try:
            params = _rebuild_params(n, dt)
            loss, outs = _rebuild_graph(params)
            loss.backward()
        finally:
            ad._reader = real
        sides.append([loss.data, *outs, *(p.grad for p in params)])
    assert all(a.dtype == dt for a in sides[1])
    return [k for k, (a, b) in enumerate(zip(*sides))
            if a.shape != b.shape or a.tobytes() != b.tobytes()]


@pytest.mark.parametrize("dt", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("n", [1, 2])
def test_rebuilt_inputs_give_bit_equal_outputs_and_gradients(n, dt):
    assert _rebuild_mismatches(n, dt) == []


def test_a_rebuild_one_ulp_off_changes_the_gradients():
    real = ad._reader

    def one_ulp_up(t):
        read = real(t)
        if t.node is None or t.node.rebuild is None:
            return read
        return lambda: np.nextafter(read(), np.inf)

    assert _rebuild_mismatches(1, np.float32, one_ulp_up)


def test_consumers_do_not_keep_rebuildable_inputs_alive():
    params = _rebuild_params(1, np.float32)
    loss, outs = _rebuild_graph(params)
    names = "a p c i t c3 cat e ln m r lin".split()
    refs = dict(zip(names, (weakref.ref(y) for y in outs)))
    del outs
    # the outputs of prelu, instance_norm_prelu, concat, layer_norm and the
    # reshape are rebuilt for their readers; a (read by prelu) and the
    # arrays sum_of_squares reads are held; c and e no closure reads
    assert {name for name, ref in refs.items() if ref() is not None} == \
        {"a", "t", "c3", "m", "lin"}
    loss.backward()
    assert all(ref() is None for ref in refs.values())
    assert all(q.grad is not None for q in params)


def test_backward_releases_each_rebuild():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    p = ad.prelu(x, Tensor(np.full(2, 0.25), requires_grad=True))
    loss = ad.sum_of_squares(ad.conv2d(p, w, padding=1))
    assert p.node.rebuild is not None
    loss.backward()
    assert p.node.rebuild is None and p.node.backward_fn is None
    with pytest.raises(GraphReleasedError, match="sum_of_squares"):
        loss.backward()


def test_profile_times_rebuilds_on_the_rebuilt_op():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(1, 2, 16, 16)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    with ad.profile() as prof:
        p = ad.prelu(x, Tensor(np.full(2, 0.25), requires_grad=True))
        ad.sum_of_squares(ad.conv2d(p, w, padding=1)).backward()
    rebuilt = {op: (e["rebuilds"], e["rebuild_ms"] > 0)
               for op, e in prof.stats.items()}
    assert rebuilt == {"prelu": (1, True), "conv2d": (0, False),
                       "sum_of_squares": (0, False)}
    assert prof.stats["conv2d"]["backward_ms"] > 0


def test_profile_splits_nested_rebuild_time_by_op(monkeypatch):
    # linear reads permute's rebuild, which reads layer_norm's
    x = t64(np.random.default_rng(13).normal(size=(2, 3, 4)))
    affine = [t64(np.ones(4)), t64(np.zeros(4))]
    h = ad.permute(ad.layer_norm(x, *affine), (0, 2, 1))
    loss = ad.mean(ad.linear(h, t64(np.ones((3, 2)))))
    ticks = iter(range(100))  # a clock that advances 1 s per reading
    monkeypatch.setattr(ad, "time",
                        SimpleNamespace(perf_counter=lambda: next(ticks)))
    with ad.profile() as prof:
        loss.backward()
    # mean 0-1; linear 2-7 holds permute 3-6, which holds layer_norm 4-5
    assert {op: (e["rebuilds"], e["rebuild_ms"])
            for op, e in prof.stats.items() if e["rebuilds"]} == \
        {"permute": (1, 2000.0), "layer_norm": (1, 1000.0)}
    assert prof.stats["linear"]["backward_ms"] == 2000.0


def test_second_backward_through_a_released_graph_raises():
    x = t64([[1.0, -2.0, 0.5]])
    params = mlp_weights(np.random.default_rng(0), 3, 4, 3,
                         requires_grad=False)
    out = ad.sum_of_squares(ad.mlp(x, *params))
    out.backward()
    once = x.grad.copy()
    with pytest.raises(GraphReleasedError, match="sum_of_squares"):
        out.backward()
    np.testing.assert_array_equal(x.grad, once)
    # a shared subgraph is released by the first backward through it
    h = ad.mlp(x, *params)
    ad.sum_of_squares(h).backward()
    with pytest.raises(GraphReleasedError, match="mlp"):
        ad.mean(h).backward()


# ---------------------------------------------------------------------------
# kernel references: grad_check cannot see a layout bug that forward and
# backward share, so the layouts are checked against direct loops
# ---------------------------------------------------------------------------

def vjp(out, g):
    """Input gradients of the op that produced ``out``, for output grad g."""
    return out.node.backward_fn(g)


def conv2d_reference(x, w, b, stride, padding):
    """Direct loop over output positions: output, and the gradients of
    sum(out * g) for x, w (b's is g summed)."""
    n, c, h, wd = x.shape
    oc, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    for i in range(oh):
        for j in range(ow):
            patch = xp[:, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
            out[:, :, i, j] = np.tensordot(patch, w, axes=([1, 2, 3], [1, 2, 3]))
    out += b[None, :, None, None]

    def grads(g):
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(w)
        for i in range(oh):
            for j in range(ow):
                rows = slice(i * stride, i * stride + kh)
                cols = slice(j * stride, j * stride + kw)
                gxp[:, :, rows, cols] += np.tensordot(g[:, :, i, j], w, axes=(1, 0))
                gw += np.tensordot(g[:, :, i, j], xp[:, :, rows, cols], axes=(0, 0))
        return gxp[:, :, padding:padding + h, padding:padding + wd], gw

    return out, grads


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("k,stride,padding,size", [
    (1, 1, 0, (5, 5)), (3, 1, 1, (6, 6)), (5, 1, 2, (6, 6)),
    (4, 4, 0, (8, 8)), (3, 1, 1, (5, 7)), (3, 1, 0, (6, 6)),
    (3, 1, 2, (5, 6)), (2, 2, 0, (6, 4))],
    ids=["1x1", "3x3pad1", "5x5pad2", "4x4stride4", "3x3pad1-5x7",
         "3x3valid", "3x3pad2", "2x2stride2-6x4"])
def test_conv2d_matches_direct_loop(n, k, stride, padding, size):
    # a stride equal to the kernel is the patch embedding, with no bias: a
    # 1x1 conv2d over the space-to-depth view of x
    rng = np.random.default_rng(k)
    x = t64(rng.normal(size=(n, 3, *size)))
    w = t64(rng.normal(size=(4, 3, k, k)))
    b = t64(rng.normal(size=4) if stride == 1 else np.zeros(4))
    if stride == 1:
        out = ad.conv2d(x, w, b, padding=padding)
    else:
        out = mx.patch_embed(x, w)
    ref, ref_grads = conv2d_reference(x.data, w.data, b.data, stride, padding)
    np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)
    g = rng.normal(size=ref.shape)
    # backward of sum(out * g) seeds out's gradient with g
    ad.linear_operator(out, lambda a: np.vdot(a, g), lambda s: s * g).backward()
    rx, rw = ref_grads(g)
    np.testing.assert_allclose(x.grad, rx, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(w.grad, rw, rtol=1e-12, atol=1e-12)
    if stride == 1:
        np.testing.assert_allclose(b.grad, g.sum(axis=(0, 2, 3)), rtol=1e-12)


def test_patch_embed_refuses_a_weight_it_cannot_apply():
    x = t64(np.zeros((1, 2, 8, 8)))
    for shape in ((3, 2, 3, 3), (3, 2, 4, 2), (3, 1, 4, 4), (3, 2, 4)):
        with pytest.raises(ShapeError, match="patch_embed"):
            mx.patch_embed(x, t64(np.zeros(shape)))


def im2col_conv2d(x, w, b, padding, g):
    """conv2d as one GEMM over an im2col column matrix, with its input
    gradient added back tap by tap through views: output, and the
    gradients of sum(out * g) for x, w and b. The flat-grid layout must
    give these bit for bit."""
    n, c, h, wd = x.shape
    oc, _, kh, kw = w.shape
    oh = h + 2 * padding - kh + 1
    ow = wd + 2 * padding - kw + 1
    k, npix = c * kh * kw, oh * ow
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    if kh == kw == 1:
        cols = xp.reshape(n, c, npix)
    else:
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw),
                                                       axis=(2, 3))
        cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, k, npix)
    wmat = w.reshape(oc, k)
    out = (wmat * cols) if k == 1 else wmat @ cols
    out += b[:, None]
    gmat = g.reshape(n, oc, npix)
    gw = (cols.transpose(1, 0, 2).reshape(k, n * npix)
          @ gmat.transpose(1, 0, 2).reshape(oc, n * npix).T).T.reshape(w.shape)
    gcols = (wmat.T * gmat) if oc == 1 else wmat.T @ gmat
    if kh == kw == 1:
        gxp = gcols.reshape(xp.shape)
    else:
        gcols = gcols.reshape(n, c, kh, kw, oh, ow)
        gxp = np.zeros(xp.shape, dtype=x.dtype)
        for ki in range(kh):
            for kj in range(kw):
                gxp[:, :, ki:ki + oh, kj:kj + ow] += gcols[:, :, ki, kj]
    gx = gxp[:, :, padding:padding + h, padding:padding + wd]
    return out.reshape(n, oc, oh, ow), gx, gw, gmat.sum(axis=(0, 2))


def _desk_convs():
    spec = importlib.util.spec_from_file_location(
        "bench_kernels", ROOT / "scripts" / "bench_kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.DESK_CONVS


@pytest.mark.parametrize("dt", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("n", [1, 2])
# conv2d has stride 1 only: "s1" in each id
@pytest.mark.parametrize("case", _desk_convs(),
                         ids=lambda case: "{}x{}-{}to{}-{}px-s1p{}".format(
                             case[1][2], case[1][3], case[0][1], case[1][0],
                             case[0][2], case[2]))
def test_conv2d_is_bitwise_the_strided_im2col_gemm(case, n, dt):
    xs, ws, padding = case
    rng = np.random.default_rng(sum(ws) + n)
    x = rng.normal(size=(n, *xs[1:])).astype(dt)
    w = rng.normal(size=ws).astype(dt)
    b = rng.normal(size=ws[0]).astype(dt)
    out = ad.conv2d(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                    Tensor(b, requires_grad=True), padding=padding)
    g = rng.normal(size=out.shape).astype(dt)
    ref = im2col_conv2d(x, w, b, padding, g)
    got = (out.data, *vjp(out, g))
    for name, a, r in zip(("out", "gx", "gw", "gb"), got, ref):
        assert a.dtype == dt and np.array_equal(a, r), name


def linear_gelu_linear(x, w1, b1, w2, b2, g):
    """The three kernels ``mlp`` fuses, as the separate linear, exact GELU
    and linear ops ran them: output, and the gradients of sum(out * g) for
    x, w1, b1, w2 and b2, node by node in reverse."""
    from scipy.special import erf

    x2 = x.reshape(-1, x.shape[-1])
    u = x2 @ w1
    u += b1
    u = u.reshape(*x.shape[:-1], w1.shape[1])
    cdf = erf(u * (1.0 / math.sqrt(2.0)))
    cdf += 1.0
    cdf *= 0.5
    hidden = u * cdf
    h2 = hidden.reshape(-1, w1.shape[1])
    out = h2 @ w2
    out += b2
    g2 = g.reshape(-1, w2.shape[1])
    gh = (g2 @ w2.T).reshape(hidden.shape)
    gw2, gb2 = h2.T @ g2, g2.sum(axis=0)
    dy = u * u
    dy *= -0.5
    np.exp(dy, out=dy)
    dy *= 1.0 / math.sqrt(2.0 * math.pi)
    dy *= u
    dy += cdf
    dy *= gh
    gu = dy.reshape(-1, w1.shape[1])
    gx = (gu @ w1.T).reshape(x.shape)
    return (out.reshape(*x.shape[:-1], w2.shape[1]), gx, x2.T @ gu,
            gu.sum(axis=0), gw2, gb2)


def instance_norm_then_prelu(x, gamma, beta, slopes, g, eps=1e-5):
    """The two kernels ``instance_norm_prelu`` fuses, as the separate
    instance_norm and prelu ops ran them: output, and the gradients of
    sum(out * g) for x, gamma, beta and slopes."""
    n, c, h, wd = x.shape
    m = h * wd
    ones = np.ones(m, dtype=x.dtype)
    rows = x.reshape(-1, m)
    xhat = rows - ((rows @ ones) / m)[:, None]
    var = np.einsum("ij,ij->i", xhat, xhat) / m
    inv_std = (1.0 / np.sqrt(var + eps))[:, None]
    xhat *= inv_std
    xhat = xhat.reshape(x.shape)
    y = xhat * gamma[None, :, None, None]
    y += beta[None, :, None, None]
    pos = (y > 0).astype(x.dtype)
    scale = 1.0 - pos
    scale *= slopes[None, :, None, None]
    scale += pos
    out = y * scale
    gslopes = np.einsum("nchw,nchw->c", g, np.minimum(y, 0.0))
    gy = g * scale
    ggamma = np.einsum("nchw,nchw->c", gy, xhat)
    gbeta = gy.sum(axis=(0, 2, 3))
    gr = (gy * gamma[None, :, None, None]).reshape(-1, m)
    xr = xhat.reshape(-1, m)
    gx = gr - ((gr @ ones) / m)[:, None]
    gx -= xr * (np.einsum("ij,ij->i", gr, xr) / m)[:, None]
    gx *= inv_std
    return out, gx.reshape(x.shape), ggamma, gbeta, gslopes


def _fused_case(fn, reference, rng, x, params):
    """The fused op's output and vjp against the reference's, per array."""
    out = fn(Tensor(x, requires_grad=True),
             *(Tensor(p, requires_grad=True) for p in params))
    g = rng.normal(size=out.shape).astype(x.dtype)
    return zip((out.data, *vjp(out, g)), reference(x, *params, g))


@pytest.mark.parametrize("dt", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("shape,hidden,d_out", [
    ((3, 4, 8), 32, 8),  # a token MLP: 4x the tokens, back to the tokens
    ((4, 4, 12), 48, 12),  # a channel MLP at d = 12
    ((2, 5), 3, 7),
])
def test_mlp_is_bitwise_linear_gelu_linear(shape, hidden, d_out, n, dt):
    rng = np.random.default_rng(hidden + n)
    x = rng.normal(size=(n, *shape)).astype(dt)
    params = [rng.normal(scale=0.5, size=s).astype(dt) for s in
              ((shape[-1], hidden), (hidden,), (hidden, d_out), (d_out,))]
    for name, (a, r) in zip(("out", "gx", "gw1", "gb1", "gw2", "gb2"),
                            _fused_case(ad.mlp, linear_gelu_linear, rng, x,
                                        params)):
        assert a.dtype == dt and np.array_equal(a, r), name


@pytest.mark.parametrize("dt", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("shape", [(4, 8, 8), (32, 16, 16), (3, 5, 7)])
def test_instance_norm_prelu_is_bitwise_instance_norm_then_prelu(shape, n,
                                                                 dt):
    rng = np.random.default_rng(shape[0] + n)
    x = rng.normal(size=(n, *shape)).astype(dt)
    c = shape[0]
    params = [(1.0 + rng.normal(size=c)).astype(dt),
              rng.normal(size=c).astype(dt),
              rng.normal(scale=0.25, size=c).astype(dt)]
    for name, (a, r) in zip(("out", "gx", "ggamma", "gbeta", "gslopes"),
                            _fused_case(ad.instance_norm_prelu,
                                        instance_norm_then_prelu, rng, x,
                                        params)):
        assert a.dtype == dt and np.array_equal(a, r), name


def test_fused_ops_keep_only_what_backward_cannot_rebuild():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(2, 4, 6, 8)).astype(np.float32),
               requires_grad=True)
    affine = [Tensor(np.full(4, v, dtype=np.float32), requires_grad=True)
              for v in (1.0, 0.0, 0.25)]
    with ad.profile() as prof:
        ad.mlp(x, *mlp_weights(rng, 8, 32, 8, np.float32))
        ad.instance_norm_prelu(x, *affine)
    rows = 2 * 4 * 6
    # mlp: the cdf, not the pre-activation or the hidden output
    assert prof.stats["mlp"]["kept_bytes"] == rows * 32 * 4
    # instance_norm_prelu: xhat and one 1/std per plane, not the affine
    # output the PReLU reads
    assert prof.stats["instance_norm_prelu"]["kept_bytes"] == \
        x.data.nbytes + 2 * 4 * 4


def maxpool_reference(x, k, stride, padding, g):
    """Direct loop: window max and its first (row-major) position gets g."""
    n, c, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=-np.inf)
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, c, oh, ow))
    gxp = np.zeros_like(xp)
    for s in range(n):
        for ch in range(c):
            for i in range(oh):
                for j in range(ow):
                    win = xp[s, ch, i * stride:i * stride + k, j * stride:j * stride + k]
                    a, bb = divmod(int(np.argmax(win)), k)
                    out[s, ch, i, j] = win[a, bb]
                    gxp[s, ch, i * stride + a, j * stride + bb] += g[s, ch, i, j]
    return out, gxp[:, :, padding:padding + h, padding:padding + wd]


@pytest.mark.parametrize("k,stride,padding", [(2, 2, 0), (3, 1, 1)])
def test_maxpool2d_matches_direct_loop_with_ties(k, stride, padding):
    rng = np.random.default_rng(5)
    # few distinct values: most windows hold a tie for the max
    x = rng.integers(0, 3, size=(2, 3, 6, 6)).astype(np.float64)
    out = ad.maxpool2d(t64(x), k, stride=stride, padding=padding)
    g = rng.normal(size=out.shape)
    ref, ref_gx = maxpool_reference(x, k, stride, padding, g)
    np.testing.assert_array_equal(out.data, ref)
    np.testing.assert_allclose(vjp(out, g)[0], ref_gx, rtol=1e-12, atol=1e-15)


def test_inf_upstream_gradient_spreads_within_its_window_and_channel():
    # maxpool2d and prelu select by multiplying with 0 or 1, and inf * 0 is
    # NaN: an inf gradient comes back non-finite across its pooling window
    # and in its channel's slope gradient. Everything else stays exact.
    x = np.arange(16.0).reshape(1, 1, 4, 4)  # each window's max is its last tap
    out = ad.maxpool2d(t64(x), 2)
    g = np.ones(out.shape)
    g[0, 0, 0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        gx = vjp(out, g)[0][0, 0]
    assert gx[1, 1] == np.inf and np.isnan(gx[:2, :2]).sum() == 3
    np.testing.assert_array_equal(gx[:, 2:], [[0, 0], [0, 1], [0, 0], [0, 1]])
    np.testing.assert_array_equal(gx[2:, :2], [[0, 0], [0, 1]])

    x = np.array([1.0, -2.0, 3.0, -4.0]).reshape(1, 2, 1, 2)
    out = ad.prelu(t64(x), t64([0.25, 0.5]))
    g = np.array([np.inf, 1.0, 1.0, 1.0]).reshape(x.shape)
    with np.errstate(invalid="ignore"):
        gx, ga = vjp(out, g)
    np.testing.assert_array_equal(gx.ravel(), [np.inf, 0.25, 1.0, 0.5])
    assert np.isnan(ga[0]) and ga[1] == -4.0


# op -> (call on x and its parameters, parameter shapes)
BATCHED = {
    "conv2d": (lambda x, p: ad.conv2d(x, p[0], p[1], padding=1),
               [(4, 3, 3, 3), (4,)]),
    "conv_transpose2d": (lambda x, p: ad.conv_transpose2d(x, p[0], p[1]),
                         [(3, 2, 2, 2), (2,)]),
    "maxpool2d": (lambda x, p: ad.maxpool2d(x, 3, stride=1, padding=1), []),
    "prelu": (lambda x, p: ad.prelu(x, p[0]), [(3,)]),
    "instance_norm_prelu": (lambda x, p: ad.instance_norm_prelu(x, *p),
                            [(3,), (3,), (3,)]),
    "mlp": (lambda x, p: ad.mlp(x, *p), [(6, 8), (8,), (8, 5), (5,)]),
}


@pytest.mark.parametrize("op", sorted(BATCHED))
def test_batch_of_two_equals_two_single_calls(op):
    fn, shapes = BATCHED[op]
    rng = np.random.default_rng(11)
    params = [t64(rng.normal(size=s)) for s in shapes]
    x = rng.normal(size=(2, 3, 6, 6))
    both = fn(t64(x), params)
    g = rng.normal(size=both.shape)
    both_grads = vjp(both, g)
    singles = [fn(t64(x[i:i + 1]), params) for i in range(2)]
    single_grads = [vjp(s, g[i:i + 1]) for i, s in enumerate(singles)]
    np.testing.assert_allclose(
        both.data, np.concatenate([s.data for s in singles]), rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(
        both_grads[0], np.concatenate([sg[0] for sg in single_grads]),
        rtol=1e-13, atol=1e-13)
    for j in range(1, len(both_grads)):  # parameter grads sum over the batch
        np.testing.assert_allclose(
            both_grads[j], single_grads[0][j] + single_grads[1][j],
            rtol=1e-12, atol=1e-12)


def _nchw(rng, dt, shape=(2, 3, 4, 4)):
    return Tensor(rng.normal(size=shape).astype(dt), requires_grad=True)


PRIMITIVES = {
    "add": lambda r, dt: ad.add(_nchw(r, dt), _nchw(r, dt)),
    "sub": lambda r, dt: ad.sub(_nchw(r, dt), _nchw(r, dt)),
    "mul": lambda r, dt: ad.mul(_nchw(r, dt), _nchw(r, dt)),
    "mul_scalar": lambda r, dt: ad.mul(_nchw(r, dt), _nchw(r, dt, (1,))),
    "linear": lambda r, dt: ad.linear(_nchw(r, dt), _nchw(r, dt, (4, 5))),
    "conv2d": lambda r, dt: ad.conv2d(_nchw(r, dt), _nchw(r, dt, (2, 3, 3, 3)),
                                      _nchw(r, dt, (2,)), padding=1),
    "conv2d_1x1": lambda r, dt: ad.conv2d(_nchw(r, dt), _nchw(r, dt, (1, 3, 1, 1)),
                                          _nchw(r, dt, (1,))),
    "conv_transpose2d": lambda r, dt: ad.conv_transpose2d(
        _nchw(r, dt), _nchw(r, dt, (3, 2, 2, 2)), _nchw(r, dt, (2,))),
    "maxpool2d": lambda r, dt: ad.maxpool2d(_nchw(r, dt), 2),
    "mlp": lambda r, dt: ad.mlp(_nchw(r, dt), _nchw(r, dt, (4, 6)),
                                _nchw(r, dt, (6,)), _nchw(r, dt, (6, 5)),
                                _nchw(r, dt, (5,))),
    "prelu": lambda r, dt: ad.prelu(_nchw(r, dt), _nchw(r, dt, (3,))),
    "layer_norm": lambda r, dt: ad.layer_norm(_nchw(r, dt), _nchw(r, dt, (4,)),
                                              _nchw(r, dt, (4,))),
    "instance_norm_prelu": lambda r, dt: ad.instance_norm_prelu(
        _nchw(r, dt), _nchw(r, dt, (3,)), _nchw(r, dt, (3,)),
        _nchw(r, dt, (3,))),
    "reshape": lambda r, dt: ad.reshape(_nchw(r, dt), (6, 16)),
    "permute": lambda r, dt: ad.permute(_nchw(r, dt), (0, 2, 3, 1)),
    "concat": lambda r, dt: ad.concat([_nchw(r, dt), _nchw(r, dt)]),
    "mean": lambda r, dt: ad.mean(_nchw(r, dt)),
    "sum_of_squares": lambda r, dt: ad.sum_of_squares(_nchw(r, dt)),
    "linear_operator": lambda r, dt: ad.linear_operator(
        _nchw(r, dt), lambda v: 2.0 * v[..., ::2], lambda g: np.repeat(g, 2, -1)),
}


@pytest.mark.parametrize("dt", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("op", sorted(PRIMITIVES))
def test_primitive_keeps_dtype(op, dt):
    out = PRIMITIVES[op](np.random.default_rng(2), dt)
    assert out.dtype == dt
    for grad in vjp(out, np.ones_like(out.data)):
        assert grad.dtype == dt, op
