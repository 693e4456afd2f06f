import numpy as np
import pytest

from qnct import autodiff as ad
from qnct.autodiff import Tensor
from qnct.errors import CheckpointError, FiniteCheckError, ShapeError


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
    out = ad.conv2d(x, w, stride=1, padding=1)
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
    x = t64([1.0, 2.0])
    frozen = t64([3.0], requires_grad=False)

    def f():
        return ad.sum_of_squares(ad.mul(x, ad.concat([frozen, frozen], axis=0)))

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

    def test_matmul(self):
        a = t64(self.rng.normal(size=(3, 4)))
        b = t64(self.rng.normal(size=(4, 2)))
        self.check(lambda: ad.sum_of_squares(ad.matmul(a, b)), [a, b])

    def test_linear(self):
        x = t64(self.rng.normal(size=(2, 3, 5)))
        w = t64(self.rng.normal(size=(5, 4)))
        b = t64(self.rng.normal(size=(4,)))
        self.check(lambda: ad.sum_of_squares(ad.linear(x, w, b)), [x, w, b])

    def test_conv2d(self):
        x = t64(self.rng.normal(size=(2, 3, 6, 6)))
        w = t64(self.rng.normal(size=(4, 3, 3, 3)))
        b = t64(self.rng.normal(size=(4,)))
        self.check(
            lambda: ad.sum_of_squares(ad.conv2d(x, w, b, stride=1, padding=1)),
            [x, w, b],
        )

    def test_conv2d_strided(self):
        x = t64(self.rng.normal(size=(1, 2, 8, 8)))
        w = t64(self.rng.normal(size=(3, 2, 4, 4)))
        self.check(
            lambda: ad.sum_of_squares(ad.conv2d(x, w, stride=4, padding=0)), [x, w]
        )

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

    def test_gelu(self):
        x = t64(self.rng.normal(size=(17,)))
        self.check(lambda: ad.sum_of_squares(ad.gelu(x)), [x])

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
        c = Tensor(self.rng.normal(size=(3, 6)), dtype=np.float64)
        self.check(
            lambda: ad.sum_of_squares(ad.mul(c, ad.layer_norm(x, gamma, beta))),
            [x, gamma, beta],
        )

    def test_instance_norm(self):
        x = t64(self.rng.normal(size=(2, 3, 5, 5)))
        gamma = t64(self.rng.normal(size=(3,)) + 1.0)
        beta = t64(self.rng.normal(size=(3,)))
        c = Tensor(self.rng.normal(size=(2, 3, 5, 5)), dtype=np.float64)
        self.check(
            lambda: ad.sum_of_squares(ad.mul(c, ad.instance_norm(x, gamma, beta))),
            [x, gamma, beta],
        )

    def test_reshape_permute_concat_mean(self):
        a = t64(self.rng.normal(size=(2, 3, 4)))
        b = t64(self.rng.normal(size=(2, 5, 4)))

        def f():
            c = ad.concat([a, b], axis=1)
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


def test_forward_backward_bit_deterministic():
    def run():
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(1, 2, 8, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32), requires_grad=True)
        out = ad.mean(ad.gelu(ad.conv2d(x, w, padding=1)))
        out.backward()
        return out.data.copy(), x.grad.copy(), w.grad.copy()

    a = run()
    b = run()
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_backward_twice_doubles_grads():
    x = t64([1.0, -2.0, 0.5])

    def loss():
        return ad.sum_of_squares(ad.gelu(x))

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
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_pool_and_conv_reject_uneven_division():
    x = Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32))
    with pytest.raises(ShapeError, match="maxpool2d"):
        ad.maxpool2d(x, 2, stride=2)
    with pytest.raises(ShapeError, match="conv2d"):
        ad.conv2d(x, Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32)), stride=2)


def test_debug_finite_check():
    ad.set_debug_checks(True)
    try:
        x = Tensor(np.array([1.0, np.inf], dtype=np.float32))
        with pytest.raises(FiniteCheckError, match="add"):
            ad.add(x, x)
    finally:
        ad.set_debug_checks(False)


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
