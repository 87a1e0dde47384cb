import numpy as np
import pytest

from intentmotion import autodiff as ad
from intentmotion.autodiff import ParamStore, Tensor, backward, grad_check


def scalar(x):
    return float(np.asarray(x.values).reshape(()))


class TestForwardPrimitives:
    def test_dense_identity(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]))
        y = ad.dense(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(y.values, x.values)

    def test_conv_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 6, 6, 1)))
        k = np.zeros((3, 3, 1, 1))
        k[1, 1, 0, 0] = 1.0
        y = ad.conv2d_same(x, Tensor(k))
        np.testing.assert_allclose(y.values, x.values)

    def test_maxpool_constant(self):
        x = Tensor(np.full((1, 4, 4, 2), 3.5))
        y = ad.maxpool2(x)
        assert y.values.shape == (1, 2, 2, 2)
        np.testing.assert_array_equal(y.values, np.full((1, 2, 2, 2), 3.5))

    def test_maxpool_shapes_24_12_6(self):
        x = Tensor(np.zeros((2, 24, 24, 3)))
        y = ad.maxpool2(ad.maxpool2(x))
        assert y.values.shape == (2, 6, 6, 3)

    def test_upsample_inverts_shape(self):
        x = Tensor(np.arange(8.0).reshape(1, 2, 2, 2))
        y = ad.upsample2_nearest(x)
        assert y.values.shape == (1, 4, 4, 2)
        assert y.values[0, 0, 0, 0] == y.values[0, 1, 1, 0] == 0.0

    def test_softmax_constant_rows(self):
        y = ad.softmax(Tensor(np.zeros((2, 5))))
        np.testing.assert_allclose(y.values, np.full((2, 5), 0.2))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ad.AutodiffError, match="matmul"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        with pytest.raises(ad.AutodiffError, match="add"):
            ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


class TestBackward:
    def test_sum_sq_gradient(self):
        x = Tensor(np.array([3.0]))
        backward(ad.sum_sq(x))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_tanh_at_zero(self):
        x = Tensor(np.array(0.0))
        backward(ad.tanh(x))
        np.testing.assert_allclose(x.grad, 1.0)

    def test_backward_requires_scalar(self):
        with pytest.raises(ad.AutodiffError):
            backward(Tensor(np.zeros(3)))

    def test_accumulation_doubles(self):
        x = Tensor(np.array([2.0, -1.0]))
        y = ad.sum_sq(x)
        backward(y)
        g1 = x.grad.copy()
        backward(y)
        np.testing.assert_allclose(x.grad, 2 * g1)

    def test_diamond_graph_fanout(self):
        x = Tensor(np.array(2.0))
        y = ad.add(ad.mul(x, x), x)  # x^2 + x
        backward(y)
        np.testing.assert_allclose(x.grad, 5.0)


class TestGradCheckPrimitives:
    """Every primitive against central finite differences."""

    def test_linear_is_exact(self):
        err = grad_check(lambda ts: ad.sum_(ad.mul(ts[0], 3.0)),
                         [np.array([1.0, 2.0, 3.0])])
        assert err < 1e-9

    @pytest.mark.parametrize("name,builder,shape", [
        ("add", lambda ts: ad.sum_sq(ad.add(ts[0], ts[1])), [(3, 2), (3, 2)]),
        ("sub", lambda ts: ad.sum_sq(ad.sub(ts[0], ts[1])), [(4,), (4,)]),
        ("mul", lambda ts: ad.sum_(ad.mul(ts[0], ts[1])), [(3, 2), (3, 2)]),
        ("div", lambda ts: ad.sum_(ad.div(ts[0], ad.add(ad.mul(ts[1], ts[1]), 1.0))), [(4,), (4,)]),
        ("matmul", lambda ts: ad.sum_sq(ad.matmul(ts[0], ts[1])), [(3, 4), (4, 2)]),
        ("relu", lambda ts: ad.sum_sq(ad.relu(ts[0])), [(5,)]),
        ("tanh", lambda ts: ad.sum_(ad.tanh(ts[0])), [(5,)]),
        ("sigmoid", lambda ts: ad.sum_(ad.sigmoid(ts[0])), [(5,)]),
        ("exp", lambda ts: ad.sum_(ad.exp(ts[0])), [(5,)]),
        ("softplus", lambda ts: ad.sum_(ad.softplus(ts[0])), [(5,)]),
        ("softmax", lambda ts: ad.sum_sq(ad.softmax(ts[0])), [(2, 4)]),
        ("concat", lambda ts: ad.sum_sq(ad.concat([ts[0], ts[1]], axis=-1)), [(2, 3), (2, 2)]),
        ("take", lambda ts: ad.sum_sq(ts[0][1:, :2]), [(3, 4)]),
        ("reshape", lambda ts: ad.sum_sq(ad.reshape(ts[0], (6,))), [(2, 3)]),
        ("pow", lambda ts: ad.sum_(ad.pow_const(ad.add(ad.mul(ts[0], ts[0]), 1.0), 1.5)), [(4,)]),
        ("sum_axis", lambda ts: ad.sum_sq(ad.sum_(ts[0], axis=1)), [(3, 4)]),
        ("mean", lambda ts: ad.sum_sq(ad.mean(ts[0], axis=0)), [(3, 4)]),
        ("logsumexp", lambda ts: ad.sum_(ad.logsumexp(ts[0], axis=-1)), [(3, 4)]),
        ("conv", lambda ts: ad.sum_sq(ad.conv2d_same(ad.reshape(ts[0], (1, 4, 4, 2)), ad.reshape(ts[1], (3, 3, 2, 2)))), [(4, 4, 2), (3, 3, 2, 2)]),
        ("maxpool", lambda ts: ad.sum_sq(ad.maxpool2(ad.reshape(ts[0], (1, 4, 4, 2)))), [(4, 4, 2)]),
        ("upsample", lambda ts: ad.sum_sq(ad.upsample2_nearest(ad.reshape(ts[0], (1, 2, 2, 2)))), [(2, 2, 2)]),
    ])
    def test_primitive_gradients(self, name, builder, shape):
        rng = np.random.default_rng(hash(name) % 2**32)
        inputs = [rng.normal(size=s) for s in shape]
        assert grad_check(builder, inputs) < 1e-4

    def test_log_sinh_gradient(self):
        err = grad_check(lambda ts: ad.sum_(ad.log_sinh(ad.softplus(ts[0]))),
                         [np.array([0.3, 1.0, 4.0])])
        assert err < 1e-4

    def test_log_sinh_large_argument_stable(self):
        y = ad.log_sinh(Tensor(np.array([200.0])))
        np.testing.assert_allclose(y.values, 200.0 - np.log(2.0), rtol=1e-12)

    def test_bilinear2d_matches_manual(self):
        grids = np.arange(12.0).reshape(1, 3, 4)
        uv = Tensor(np.array([[[1.0, 2.0]]]))  # exact cell center
        assert scalar(ad.bilinear2d(grids, uv)) == grids[0, 1, 2]
        uv = Tensor(np.array([[[0.5, 1.0]]]))  # midpoint of two centers
        expected = 0.5 * (grids[0, 0, 1] + grids[0, 1, 1])
        assert scalar(ad.bilinear2d(grids, uv)) == pytest.approx(expected)

    def test_bilinear2d_gradient(self):
        rng = np.random.default_rng(3)
        grids = rng.normal(size=(2, 5, 5))
        uv = rng.uniform(0.6, 3.4, size=(2, 3, 2))
        err = grad_check(
            lambda ts: ad.sum_sq(ad.bilinear2d(grids, ts[0])), [uv])
        assert err < 1e-4

    def test_bilinear2d_out_of_range_gradient(self):
        grids = np.zeros((1, 4, 4))
        uv = np.array([[[-1.5, 1.2]]])
        err = grad_check(
            lambda ts: ad.sum_(ad.bilinear2d(grids, ts[0])), [uv])
        assert err < 1e-4


class TestParamStore:
    def test_adam_zero_gradient_no_change(self):
        store = ParamStore()
        t = store.add("w", np.ones(3))
        t.grad = np.zeros(3)
        store.adam_step(lr=0.1)
        np.testing.assert_array_equal(t.values, np.ones(3))

    def test_frozen_tensor_untouched(self):
        store = ParamStore()
        t = store.add("frozen", np.ones(3), trainable=False)
        t.grad = np.full(3, 5.0)
        for _ in range(10):
            store.adam_step(lr=0.1)
        np.testing.assert_array_equal(t.values, np.ones(3))

    def test_adam_quadratic_convergence(self):
        store = ParamStore()
        x = store.add("x", np.array([0.0]))
        for _ in range(500):
            store.zero_grad()
            backward(ad.sum_sq(ad.sub(x, 5.0)))
            store.adam_step(lr=0.1)
        assert abs(float(x.values[0]) - 5.0) < 1e-2

    def test_nonfinite_gradient_aborts(self):
        store = ParamStore()
        t = store.add("w", np.ones(2))
        t.grad = np.array([np.nan, 0.0])
        with pytest.raises(ad.OptimizerError, match="w"):
            store.adam_step(lr=0.1)

    def test_checkpoint_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        store = ParamStore()
        store.add("enc/k", rng.normal(size=(3, 3, 4, 8)), trainable=False)
        store.add("trunk/w", rng.normal(size=(10, 5)))
        path = tmp_path / "model.ckpt"
        store.save(path)
        loaded = ParamStore.load(path)
        assert loaded.names() == store.names()
        for n in store.names():
            np.testing.assert_array_equal(loaded[n].values, store[n].values)
            assert loaded.trainable[n] == store.trainable[n]

    def test_checkpoint_header(self, tmp_path):
        store = ParamStore()
        store.add("w", np.zeros(2))
        path = tmp_path / "x.ckpt"
        store.save(path)
        assert path.read_bytes().startswith(ad.CHECKPOINT_MAGIC)

    def test_truncated_checkpoint_raises_optimizer_error(self, tmp_path):
        store = ParamStore()
        store.add("enc/k", np.arange(6.0).reshape(2, 3), trainable=False)
        store.add("b", np.ones(2))
        path = tmp_path / "full.ckpt"
        store.save(path)
        data = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(ad.OptimizerError, match="cut.ckpt"):
                ParamStore.load(cut)

    def test_determinism_same_seed(self):
        def run():
            rng = np.random.default_rng(42)
            store = ParamStore()
            w, b = store.dense_layer("l", 4, 3, rng)
            x = Tensor(np.random.default_rng(1).normal(size=(5, 4)))
            loss = ad.sum_sq(ad.tanh(ad.dense(x, w, b)))
            store.zero_grad()
            backward(loss)
            store.adam_step(lr=1e-2)
            return w.values.copy(), w.grad.copy()

        v1, g1 = run()
        v2, g2 = run()
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(g1, g2)
