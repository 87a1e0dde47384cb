import struct
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

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

    @pytest.mark.parametrize("op, args, match", [
        (ad.conv2d_same, (np.zeros((1, 5, 5, 2)), np.zeros((2, 2, 2, 3))),
         "even spatial size"),
        (ad.conv2d_same, (np.zeros((1, 5, 5, 2)), np.zeros((3, 2, 2, 3))),
         "even spatial size"),
        (ad.maxpool2, (np.zeros((4, 4, 2)),), r"\(N, H, W, C\)"),
        (ad.upsample2_nearest, (np.zeros((4, 4, 2)),), r"\(N, H, W, C\)"),
    ], ids=["conv-even-kernel", "conv-even-width", "maxpool-3d", "upsample-3d"])
    def test_malformed_spatial_input_raises(self, op, args, match):
        with pytest.raises(ad.AutodiffError, match=match):
            op(*(Tensor(a) for a in args))


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

    def test_clip_grad_norm_scales_trainable_gradients_only(self):
        store = ParamStore()
        w = store.add("w", np.zeros(2))
        b = store.add("b", np.zeros(1))
        frozen = store.add("frozen", np.zeros(2), trainable=False)
        w.grad, b.grad, frozen.grad = np.array([3.0, 0.0]), np.array([4.0]), np.ones(2)
        store.clip_grad_norm(10.0)  # norm 5: untouched
        assert w.grad.tolist() == [3.0, 0.0] and b.grad.tolist() == [4.0]
        store.clip_grad_norm(1.0)
        np.testing.assert_allclose(np.concatenate([w.grad, b.grad]), [0.6, 0.0, 0.8])
        assert frozen.grad.tolist() == [1.0, 1.0]

    def test_minibatch_adam_visits_rows_in_the_loop_generators_order(self):
        store = ParamStore()
        x = store.add("x", np.zeros(1))
        calls = []

        def step(idx, epoch, rng):
            calls.append((epoch, idx.tolist(), rng.random()))
            value = float(len(idx) + epoch)

            def write_grads():
                x.grad = np.ones(1)
            return value, write_grads

        curve = ad.minibatch_adam(store, 5, step, epochs=2, lr=0.1, seed=7, batch=2)
        rng = np.random.default_rng(7)
        expected = []
        for epoch in range(2):
            order = rng.permutation(5)
            for lo in range(0, 5, 2):
                expected.append((epoch, order[lo:lo + 2].tolist(), rng.random()))
        assert calls == expected
        assert curve == [(2 * 2 + 2 * 2 + 1) / 5, (3 * 2 + 3 * 2 + 2) / 5]
        assert x.values[0] < 0 and x.grad is None and store._t == 0

    def test_minibatch_adam_raises_on_a_nonfinite_loss(self):
        store = ParamStore()
        store.add("x", np.zeros(1))
        written = []

        def step(idx, epoch, rng):
            return (np.nan if epoch == 1 else 1.0), lambda: written.append(epoch)

        with pytest.raises(ad.TrainingError, match="diverged at epoch 1"):
            ad.minibatch_adam(store, 4, step, epochs=3, lr=0.1, seed=0, batch=4)
        assert written == [0]

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

    def test_end_training_restarts_adam_as_a_loaded_checkpoint(self, tmp_path):
        store = ParamStore()
        w = store.add("w", np.array([1.0, -2.0]))
        store.add("frozen", np.ones(2), trainable=False)
        for _ in range(3):
            store.zero_grad()
            backward(ad.sum_sq(w))
            store.adam_step(lr=0.1)
        store.end_training()
        assert all(t.grad is None for t in store.params.values())
        assert not store._m and not store._v and store._t == 0
        path = tmp_path / "w.ckpt"
        store.save(path)
        loaded = ParamStore.load(path)
        for s in (store, loaded):
            backward(ad.sum_sq(s["w"]))
            s.adam_step(lr=0.1)
        assert store["w"].values.tobytes() == loaded["w"].values.tobytes()

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


class TestRequiresGrad:
    def test_flag_propagates_and_prunes_parents(self):
        w = Tensor(np.ones(3))
        c = Tensor(np.ones(3), requires_grad=False)
        assert w.requires_grad and not c.requires_grad
        y = ad.mul(w, c)
        assert y.requires_grad and y.parents == (w,)
        z = ad.add(c, 2.0)
        assert not z.requires_grad and z.parents == ()

    def test_constants_and_data_get_no_grad(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(4, 2)))
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=False)
        c = Tensor(rng.normal(size=(5, 2)), requires_grad=False)
        backward(ad.sum_sq(ad.sub(ad.matmul(x, w), c)))
        assert x.grad is None and c.grad is None
        np.testing.assert_array_equal(
            w.grad, 2.0 * x.values.T @ (x.values @ w.values - c.values))

    def test_root_without_grad_is_noop(self):
        c = Tensor(np.ones(3), requires_grad=False)
        backward(ad.sum_(c))
        assert c.grad is None

    def test_conv_skips_only_the_unneeded_partial(self):
        rng = np.random.default_rng(4)
        xv, kv = rng.normal(size=(2, 6, 6, 3)), rng.normal(size=(3, 3, 3, 4))
        weights = rng.normal(size=(2, 6, 6, 4))
        grads = {}
        for x_req in (True, False):
            for k_req in (True, False):
                x = Tensor(xv, requires_grad=x_req)
                k = Tensor(kv, requires_grad=k_req)
                backward(ad.sum_(ad.mul(ad.conv2d_same(x, k), weights)))
                assert (x.grad is not None) == x_req
                assert (k.grad is not None) == k_req
                grads[x_req, k_req] = (x.grad, k.grad)
        dx, dk = grads[True, True]
        assert grads[True, False][0].tobytes() == dx.tobytes()
        assert grads[False, True][1].tobytes() == dk.tobytes()

    def test_matmul_skips_only_the_unneeded_partial(self):
        rng = np.random.default_rng(5)
        av, bv = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        a, b = Tensor(av), Tensor(bv)
        backward(ad.sum_sq(ad.matmul(a, b)))
        a2, b2 = Tensor(av, requires_grad=False), Tensor(bv)
        backward(ad.sum_sq(ad.matmul(a2, b2)))
        assert a2.grad is None
        assert b2.grad.tobytes() == b.grad.tobytes()

    def test_first_touch_copies_and_clears_negative_zero(self):
        x = Tensor(np.array([1.0, 2.0]))
        backward(ad.sum_(ad.mul(x, -0.0)))
        assert not np.signbit(x.grad).any()
        g = np.array([-0.0, 3.0])
        y = Tensor(np.zeros(2))
        y._accumulate(g)
        assert y.grad is not g and not np.signbit(y.grad[0])
        assert y.grad.tobytes() == (np.zeros(2) + g).tobytes()

    def test_store_flags_follow_trainable(self, tmp_path):
        store = ParamStore()
        store.add("a", np.ones(2))
        store.add("b", np.ones(2), trainable=False)
        store.freeze("a")
        store.add("c", np.ones(2))
        for n in store.names():
            assert store[n].requires_grad == store.trainable[n]
        path = tmp_path / "s.ckpt"
        store.save(path)
        loaded = ParamStore.load(path)
        merged = ParamStore()
        merged.merge_from(loaded)
        forced = ParamStore()
        forced.merge_from(loaded, trainable=True)
        for s in (loaded, merged, forced):
            for n in s.names():
                assert s[n].requires_grad == s.trainable[n]
        assert [loaded.trainable[n] for n in "abc"] == [False, False, True]
        assert all(forced.trainable[n] for n in "abc")

    def test_frozen_param_ends_without_grad(self):
        store = ParamStore()
        w = store.add("w", np.ones(3))
        f = store.add("f", np.ones(3), trainable=False)
        backward(ad.sum_sq(ad.mul(w, f)))
        assert f.grad is None and w.grad is not None
        store.freeze("w")
        assert w.grad is None
        backward(ad.sum_sq(ad.mul(w, f)))
        assert w.grad is None



# ---------------------------------------------------------------------------
# the CNN kernels against the formulas they replaced, bit for bit


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def maxpool2_oracle(x, g):
    """Value and input gradient of the argmax-based 2x2 max pool."""
    n, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    xr = (x.reshape(n, h2, 2, w2, 2, c).transpose(0, 1, 3, 5, 2, 4)
          .reshape(n, h2, w2, c, 4))
    idx = np.argmax(xr, axis=-1)
    y = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
    gr = np.zeros_like(xr)
    np.put_along_axis(gr, idx[..., None], g[..., None], axis=-1)
    dx = gr.reshape(n, h2, w2, c, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(n, h, w, c)
    return y, dx


def conv_backward_oracle(x, k, g):
    """(dx, dk) of the stride-1 'same' convolution, by the per-offset
    scatter from the (N, H, W, kh, kw, Cin) column gradient."""
    n, h, w, cin = x.shape
    kh, kw, _, cout = k.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(n * h * w, kh * kw * cin)
    gf = g.reshape(n * h * w, cout)
    dk = (cols.T @ gf).reshape(k.shape)
    dcols = (gf @ k.reshape(-1, cout).T).reshape(n, h, w, kh, kw, cin)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + h, j:j + w, :] += dcols[:, :, :, i, j, :]
    return dxp[:, ph:ph + h, pw:pw + w, :], dk


# (kernel, grid, batch): three small shapes, then the encoder's and the
# decoder's kernels on the grids they train on, at a full batch, the last
# partial batch of the default row count and a single row
CONV_TRAINING_SHAPES = [((3, 3, 16, 8), (24, 24)), ((3, 3, 8, 1), (24, 24)),
                        ((3, 3, 16, 16), (12, 12)), ((3, 3, 8, 16), (12, 12))]
CONV_ORACLE_CASES = ([(k, (12, 10), 4) for k in [(3, 3, 8, 16), (3, 3, 16, 16),
                                                  (5, 3, 8, 4)]]
                     + [(k, grid, n) for k, grid in CONV_TRAINING_SHAPES
                        for n in (32, 20, 1)])
CONV_ORACLE_IDS = [f"kshape{i}" for i in range(3)] + [
    f"{k[2]}to{k[3]}-{grid[0]}x{grid[1]}-n{n}" for k, grid, n in CONV_ORACLE_CASES[3:]]


def adam_oracle(store, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step written with a temporary per operation."""
    store._t += 1
    corr1 = 1.0 - beta1**store._t
    corr2 = 1.0 - beta2**store._t
    for name, t in store.params.items():
        if not store.trainable[name] or t.grad is None:
            continue
        m = store._m.setdefault(name, np.zeros_like(t.values))
        v = store._v.setdefault(name, np.zeros_like(t.values))
        m += (1.0 - beta1) * (t.grad - m)
        v += (1.0 - beta2) * (t.grad**2 - v)
        t.values -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)


def tied_pool_input(seed):
    """(3, 8, 6, 5) input with ReLU zeros, +0/-0 ties in both orders and
    in either row, equal positive maxima, NaN windows and -inf windows."""
    rng = np.random.default_rng(seed)
    x = np.maximum(rng.normal(size=(3, 8, 6, 5)), 0.0)
    x[0, 0:2, 0:2, 0] = [[0.0, -0.0], [-0.0, 0.0]]
    x[0, 0:2, 2:4, 0] = [[-0.0, 0.0], [0.0, -0.0]]
    x[0, 2:4, 0:2, 1] = [[-1.0, -0.0], [0.0, -2.0]]
    x[1, 0:2, 0:2, 2] = [[0.5, 0.7], [0.7, 0.7]]
    x[1, 2:4, 2:4, 3] = [[0.5, 0.2], [np.nan, 0.9]]
    x[2, 4:6, 4:6, 4] = [[np.nan, 1.0], [2.0, np.nan]]
    x[2, 6:8, 0:2, 0] = -np.inf
    # a signed-zero tie inside each row of a window, the other row lower
    x[2, 0:2, 0:2, 1] = [[-0.0, 0.0], [-1.0, -1.0]]
    x[2, 0:2, 2:4, 1] = [[-1.0, -1.0], [-0.0, 0.0]]
    x[2, 0:2, 4:6, 1] = [[-1.0, -1.0], [0.0, -0.0]]
    return x


class TestKernelOracles:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_maxpool2_matches_argmax_oracle(self, seed):
        xv = tied_pool_input(seed)
        g = np.random.default_rng(seed + 10).normal(size=(3, 4, 3, 5))
        g[0, 0, 0, 0] = g[0, 0, 1, 0] = g[1, 1, 1, 3] = -0.0
        y_ref, dx_ref = maxpool2_oracle(xv, g)
        x = Tensor(xv)
        out = ad.maxpool2(x)
        assert bits(out.values) == bits(y_ref)
        out._backward(g)
        assert bits(x.grad) == bits(dx_ref + 0.0)
        # accumulating onto -0.0 keeps each routed term's sign visible
        x.grad = np.full(xv.shape, -0.0)
        out._backward(g)
        assert bits(x.grad) == bits(np.full(xv.shape, -0.0) + dx_ref)

    @pytest.mark.parametrize("kshape, grid, n", CONV_ORACLE_CASES,
                             ids=CONV_ORACLE_IDS)
    def test_conv_backward_matches_scatter_oracle(self, kshape, grid, n):
        rng = np.random.default_rng(kshape[2])
        xv = rng.normal(size=(n, *grid, kshape[2]))
        kv = rng.normal(size=kshape)
        g = rng.normal(size=(n, *grid, kshape[3]))
        dx_ref, dk_ref = conv_backward_oracle(xv, kv, g)
        x, k = Tensor(xv), Tensor(kv)
        ad.conv2d_same(x, k)._backward(g)
        assert bits(x.grad) == bits(dx_ref + 0.0)
        assert bits(k.grad) == bits(dk_ref + 0.0)

    def test_conv_node_holds_less_than_its_columns(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(8, 24, 24, 16)))
        k = Tensor(rng.normal(size=(3, 3, 16, 8)))
        columns_bytes = 8 * 24 * 24 * (3 * 3 * 16) * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.conv2d_same(x, k)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held < columns_bytes

    def test_adam_step_matches_oracle(self):
        rng = np.random.default_rng(3)
        stores = []
        for _ in range(2):
            store = ParamStore()
            r = np.random.default_rng(4)
            store.add("a", r.normal(size=(5, 3)))
            store.add("frozen", r.normal(size=4), trainable=False)
            store.add("no-grad", r.normal(size=3))
            store.add("b", r.normal(size=(2, 2, 3)))
            stores.append(store)
        for step in range(3):
            grads = {"a": rng.normal(size=(5, 3)), "frozen": rng.normal(size=4),
                     "b": rng.normal(size=(2, 2, 3)) * 10.0 ** step}
            grads["a"][0, 0] = -0.0
            for store in stores:
                for name, gv in grads.items():
                    store[name].grad = gv.copy()
            stores[0].adam_step(lr=0.01)
            adam_oracle(stores[1], lr=0.01)
            for name in stores[0].names():
                assert bits(stores[0][name].values) == bits(stores[1][name].values)
            for name in ("a", "b"):
                assert bits(stores[0]._m[name]) == bits(stores[1]._m[name])
                assert bits(stores[0]._v[name]) == bits(stores[1]._v[name])
        assert "frozen" not in stores[0]._m and "no-grad" not in stores[0]._m

    def test_adam_checks_every_gradient_before_updating(self):
        store = ParamStore()
        a = store.add("a", np.ones(3))
        b = store.add("b", np.ones(2))
        a.grad = np.ones(3)
        b.grad = np.array([0.0, np.inf])
        with pytest.raises(ad.OptimizerError, match="'b'"):
            store.adam_step(lr=0.1)
        assert bits(a.values) == bits(np.ones(3)) and store._t == 0


def checkpoint_bytes(*records):
    """Checkpoint body of (name bytes, dims, payload length) records."""
    out = ad.CHECKPOINT_MAGIC + struct.pack("<I", len(records))
    for name, dims, payload in records:
        out += struct.pack("<H", len(name)) + name
        out += struct.pack(f"<BB{len(dims)}I", 1, len(dims), *dims)
        out += b"\0" * payload
    return out


@pytest.mark.parametrize("data, match", [
    (checkpoint_bytes((b"w", [2], 16), (b"w", [1], 8)), "duplicate tensor 'w'"),
    (checkpoint_bytes((b"\xff\xfe", [2], 16)), "not UTF-8"),
    (checkpoint_bytes((b"w", [2], 17)), "1 trailing bytes"),
    (checkpoint_bytes((b"w", [2**32 - 1] * 8, 16)), "truncated"),
], ids=["duplicate", "non-utf8", "trailing", "huge-dims"])
def test_malformed_checkpoint_raises_optimizer_error(tmp_path, data, match):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(data)
    with pytest.raises(ad.OptimizerError, match=match) as info:
        ParamStore.load(path)
    assert "bad.ckpt" in str(info.value)
