import re
import struct

import numpy as np
import pytest

from irsrl import nn


def numeric_grad(f, x, eps=1e-5):
    """Central finite differences of scalar f at array x."""
    g = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        fp = f()
        x[i] = old - eps
        fm = f()
        x[i] = old
        g[i] = (fp - fm) / (2 * eps)
    return g


def check_mlp_grads(mlp, x, rng, tol=1e-4):
    """Analytic vs numeric gradients for a scalar loss sum(out * r)."""
    out, cache = mlp.forward(x)
    r = rng.standard_normal(out.shape)
    g, xg = mlp.backward(cache, r)
    wg, bg = mlp.views(g)

    def loss():
        y, _ = mlp.forward(x)
        return float(np.sum(y * r))

    for analytic, param in zip(wg + bg + [xg], mlp.weights + mlp.biases + [x]):
        num = numeric_grad(loss, param)
        denom = max(np.max(np.abs(num)), 1e-8)
        assert np.max(np.abs(analytic - num)) / denom < tol


class TestInit:
    def test_biases_zero(self):
        mlp = nn.MLP.init([4, 8, 2], np.random.default_rng(0))
        for b in mlp.biases:
            assert np.all(b == 0.0)

    def test_weight_bound(self):
        mlp = nn.MLP.init([400, 16], np.random.default_rng(0))
        assert np.all(np.abs(mlp.weights[0]) < 0.05)

    def test_actor_starts_near_zero(self):
        rng = np.random.default_rng(1)
        actor = nn.MLP.init([10, 32, 32, 4], rng, head="tanh_pi", out_scale=1e-2)
        x = rng.standard_normal((100, 10)).astype(np.float32)
        out, _ = actor.forward(x)
        assert np.max(np.abs(out)) < 0.1

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            nn.MLP.init([4], np.random.default_rng(0))
        with pytest.raises(ValueError):
            nn.MLP.init([4, 2], np.random.default_rng(0), head="softmax")


class TestForward:
    def test_zero_net_outputs_zero(self):
        mlp = nn.MLP.init([3, 5, 2], np.random.default_rng(0))
        for w in mlp.weights:
            w[:] = 0.0
        out, _ = mlp.forward(np.ones((1, 3), dtype=np.float32))
        assert np.all(out == 0.0)

    def test_relu_definition(self):
        mlp = nn.MLP(
            weights=[np.eye(2, dtype=np.float32), np.eye(2, dtype=np.float32)],
            biases=[np.zeros(2, np.float32), np.zeros(2, np.float32)],
        )
        out, _ = mlp.forward(np.array([[-1.0, 2.0]], dtype=np.float32))
        assert np.allclose(out, [[0.0, 2.0]])

    def test_matches_independent_product(self):
        # second-implementation oracle: plain matrix algebra
        rng = np.random.default_rng(2)
        mlp = nn.MLP.init([6, 9, 7, 3], rng, dtype=np.float64)
        x = rng.standard_normal((5, 6))
        ref = x
        for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            ref = ref @ w + b
            if i < len(mlp.weights) - 1:
                ref = np.where(ref > 0, ref, 0.0)
        out, _ = mlp.forward(x)
        assert np.allclose(out, ref, rtol=1e-6)

    def test_rejects_nonfinite(self):
        mlp = nn.MLP.init([2, 2], np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-finite"):
            mlp.forward(np.array([[np.nan, 1.0]]))

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (1, 3, 1)])
    def test_rejects_other_than_batch_by_width(self, shape):
        mlp = nn.MLP.init([3, 2], np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"!= \(batch, 3\)"):
            mlp.forward(np.ones(shape, np.float32))


class TestActorHead:
    def test_values(self):
        mlp = nn.MLP(
            weights=[np.eye(1)], biases=[np.zeros(1)], head="tanh_pi"
        )
        assert mlp.forward(np.array([[0.0]]))[0][0, 0] == 0.0
        assert mlp.forward(np.array([[1.0]]))[0][0, 0] == pytest.approx(
            np.pi * np.tanh(1.0)
        )
        assert mlp.forward(np.array([[1.0]]))[0][0, 0] == pytest.approx(2.3926, abs=1e-4)
        assert mlp.forward(np.array([[50.0]]))[0][0, 0] == pytest.approx(np.pi)

    def test_range(self):
        rng = np.random.default_rng(3)
        actor = nn.MLP.init([4, 16, 3], rng, head="tanh_pi")
        out, _ = actor.forward(rng.standard_normal((200, 4)).astype(np.float32))
        assert np.all(np.abs(out) < np.pi)
        # extreme inputs saturate to pi only up to float rounding
        out, _ = actor.forward(1e4 * rng.standard_normal((50, 4)).astype(np.float32))
        assert np.all(np.abs(out) <= np.pi)


class TestBackward:
    def test_scalar_chain_rule(self):
        w = np.array([[2.0]])
        mlp = nn.MLP(weights=[w], biases=[np.zeros(1)])
        x = np.array([[3.0]])
        _, cache = mlp.forward(x)
        g, xg = mlp.backward(cache, np.array([[1.0]]))
        wg, bg = mlp.views(g)
        assert wg[0][0, 0] == 3.0   # dy/dw = x
        assert xg[0, 0] == 2.0      # dy/dx = w
        assert bg[0][0] == 1.0

    def test_dead_relu_zero_gradient(self):
        mlp = nn.MLP(
            weights=[np.array([[1.0]]), np.array([[1.0]])],
            biases=[np.array([-5.0]), np.zeros(1)],
        )
        _, cache = mlp.forward(np.array([[1.0]]))  # pre-activation -4 < 0
        g, xg = mlp.backward(cache, np.array([[1.0]]))
        assert mlp.views(g)[0][0][0, 0] == 0.0
        assert xg[0, 0] == 0.0

    @pytest.mark.parametrize("head", ["linear", "tanh_pi"])
    def test_finite_differences(self, head):
        rng = np.random.default_rng(4)
        mlp = nn.MLP.init([5, 8, 8, 3], rng, head=head, dtype=np.float64)
        x = rng.standard_normal((4, 5))
        check_mlp_grads(mlp, x, rng)

    @pytest.mark.parametrize("head", ["linear", "tanh_pi"])
    def test_partial_backward_matches_full(self, head):
        rng = np.random.default_rng(12)
        mlp = nn.MLP.init([5, 8, 8, 3], rng, head=head)
        _, cache = mlp.forward(rng.standard_normal((4, 5)).astype(np.float32))
        r = rng.standard_normal((4, 3)).astype(np.float32)
        g, xg = mlp.backward(cache, r)
        no_params, xg_only = mlp.backward(cache, r, params=False)
        g_only, no_input = mlp.backward(cache, r, inputs=False)
        assert no_params is None and no_input is None
        assert np.array_equal(xg_only, xg)
        assert g.shape == mlp.params.shape
        assert np.array_equal(g_only, g)


class TestFourier:
    def test_zero_kernel(self):
        k = nn.FourierKernel(B=np.zeros((3, 2)))
        v, _ = k.features(np.array([[1.0, -2.0]]))
        assert np.allclose(v, [[1, 1, 1, 0, 0, 0]])

    def test_half_projection(self):
        k = nn.FourierKernel(B=np.array([[0.5]]))
        v, _ = k.features(np.array([[1.0]]))
        assert np.allclose(v, [[-1.0, 0.0]], atol=1e-12)

    @pytest.mark.parametrize("shape", [(2,), (1, 3), (1, 2, 1)])
    def test_rejects_other_than_batch_by_width(self, shape):
        k = nn.FourierKernel(B=np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"!= \(batch, 2\)"):
            k.features(np.ones(shape))

    def test_norm_is_k(self):
        rng = np.random.default_rng(5)
        k = nn.FourierKernel.init(16, 7, 1.0, rng, dtype=np.float64)
        for _ in range(10):
            v, _ = k.features(rng.standard_normal((1, 7)))
            assert np.sum(v**2) == pytest.approx(16.0, abs=1e-6)

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(6)
        kern = nn.FourierKernel.init(6, 4, 0.7, rng, dtype=np.float64)
        x = rng.standard_normal((1, 4))
        v, cache = kern.features(x)
        r = rng.standard_normal(v.shape)
        analytic = kern.backward(cache, r)

        def loss():
            vv, _ = kern.features(x)
            return float(np.sum(vv * r))

        num = numeric_grad(loss, x)
        assert np.max(np.abs(analytic - num)) < 1e-6 * max(1.0, np.max(np.abs(num)))

    def test_frozen_after_init(self):
        rng = np.random.default_rng(7)
        kern = nn.FourierKernel.init(4, 3, 0.5, rng)
        before = kern.B.copy()
        kern.features(rng.standard_normal((10, 3)))
        assert np.array_equal(kern.B, before)


class TestAdam:
    def test_zero_gradient_no_move(self):
        rng = np.random.default_rng(8)
        mlp = nn.MLP.init([2, 3, 1], rng)
        before = [w.copy() for w in mlp.weights]
        opt = nn.Adam.for_mlp(mlp, lr=0.1)
        opt.step(mlp, np.zeros_like(mlp.params))
        assert opt.t == 1
        for w, w0 in zip(mlp.weights, before):
            assert np.array_equal(w, w0)

    def test_first_step_magnitude(self):
        # bias correction makes the first step ~ lr for unit gradient
        mlp = nn.MLP(weights=[np.zeros((1, 1))], biases=[np.zeros(1)])
        opt = nn.Adam.for_mlp(mlp, lr=2e-4)
        opt.step(mlp, np.array([1.0, 0.0]))
        assert mlp.weights[0][0, 0] == pytest.approx(-2e-4, rel=1e-6)

    def test_converges_on_quadratic(self):
        mlp = nn.MLP(weights=[np.zeros((1, 1))], biases=[np.zeros(1)])
        opt = nn.Adam.for_mlp(mlp, lr=0.1)
        for _ in range(200):
            w = mlp.weights[0][0, 0]
            opt.step(mlp, np.array([2 * (w - 3.0), 0.0]))
        assert abs(mlp.weights[0][0, 0] - 3.0) < 0.1

    def test_rejects_nonfinite(self):
        mlp = nn.MLP.init([2, 1], np.random.default_rng(0))
        opt = nn.Adam.for_mlp(mlp, lr=0.1)
        g = np.zeros_like(mlp.params)
        g[:2] = np.nan  # the weights; the bias gradient stays finite
        with pytest.raises(nn.NonFiniteError):
            opt.step(mlp, g)

    def test_rejects_misshapen_gradient(self):
        mlp = nn.MLP.init([2, 1], np.random.default_rng(0))
        before = mlp.params.copy()
        opt = nn.Adam.for_mlp(mlp, lr=0.1)
        for g in (np.zeros(mlp.params.size - 1, mlp.params.dtype),
                  np.zeros((1, mlp.params.size), mlp.params.dtype)):
            with pytest.raises(ValueError, match="gradient shape"):
                opt.step(mlp, g)
        assert opt.t == 0
        assert np.array_equal(mlp.params, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", [nn.ADAM_BLOCK, 7])
    def test_matches_per_tensor_reference(self, dtype, block, monkeypatch):
        # the textbook per-tensor update, float for float, in one block or many
        monkeypatch.setattr(nn, "ADAM_BLOCK", block)
        rng = np.random.default_rng(13)
        mlp = nn.MLP.init([4, 6, 3], rng, dtype=dtype)
        ref = [t.copy() for t in mlp.weights + mlp.biases]
        ms = [np.zeros_like(t) for t in ref]
        vs = [np.zeros_like(t) for t in ref]
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        opt = nn.Adam.for_mlp(mlp, lr)
        x = rng.standard_normal((5, 4)).astype(dtype)
        for t in range(1, 6):
            _, cache = mlp.forward(x)
            grad, _ = mlp.backward(cache, rng.standard_normal((5, 3)).astype(dtype))
            opt.step(mlp, grad)
            c1, c2 = 1.0 - b1**t, 1.0 - b2**t
            wg, bg = mlp.views(grad)
            for i, g in enumerate(wg + bg):
                ms[i] = b1 * ms[i] + (1.0 - b1) * g
                vs[i] = b2 * vs[i] + (1.0 - b2) * g * g
                ref[i] -= lr * (ms[i] / c1) / (np.sqrt(vs[i] / c2) + eps)
            for a, b in zip(mlp.weights + mlp.biases, ref):
                assert a.dtype == dtype
                assert np.array_equal(a, b)


class TestPolyak:
    def _pair(self):
        rng = np.random.default_rng(9)
        main = nn.MLP.init([3, 4, 2], rng, dtype=np.float64)
        target = nn.MLP.init([3, 4, 2], rng, dtype=np.float64)
        return main, target

    def test_tau_one_copies(self):
        main, target = self._pair()
        nn.polyak_update(target, main, 1.0)
        for a, b in zip(target.weights, main.weights):
            assert np.allclose(a, b)

    def test_tau_zero_keeps(self):
        main, target = self._pair()
        before = [w.copy() for w in target.weights]
        nn.polyak_update(target, main, 0.0)
        for a, b in zip(target.weights, before):
            assert np.array_equal(a, b)

    def test_midpoint(self):
        target = nn.MLP(weights=[np.zeros((1, 1))], biases=[np.zeros(1)])
        main = nn.MLP(weights=[np.full((1, 1), 2.0)], biases=[np.zeros(1)])
        nn.polyak_update(target, main, 0.5)
        assert target.weights[0][0, 0] == 1.0

    def test_contraction(self):
        main, target = self._pair()
        d0 = sum(np.sum((a - b) ** 2)
                 for a, b in zip(target.weights, main.weights))
        nn.polyak_update(target, main, 0.3)
        d1 = sum(np.sum((a - b) ** 2)
                 for a, b in zip(target.weights, main.weights))
        assert d1 < d0


class TestFlatParams:
    @staticmethod
    def assert_views(mlp):
        for t in mlp.weights + mlp.biases:
            assert np.shares_memory(t, mlp.params)
        assert mlp.params.ctypes.data % 64 == 0

    def test_tensors_stay_views(self):
        rng = np.random.default_rng(14)
        mlp = nn.MLP.init([3, 5, 2], rng)
        self.assert_views(mlp)
        opt = nn.Adam.for_mlp(mlp, 1e-2)
        _, cache = mlp.forward(rng.standard_normal((4, 3)).astype(np.float32))
        grad, _ = mlp.backward(cache, np.ones((4, 2), np.float32))
        opt.step(mlp, grad)
        self.assert_views(mlp)
        target = mlp.copy()
        self.assert_views(target)
        assert not np.shares_memory(target.params, mlp.params)
        nn.polyak_update(target, mlp, 0.5)
        self.assert_views(target)
        wide = nn.mlp_from_tensors("m", {k: t.astype(np.float64) for k, t in
                                         nn.mlp_tensors("m", mlp).items()}, "linear")
        assert wide.params.dtype == np.float64
        self.assert_views(wide)
        back = nn.mlp_from_tensors("m", nn.mlp_tensors("m", wide), "linear")
        self.assert_views(back)

    def test_updates_reach_the_tensors(self):
        main = nn.MLP.init([3, 4, 2], np.random.default_rng(15))
        target = main.copy()
        main.params += 1.0
        nn.polyak_update(target, main, 1.0)
        for a, b in zip(target.weights + target.biases, main.weights + main.biases):
            assert np.array_equal(a, b)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        tensors = {
            "actor.w0": rng.standard_normal((4, 3)).astype(np.float32),
            "actor.b0": rng.standard_normal(3).astype(np.float32),
            "fourier.B": rng.standard_normal((8, 6)).astype(np.float32),
        }
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        nn.save_checkpoint(p1, tensors)
        loaded = nn.load_checkpoint(p1)
        for k in tensors:
            assert np.array_equal(loaded[k], tensors[k])
        nn.save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOTIRS" + b"\x00" * 10)
        with pytest.raises(nn.CheckpointError):
            nn.load_checkpoint(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.ckpt"
        nn.save_checkpoint(p, {"x": np.ones((10, 10), np.float32)})
        data = p.read_bytes()
        p.write_bytes(data[: len(data) - 7])
        with pytest.raises(nn.CheckpointError):
            nn.load_checkpoint(p)

    def test_name_not_utf8(self, tmp_path):
        p = tmp_path / "name.ckpt"
        p.write_bytes(nn.MAGIC + struct.pack("<I", 2) + b"\xff\xfe"
                      + struct.pack("<I", 0) + np.float32(1.0).tobytes())
        with pytest.raises(nn.CheckpointError, match=re.escape(str(p))):
            nn.load_checkpoint(p)

    @pytest.mark.parametrize("shapes, tensor", [
        # the first bias does not fit w0, whose outputs w1 does not take
        ({"a.w0": (4, 3), "a.b0": (5,), "a.w1": (5, 2), "a.b1": (2,)}, "a.b0"),
        ({"a.w0": (4, 3), "a.w1": (3, 2), "a.b1": (2,)}, "a.b0"),  # missing
        ({"a.w0": (4,), "a.b0": (4,)}, "a.w0"),  # not 2-D
        ({"a.w0": (4, 3), "a.b0": (3, 1)}, "a.b0"),  # not 1-D
        ({"a.w0": (4, 3), "a.b0": (3,), "a.w1": (5, 2), "a.b1": (2,)}, "a.w1"),
    ])
    def test_mlp_from_malformed_tensors(self, shapes, tensor):
        tensors = {k: np.zeros(shape, np.float32) for k, shape in shapes.items()}
        with pytest.raises(nn.CheckpointError,
                           match=rf"^network 'a': {re.escape(tensor)} "):
            nn.mlp_from_tensors("a", tensors, head="linear")

    def test_mlp_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        mlp = nn.MLP.init([5, 8, 2], rng, head="tanh_pi")
        p = tmp_path / "m.ckpt"
        nn.save_checkpoint(p, nn.mlp_tensors("actor", mlp))
        back = nn.mlp_from_tensors("actor", nn.load_checkpoint(p), head="tanh_pi")
        assert back.sizes == mlp.sizes
        for a, b in zip(back.weights, mlp.weights):
            assert np.array_equal(a, b)
