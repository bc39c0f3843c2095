"""Gradient checks against central finite differences, plus the small
algebraic identities the autodiff core must satisfy."""

import numpy as np
import pytest

from lsm.nn.autodiff import (
    Tensor,
    add,
    bce_with_logits,
    broadcast_to,
    concat,
    matmul,
    maxpool2d,
    mean,
    mul,
    no_grad,
    relu,
    sigmoid,
    softmax,
    sub,
    sum_,
)
from lsm.nn import layers as L
from lsm.nn.models import ModelSpec, build

FD_STEP = 1e-4
FD_TOL = 1e-4


def fd_worst_rel_error(loss_fn, tensors, h=FD_STEP):
    """Max relative error between reverse-mode and central-difference
    gradients over every coordinate of every tensor in ``tensors``."""
    out = loss_fn()
    for t in tensors:
        t.grad = None
    out.backward()
    worst = 0.0
    for t in tensors:
        analytic = (t.grad if t.grad is not None else np.zeros_like(t.data)).ravel()
        flat = t.data.ravel()  # view; in-place pokes reach the graph
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(loss_fn().data)
            flat[i] = orig - h
            lm = float(loss_fn().data)
            flat[i] = orig
            fd = (lp - lm) / (2.0 * h)
            denom = max(abs(analytic[i]), abs(fd), 1e-6)
            worst = max(worst, abs(analytic[i] - fd) / denom)
    return worst


def projection_loss(out: Tensor, rng) -> Tensor:
    """Scalar loss <out, R> with a fixed random R, so every output entry
    influences the loss with a distinct weight."""
    r = rng.normal(size=out.data.shape)
    return sum_(mul(out, Tensor(r)))


class TestLayerGradients:
    def test_dense(self):
        for point in range(5):
            rng = np.random.default_rng(100 + point)
            layer = L.Dense(rng, 3, 2, activation="none")
            x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            err = fd_worst_rel_error(lambda: projection_loss(layer(x), np.random.default_rng(900 + point)),
                                     [layer.w, layer.b, x])
            assert err < FD_TOL, f"dense point {point}: rel error {err}"

    def test_conv1d_same_and_valid(self):
        for point in range(5):
            rng = np.random.default_rng(200 + point)
            padding = "same" if point % 2 == 0 else "valid"
            layer = L.Conv1D(rng, 2, 3, kernel=3, padding=padding, activation="none")
            x = Tensor(rng.normal(size=(2, 5, 2)), requires_grad=True)
            err = fd_worst_rel_error(lambda: projection_loss(layer(x), np.random.default_rng(910 + point)),
                                     [layer.w, layer.b, x])
            assert err < FD_TOL, f"conv1d {padding} point {point}: rel error {err}"

    def test_conv2d_same_and_valid(self):
        for point in range(5):
            rng = np.random.default_rng(300 + point)
            padding = "same" if point % 2 == 0 else "valid"
            layer = L.Conv2D(rng, 2, 2, kernel=3, padding=padding, activation="none")
            x = Tensor(rng.normal(size=(2, 5, 4, 2)), requires_grad=True)
            err = fd_worst_rel_error(lambda: projection_loss(layer(x), np.random.default_rng(920 + point)),
                                     [layer.w, layer.b, x])
            assert err < FD_TOL, f"conv2d {padding} point {point}: rel error {err}"

    def test_layernorm(self):
        for point in range(5):
            rng = np.random.default_rng(400 + point)
            layer = L.LayerNorm(5)
            layer.gamma.data = rng.normal(1.0, 0.3, size=5)
            layer.beta.data = rng.normal(0.0, 0.3, size=5)
            x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
            err = fd_worst_rel_error(lambda: projection_loss(layer(x), np.random.default_rng(930 + point)),
                                     [layer.gamma, layer.beta, x])
            assert err < FD_TOL, f"layernorm point {point}: rel error {err}"

    def test_multi_head_attention(self):
        for point in range(5):
            rng = np.random.default_rng(500 + point)
            layer = L.MultiHeadAttention(rng, 4, 2)
            x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
            params = [t for _, t in layer.param_items()] + [x]
            err = fd_worst_rel_error(lambda: projection_loss(layer(x), np.random.default_rng(940 + point)),
                                     params)
            assert err < FD_TOL, f"attention point {point}: rel error {err}"

    def test_positional_embedding(self):
        for point in range(5):
            rng = np.random.default_rng(600 + point)
            layer = L.PositionalEmbedding(rng, 5, 4)
            x = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
            err = fd_worst_rel_error(lambda: projection_loss(layer(x), np.random.default_rng(950 + point)),
                                     [layer.pos, x])
            assert err < FD_TOL, f"positional embedding point {point}: rel error {err}"

    def test_sigmoid_bce(self):
        for point in range(5):
            rng = np.random.default_rng(700 + point)
            z = Tensor(rng.normal(scale=3.0, size=(6, 1)), requires_grad=True)
            y = rng.integers(0, 2, size=(6, 1)).astype(float)
            err = fd_worst_rel_error(lambda: bce_with_logits(z, y), [z])
            assert err < FD_TOL, f"bce point {point}: rel error {err}"
            # and the composed sigmoid path
            err2 = fd_worst_rel_error(lambda: projection_loss(sigmoid(z), np.random.default_rng(960 + point)),
                                      [z])
            assert err2 < FD_TOL, f"sigmoid point {point}: rel error {err2}"


class TestWholeModelGradients:
    """End-to-end checks through tiny versions of each architecture; these
    also cover relu, gelu, max pooling, softmax, token concat, and the
    residual paths in one graph."""

    def _check(self, spec, n=3, seed=0):
        model = build(spec)
        rng = np.random.default_rng(seed)
        # Nudge every weight to a generic O(1) point: the tiny inits (class
        # token, positional rows) sit in a high-curvature layer-norm regime
        # where the h=1e-4 central difference itself is the inaccurate side.
        model.set_weights(model.get_weights() + rng.normal(0.0, 0.3, model.n_params))
        x = rng.normal(size=(n,) + spec.input_shape)
        y = rng.integers(0, 2, size=(n, 1)).astype(float)
        err = fd_worst_rel_error(lambda: bce_with_logits(model.forward(x), y),
                                 model.parameters())
        assert err < FD_TOL, f"{spec.arch}: rel error {err}"

    def test_tiny_cnn1d(self):
        spec = ModelSpec("cnn1d", (5,), (
            {"type": "conv1d", "filters": 3, "kernel": 3, "padding": "same", "activation": "relu"},
            {"type": "conv1d", "filters": 4, "kernel": 3, "padding": "same", "activation": "relu"},
            {"type": "flatten"},
            {"type": "dense", "units": 4, "activation": "relu"},
            {"type": "dense", "units": 1, "activation": "none"},
        ), seed=11)
        self._check(spec)

    def test_tiny_cnn2d(self):
        spec = ModelSpec("cnn2d", (7, 7, 2), (
            {"type": "conv2d", "filters": 3, "kernel": 3, "padding": "same", "activation": "relu"},
            {"type": "conv2d", "filters": 3, "kernel": 3, "padding": "same", "activation": "relu"},
            {"type": "maxpool2d", "size": 2},
            {"type": "conv2d", "filters": 4, "kernel": 3, "padding": "valid", "activation": "relu"},
            {"type": "flatten"},
            {"type": "dense", "units": 4, "activation": "relu"},
            {"type": "dense", "units": 1, "activation": "none"},
        ), seed=12)
        self._check(spec)

    def test_tiny_vit(self):
        spec = ModelSpec("vit", (3, 3, 2), (
            {"type": "token_embed", "dim": 8},
            {"type": "pos_embed"},
            {"type": "cls_token"},
            {"type": "transformer", "heads": 2, "hidden": 16},
            {"type": "select_token", "index": 0},
            {"type": "dense", "units": 1, "activation": "none"},
        ), seed=13)
        self._check(spec, n=2)


class TestAlgebra:
    def test_loss_scaling_doubles_gradients(self):
        rng = np.random.default_rng(3)
        z = Tensor(rng.normal(size=(5, 1)), requires_grad=True)
        y = rng.integers(0, 2, size=(5, 1)).astype(float)
        bce_with_logits(z, y).backward()
        g1 = z.grad.copy()
        z.grad = None
        mul(bce_with_logits(z, y), 2.0).backward()
        assert np.allclose(z.grad, 2.0 * g1, rtol=0, atol=0), \
            "scaling the loss by 2 must scale gradients by exactly 2"

    def test_gradient_zero_at_convex_optimum(self):
        # mean BCE over labels {0,1} at a shared logit is minimized at 0
        w = Tensor(np.zeros((1, 1)), requires_grad=True)
        logits = broadcast_to(w, (2, 1))
        bce_with_logits(logits, np.array([[1.0], [0.0]])).backward()
        assert abs(w.grad[0, 0]) < 1e-10
        # and a plain quadratic at its vertex
        v = Tensor(np.array([[3.0]]), requires_grad=True)
        diff = sub(v, 3.0)
        mul(diff, diff).backward(np.ones((1, 1)))
        assert abs(v.grad[0, 0]) < 1e-10

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        s = softmax(Tensor(rng.normal(scale=5, size=(6, 7))), axis=-1)
        assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_sigmoid_stays_open_interval(self):
        z = Tensor(np.array([-800.0, -30.0, 0.0, 30.0, 800.0]))
        s = sigmoid(z).data
        assert np.all(s >= 0.0) and np.all(s <= 1.0)
        assert s[2] == 0.5

    def test_bias_broadcast_gradient_is_column_sum(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        b = Tensor(rng.normal(size=3), requires_grad=True)
        out = add(Tensor(x), b)
        g = rng.normal(size=(6, 3))
        out.backward(g)
        assert np.allclose(b.grad, g.sum(axis=0), atol=1e-15)

    def test_maxpool_tie_routes_to_first(self):
        x = Tensor(np.full((1, 2, 2, 1), 5.0), requires_grad=True)
        maxpool2d(x, 2).backward(np.ones((1, 1, 1, 1)))
        expected = np.zeros((1, 2, 2, 1))
        expected[0, 0, 0, 0] = 1.0
        assert np.array_equal(x.grad, expected)

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_backward_needs_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            add(t, 1.0).backward()

    def test_concat_splits_gradient(self):
        a = Tensor(np.ones((2, 1, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 4, 3)), requires_grad=True)
        out = concat([a, b], axis=1)
        g = np.arange(30, dtype=float).reshape(2, 5, 3)
        out.backward(g)
        assert np.array_equal(a.grad, g[:, :1, :])
        assert np.array_equal(b.grad, g[:, 1:, :])

    def test_mean_matches_sum_over_n(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 5))
        t1 = Tensor(x, requires_grad=True)
        mean(t1, axis=0).backward(np.ones(5))
        t2 = Tensor(x, requires_grad=True)
        sum_(t2, axis=0).backward(np.ones(5))
        assert np.allclose(t1.grad, t2.grad / 4.0, atol=1e-15)

    def test_relu_gradient_mask(self):
        x = Tensor(np.array([[-2.0, 0.5, 3.0]]), requires_grad=True)
        relu(x).backward(np.ones((1, 3)))
        assert np.array_equal(x.grad, np.array([[0.0, 1.0, 1.0]]))

    def test_shared_node_accumulates(self):
        x = Tensor(np.array([[2.0]]), requires_grad=True)
        out = add(mul(x, 3.0), mul(x, 4.0))
        out.backward(np.ones((1, 1)))
        assert x.grad[0, 0] == 7.0


class TestNoGrad:
    def test_forward_numbers_unchanged(self):
        rng = np.random.default_rng(77)
        spec = ModelSpec("mlp", (6,), (
            {"type": "dense", "units": 5, "activation": "relu"},
            {"type": "dense", "units": 1, "activation": "none"},
        ), seed=21)
        model = build(spec)
        x = rng.normal(size=(8, 6))
        with_graph = model.forward(x).data
        with no_grad():
            without_graph = model.forward(x).data
        assert np.array_equal(with_graph, without_graph)

    def test_no_graph_is_recorded(self):
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        x = Tensor(np.ones((4, 3)))
        with no_grad():
            out = matmul(x, w)
        assert not out.requires_grad
        assert out._parents == ()

    def test_recording_resumes_after_exit(self):
        w = Tensor(np.ones((2, 1)), requires_grad=True)
        with no_grad():
            pass
        out = matmul(Tensor(np.ones((3, 2))), w)
        assert out.requires_grad

    def test_flag_restored_on_exception(self):
        w = Tensor(np.ones((2, 1)), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert matmul(Tensor(np.ones((3, 2))), w).requires_grad
