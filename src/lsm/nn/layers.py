"""Layers built on the autodiff primitives.

Weight initialization: He-uniform for ReLU-activated layers, Glorot-uniform
for linear and attention projections, zeros for biases, and N(0, 0.02) for
positional embeddings and the class token. Every layer draws from the rng
it is given at construction time, in a fixed order, so a model built from
one seeded generator is reproducible bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from lsm.nn.autodiff import (
    Tensor,
    add,
    broadcast_to,
    concat,
    conv1d,
    conv2d,
    gelu,
    matmul,
    maxpool2d,
    mean,
    mul,
    pow_,
    relu,
    reshape,
    softmax,
    sub,
    transpose,
)

LAYERNORM_EPS = 1e-5


def he_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """Base class; subclasses implement __call__ and list their parameters."""

    def param_items(self) -> list[tuple[str, Tensor]]:
        return []

    def __call__(self, x: Tensor) -> Tensor:
        raise NotImplementedError


def _activate(x: Tensor, activation: str) -> Tensor:
    if activation == "relu":
        return relu(x)
    if activation == "gelu":
        return gelu(x)
    if activation == "none":
        return x
    raise ValueError(f"unknown activation {activation!r}")


def _init_weight(rng: np.random.Generator, fan_in: int, fan_out: int, shape,
                 activation: str) -> np.ndarray:
    """He-uniform ahead of a ReLU, Glorot-uniform otherwise."""
    if activation == "relu":
        return he_uniform(rng, fan_in, shape)
    return glorot_uniform(rng, fan_in, fan_out, shape)


class Dense(Layer):
    def __init__(self, rng, d_in: int, d_out: int, activation: str = "none"):
        self.w = Tensor(_init_weight(rng, d_in, d_out, (d_in, d_out), activation),
                        requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)
        self.activation = activation

    def param_items(self):
        return [("w", self.w), ("b", self.b)]

    def __call__(self, x: Tensor) -> Tensor:
        return _activate(add(matmul(x, self.w), self.b), self.activation)


class _Conv(Layer):
    """Weights of a convolution over ``nd`` spatial axes: a (K,)*nd +
    (C_in, C_out) kernel and a C_out bias. Each subclass's ``__call__``
    looks its autodiff op up by module name when it runs, so a wrapper
    patched onto this module (as perfbench/tracer.py does) is what runs."""

    nd: int

    def __init__(self, rng, c_in: int, c_out: int, kernel: int = 3,
                 padding: str = "same", activation: str = "relu"):
        taps = kernel**self.nd
        shape = (kernel,) * self.nd + (c_in, c_out)
        self.w = Tensor(_init_weight(rng, taps * c_in, taps * c_out, shape, activation),
                        requires_grad=True)
        self.b = Tensor(np.zeros(c_out), requires_grad=True)
        self.padding = padding
        self.activation = activation

    def param_items(self):
        return [("w", self.w), ("b", self.b)]


class Conv1D(_Conv):
    nd = 1

    def __call__(self, x: Tensor) -> Tensor:
        return _activate(conv1d(x, self.w, self.b, self.padding), self.activation)


class Conv2D(_Conv):
    nd = 2

    def __call__(self, x: Tensor) -> Tensor:
        return _activate(conv2d(x, self.w, self.b, self.padding), self.activation)


class MaxPool2D(Layer):
    def __init__(self, size: int = 2):
        self.size = size

    def __call__(self, x: Tensor) -> Tensor:
        return maxpool2d(x, self.size)


class Flatten(Layer):
    """Collapses every non-batch axis into one feature axis."""

    def __call__(self, x: Tensor) -> Tensor:
        return reshape(x, (x.shape[0], -1))


class LayerNorm(Layer):
    """Normalizes the last axis to zero mean and unit variance (biased
    variance, epsilon inside the square root), then applies a learned
    per-feature scale and shift."""

    def __init__(self, dim: int, eps: float = LAYERNORM_EPS):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def param_items(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def __call__(self, x: Tensor) -> Tensor:
        mu = mean(x, axis=-1, keepdims=True)
        xc = sub(x, mu)
        var = mean(mul(xc, xc), axis=-1, keepdims=True)
        inv = pow_(add(var, self.eps), -0.5)
        return add(mul(mul(xc, inv), self.gamma), self.beta)


class MultiHeadAttention(Layer):
    """Scaled dot-product self-attention with n_heads heads over (N, T, d)."""

    def __init__(self, rng, d_model: int, n_heads: int):
        if d_model % n_heads != 0:
            raise ValueError(f"d_model {d_model} not divisible by n_heads {n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads

        def proj():
            w = glorot_uniform(rng, d_model, d_model, (d_model, d_model))
            return Tensor(w, requires_grad=True), Tensor(np.zeros(d_model), requires_grad=True)

        self.wq, self.bq = proj()
        self.wk, self.bk = proj()
        self.wv, self.bv = proj()
        self.wo, self.bo = proj()

    def param_items(self):
        return [("wq", self.wq), ("bq", self.bq), ("wk", self.wk), ("bk", self.bk),
                ("wv", self.wv), ("bv", self.bv), ("wo", self.wo), ("bo", self.bo)]

    def _split(self, t: Tensor, n: int, length: int) -> Tensor:
        t = reshape(t, (n, length, self.n_heads, self.d_head))
        return transpose(t, (0, 2, 1, 3))

    def __call__(self, x: Tensor) -> Tensor:
        n, length, _ = x.shape
        q = self._split(add(matmul(x, self.wq), self.bq), n, length)
        k = self._split(add(matmul(x, self.wk), self.bk), n, length)
        v = self._split(add(matmul(x, self.wv), self.bv), n, length)
        scores = mul(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(self.d_head))
        attn = softmax(scores, axis=-1)
        ctx = matmul(attn, v)
        ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (n, length, self.d_model))
        return add(matmul(ctx, self.wo), self.bo)


class FeedForward(Layer):
    """Two dense layers with a GELU in between (transformer MLP block)."""

    def __init__(self, rng, d_model: int, hidden: int):
        self.fc1 = Dense(rng, d_model, hidden, activation="gelu")
        self.fc2 = Dense(rng, hidden, d_model, activation="none")

    def param_items(self):
        return [("fc1." + k, t) for k, t in self.fc1.param_items()] + \
               [("fc2." + k, t) for k, t in self.fc2.param_items()]

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x))


class TransformerBlock(Layer):
    """Pre-norm transformer encoder block: attention and MLP sublayers,
    each behind a layer norm, with residual connections."""

    def __init__(self, rng, d_model: int, n_heads: int, hidden: int):
        self.ln1 = LayerNorm(d_model)
        self.attn = MultiHeadAttention(rng, d_model, n_heads)
        self.ln2 = LayerNorm(d_model)
        self.ff = FeedForward(rng, d_model, hidden)

    def param_items(self):
        items = []
        for prefix, sub_layer in (("ln1", self.ln1), ("attn", self.attn),
                                  ("ln2", self.ln2), ("ff", self.ff)):
            items.extend((prefix + "." + k, t) for k, t in sub_layer.param_items())
        return items

    def __call__(self, x: Tensor) -> Tensor:
        x = add(x, self.attn(self.ln1(x)))
        return add(x, self.ff(self.ln2(x)))


class PositionalEmbedding(Layer):
    """Adds a learned embedding per sequence position."""

    def __init__(self, rng, n_tokens: int, d_model: int):
        self.pos = Tensor(rng.normal(0.0, 0.02, size=(n_tokens, d_model)),
                          requires_grad=True)

    def param_items(self):
        return [("pos", self.pos)]

    def __call__(self, x: Tensor) -> Tensor:
        return add(x, self.pos)


class ClsToken(Layer):
    """Prepends a learned classification token to the sequence."""

    def __init__(self, rng, d_model: int):
        self.token = Tensor(rng.normal(0.0, 0.02, size=(1, 1, d_model)),
                            requires_grad=True)
        self.d_model = d_model

    def param_items(self):
        return [("token", self.token)]

    def __call__(self, x: Tensor) -> Tensor:
        n = x.shape[0]
        tok = broadcast_to(self.token, (n, 1, self.d_model))
        return concat([tok, x], axis=1)


class SelectToken(Layer):
    """Picks one sequence position, (N, T, d) -> (N, d)."""

    def __init__(self, index: int = 0):
        self.index = index

    def __call__(self, x: Tensor) -> Tensor:
        return x[:, self.index, :]
