"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and records its parents plus a backward
closure; ``Tensor.backward`` walks the graph in reverse topological order
and accumulates gradients in a fixed, deterministic order.

``conv1d`` and ``conv2d`` are thin entry points to one routine, ``_conv``,
which convolves over any number of spatial axes; a change to how the
convolution is computed is made there once for both.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715

_grad_enabled = True


class no_grad:
    """Context manager that skips graph recording.

    Forward numbers are identical with or without it; the only effect is
    that intermediates are not retained, so inference over large batches
    stays within a few working arrays instead of the whole graph.
    """

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this node; without an explicit seed the node
        must be a scalar."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient needs a scalar output")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __getitem__(self, idx):
        return getitem(self, idx)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)
    return Tensor(data)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(g):
        a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), backward)


def pow_(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    out_data = a.data**exponent

    def backward(g):
        a._accumulate(g * exponent * a.data ** (exponent - 1))

    return _make(out_data, (a,), backward)


def matmul(a, b) -> Tensor:
    """Batched matrix product; leading axes broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    out_data = a.data @ b.data

    def backward(g):
        a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _make(out_data, (a, b), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        a._accumulate(g * (a.data > 0))

    return _make(out_data, (a,), backward)


def gelu(a) -> Tensor:
    """GELU, tanh approximation."""
    a = as_tensor(a)
    x = a.data
    u = _SQRT_2_OVER_PI * (x + _GELU_C * x**3)
    th = np.tanh(u)
    out_data = 0.5 * x * (1.0 + th)

    def backward(g):
        du = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_C * x**2)
        local = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * du
        a._accumulate(g * local)

    return _make(out_data, (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    s = _sigmoid(a.data)

    def backward(g):
        a._accumulate(g * s * (1.0 - s))

    return _make(s, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        a._accumulate(s * (g - inner))

    return _make(s, (a,), backward)


def _unreduce(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduction's gradient back over the axes it reduced."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        a._accumulate(_unreduce(g, a.data.shape, axis, keepdims))

    return _make(out_data, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    elif isinstance(axis, tuple):
        n = int(np.prod([a.data.shape[i] for i in axis]))
    else:
        n = a.data.shape[axis]
    out_data = a.data.mean(axis=axis, keepdims=keepdims)

    def backward(g):
        a._accumulate(_unreduce(g / n, a.data.shape, axis, keepdims))

    return _make(out_data, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return _make(out_data, (a,), backward)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.transpose(axes)
    inv = np.argsort(axes)

    def backward(g):
        a._accumulate(g.transpose(inv))

    return _make(out_data, (a,), backward)


def getitem(a, idx) -> Tensor:
    a = as_tensor(a)
    out_data = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        a._accumulate(full)

    return _make(out_data, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

    return _make(out_data, tuple(tensors), backward)


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = np.broadcast_to(a.data, shape).copy()

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))

    return _make(out_data, (a,), backward)


def _conv(x, w, b, padding: str, nd: int) -> Tensor:
    """Stride-1 convolution over nd spatial axes, shared by conv1d and
    conv2d: input (N, *S, C_in), kernel (K,)*nd + (C_in, C_out), bias (C_out,).

    'same' zero-pads to keep S; 'valid' yields S - K + 1 positions per axis.
    The forward pass is one matmul per kernel offset. The backward pass adds
    one matmul per offset into the padded input gradient, takes each
    offset's weight gradient with one einsum, and crops the padding off.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != nd + 2 or w.data.ndim != nd + 2:
        raise ValueError(f"{nd}-D convolution needs {nd + 2}-D input and kernel, "
                         f"got {x.data.shape} and {w.data.shape}")
    n, *size, _ = x.data.shape
    k, c_out = w.data.shape[0], w.data.shape[-1]
    if padding == "same":
        lo = (k - 1) // 2
        xp = np.pad(x.data, ((0, 0),) + ((lo, k - 1 - lo),) * nd + ((0, 0),))
        out_size = size
    elif padding == "valid":
        lo = 0
        xp = x.data
        out_size = [s - k + 1 for s in size]
        if min(out_size) < 1:
            raise ValueError(f"valid convolution needs spatial size >= {k}, "
                             f"got {'x'.join(map(str, size))}")
    else:
        raise ValueError(f"unknown padding {padding!r}")
    # each kernel offset with the index of the input positions it multiplies
    taps = [(off, (slice(None), *(slice(o, o + s) for o, s in zip(off, out_size)),
                   slice(None)))
            for off in itertools.product(range(k), repeat=nd)]
    out_data = np.broadcast_to(b.data, (n, *out_size, c_out)).copy()
    for off, win in taps:
        out_data += xp[win] @ w.data[off]
    axes = "hwxyz"[:nd]
    gw_subscripts = f"n{axes}c,n{axes}d->cd"
    crop = (slice(None), *(slice(lo, lo + s) for s in size), slice(None))

    def backward(g):
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(w.data)
        for off, win in taps:
            gxp[win] += g @ w.data[off].T
            gw[off] = np.einsum(gw_subscripts, xp[win], g)
        x._accumulate(gxp[crop])
        w._accumulate(gw)
        b._accumulate(g.sum(axis=tuple(range(nd + 1))))

    return _make(out_data, (x, w, b), backward)


def conv1d(x, w, b, padding: str = "same") -> Tensor:
    """1-D convolution over (N, L, C_in) with kernel (K, C_in, C_out)."""
    return _conv(x, w, b, padding, 1)


def conv2d(x, w, b, padding: str = "same") -> Tensor:
    """2-D convolution over (N, H, W, C_in) with kernel (K, K, C_in, C_out)."""
    return _conv(x, w, b, padding, 2)


def maxpool2d(x, size: int = 2) -> Tensor:
    """Non-overlapping max pooling over (N, H, W, C); trailing rows/columns
    that do not fill a window are dropped. Ties route the gradient to the
    first maximum in window scan order."""
    x = as_tensor(x)
    n, height, width, c = x.data.shape
    h_out, w_out = height // size, width // size
    if h_out < 1 or w_out < 1:
        raise ValueError(f"maxpool window {size} exceeds input {height}x{width}")
    crop = x.data[:, : h_out * size, : w_out * size, :]
    windows = crop.reshape(n, h_out, size, w_out, size, c)
    windows = windows.transpose(0, 1, 3, 2, 4, 5).reshape(n, h_out, w_out, size * size, c)
    idx = windows.argmax(axis=3)
    out_data = np.take_along_axis(windows, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]

    def backward(g):
        gw = np.zeros((n, h_out, w_out, size * size, c))
        np.put_along_axis(gw, idx[:, :, :, None, :], g[:, :, :, None, :], axis=3)
        gw = gw.reshape(n, h_out, w_out, size, size, c).transpose(0, 1, 3, 2, 4, 5)
        gx = np.zeros_like(x.data)
        gx[:, : h_out * size, : w_out * size, :] = gw.reshape(
            n, h_out * size, w_out * size, c
        )
        x._accumulate(gx)

    return _make(out_data, (x,), backward)


def _bce_terms(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise binary cross-entropy of logits z against {0,1} targets y,
    as max(z, 0) - z*y + log(1 + exp(-|z|)), which is stable for large |z|."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))


def bce_with_logits(logits, targets) -> Tensor:
    """Mean binary cross-entropy between logits and {0,1} targets."""
    logits = as_tensor(logits)
    y = np.asarray(targets, dtype=np.float64).reshape(logits.data.shape)
    z = logits.data
    out_data = np.array(_bce_terms(z, y).mean())

    def backward(g):
        logits._accumulate(g * (_sigmoid(z) - y) / z.size)

    return _make(out_data, (logits,), backward)
