"""Model descriptions, shape validation, and builders.

A ModelSpec is a declarative description (architecture family, input shape,
layer list, init seed); ``build`` turns it into a Model with allocated
weights. Each layer kind is described once, in the ``_KINDS`` table: the
input layout it accepts, its symbolic shape rule, its weight count, and its
constructor. ``validate_spec``, ``param_count`` and ``build`` all walk that
table, so shape compatibility is checked before any weight is drawn and a
bad spec never allocates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from lsm.nn.autodiff import Tensor, _sigmoid, no_grad
from lsm.nn.layers import (
    ClsToken,
    Conv1D,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    PositionalEmbedding,
    SelectToken,
    TransformerBlock,
)

ARCHS = ("cnn1d", "cnn2d", "vit", "mlp")

PROBA_CLIP = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    """Declarative model description. ``layers`` is a tuple of descriptor
    dicts consumed in order by validate_spec/build."""

    arch: str
    input_shape: tuple[int, ...]
    layers: tuple[dict, ...]
    seed: int

    def to_dict(self) -> dict:
        return {
            "arch": self.arch,
            "input_shape": list(self.input_shape),
            "layers": [dict(d) for d in self.layers],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(
            arch=d["arch"],
            input_shape=tuple(int(v) for v in d["input_shape"]),
            layers=tuple(dict(layer) for layer in d["layers"]),
            seed=int(d["seed"]),
        )


def _initial_state(spec: ModelSpec):
    if spec.arch in ("cnn1d", "mlp"):
        if len(spec.input_shape) != 1:
            raise ValueError(f"{spec.arch} expects a 1-D input shape, got {spec.input_shape}")
        p = spec.input_shape[0]
        if p < 1:
            raise ValueError(f"input width must be >= 1, got {p}")
        return ("seq", p, 1) if spec.arch == "cnn1d" else ("flat", p)
    if spec.arch in ("cnn2d", "vit"):
        if len(spec.input_shape) != 3:
            raise ValueError(f"{spec.arch} expects an (h, w, p) input shape, got {spec.input_shape}")
        h, w, p = spec.input_shape
        if h < 1 or w < 1 or p < 1:
            raise ValueError(f"input dimensions must be positive, got {spec.input_shape}")
        if spec.arch == "cnn2d":
            if h < 3 or w < 3:
                raise ValueError(f"cnn2d needs a window of at least 3x3, got {h}x{w}")
            return ("grid", h, w, p)
        return ("seq", h * w, p)
    raise ValueError(f"unknown architecture {spec.arch!r}; expected one of {ARCHS}")


def _conv_shape(state, d: dict):
    k = d.get("kernel", 3)
    dims = state[1:-1]
    if d.get("padding", "same") == "valid":
        dims = tuple(n - k + 1 for n in dims)
        if min(dims) < 1:
            what = "length" if len(dims) == 1 else "spatial size"
            raise ValueError(f"valid padding needs {what} >= {k}")
    return (state[0], *dims, d["filters"])


def _pool_shape(state, d: dict):
    _, h, w, c = state
    s = d.get("size", 2)
    if h // s < 1 or w // s < 1:
        raise ValueError(f"pool window {s} exceeds the input")
    return ("grid", h // s, w // s, c)


def _transformer_shape(state, d: dict):
    dim, heads = state[2], d.get("heads", 4)
    if dim % heads != 0:
        raise ValueError(f"width {dim} not divisible by {heads} heads")
    return state


def _select_shape(state, d: dict):
    index = d.get("index", 0)
    if not (0 <= index < state[1]):
        raise ValueError(f"token index {index} out of range for {state[1]} tokens")
    return ("flat", state[2])


def _conv_params(state, d: dict) -> int:
    k, f = d.get("kernel", 3), d["filters"]
    return k ** (len(state) - 2) * state[-1] * f + f


def _transformer_params(state, d: dict) -> int:
    dim, hidden = state[2], d.get("hidden", 128)
    return (2 * (2 * dim)                       # two layer norms
            + 4 * (dim * dim + dim)             # q, k, v, output projections
            + dim * hidden + hidden + hidden * dim + dim)


def _conv(layer_cls):
    def make(rng, state, d: dict):
        return layer_cls(rng, state[-1], d["filters"], d.get("kernel", 3),
                         d.get("padding", "same"), d.get("activation", "relu"))
    return make


class _Kind(NamedTuple):
    """One layer kind: the input layout it takes, how it maps the symbolic
    shape state, how many weights it holds, and how it is constructed.
    Each function receives the state before the layer and the descriptor."""

    takes: str
    shape: Callable
    params: Callable
    make: Callable


# accepted state forms and their wording in shape errors, per ``takes``
_TAKES = {
    "seq": (("seq",), "a sequence"),
    "grid": (("grid",), "a 2-D"),
    "flat": (("flat",), "a flat"),
    "spatial": (("seq", "grid"), "a spatial"),
}


def _no_params(state, d: dict) -> int:
    return 0


_KINDS = {
    "conv1d": _Kind("seq", _conv_shape, _conv_params, _conv(Conv1D)),
    "conv2d": _Kind("grid", _conv_shape, _conv_params, _conv(Conv2D)),
    "maxpool2d": _Kind(
        "grid", _pool_shape, _no_params,
        lambda rng, s, d: MaxPool2D(d.get("size", 2))),
    "flatten": _Kind(
        "spatial", lambda s, d: ("flat", math.prod(s[1:])), _no_params,
        lambda rng, s, d: Flatten()),
    "dense": _Kind(
        "flat", lambda s, d: ("flat", d["units"]),
        lambda s, d: s[1] * d["units"] + d["units"],
        lambda rng, s, d: Dense(rng, s[1], d["units"], d.get("activation", "none"))),
    "token_embed": _Kind(
        "seq", lambda s, d: ("seq", s[1], d["dim"]),
        lambda s, d: s[2] * d["dim"] + d["dim"],
        lambda rng, s, d: Dense(rng, s[2], d["dim"], activation="none")),
    "pos_embed": _Kind(
        "seq", lambda s, d: s, lambda s, d: s[1] * s[2],
        lambda rng, s, d: PositionalEmbedding(rng, s[1], s[2])),
    "cls_token": _Kind(
        "seq", lambda s, d: ("seq", s[1] + 1, s[2]), lambda s, d: s[2],
        lambda rng, s, d: ClsToken(rng, s[2])),
    "transformer": _Kind(
        "seq", _transformer_shape, _transformer_params,
        lambda rng, s, d: TransformerBlock(rng, s[2], d.get("heads", 4),
                                           d.get("hidden", 128))),
    "select_token": _Kind(
        "seq", _select_shape, _no_params,
        lambda rng, s, d: SelectToken(d.get("index", 0))),
}


def _walk(spec: ModelSpec) -> list[tuple[dict, _Kind, tuple]]:
    """Check that layer shapes compose and the model ends in one logit;
    returns each layer's descriptor, kind, and input shape state."""
    state = _initial_state(spec)
    steps = []
    for i, d in enumerate(spec.layers):
        kind = _KINDS.get(d["type"])
        try:
            if kind is None:
                raise ValueError("unknown layer type")
            forms, wording = _TAKES[kind.takes]
            if state[0] not in forms:
                raise ValueError(f"needs {wording} input, has {state}")
            steps.append((d, kind, state))
            state = kind.shape(state, d)
        except ValueError as e:
            raise ValueError(f"layer {i} ({d['type']}): {e}") from None
    if state != ("flat", 1):
        raise ValueError(f"model must end with a single logit, ends with {state}")
    return steps


def validate_spec(spec: ModelSpec) -> None:
    """Check that layer shapes compose and the model ends in one logit."""
    _walk(spec)


def param_count(spec: ModelSpec) -> int:
    """Number of weights, from the declared shapes alone."""
    return sum(kind.params(state, d) for d, kind, state in _walk(spec))


class Model:
    """A built model: layer instances plus the flat-weight view used by
    training and checkpoints."""

    def __init__(self, spec: ModelSpec, layers: list):
        self.spec = spec
        self.layers = layers
        self._layout = _initial_state(spec)[1:]
        self._params: list[tuple[str, Tensor]] = []
        for i, layer in enumerate(layers):
            for name, t in layer.param_items():
                self._params.append((f"{i}.{layer.__class__.__name__}.{name}", t))

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self._params]

    @property
    def n_params(self) -> int:
        return sum(t.data.size for _, t in self._params)

    def zero_grad(self) -> None:
        for _, t in self._params:
            t.grad = None

    def get_weights(self) -> np.ndarray:
        if not self._params:
            return np.zeros(0)
        return np.concatenate([t.data.ravel() for _, t in self._params])

    def set_weights(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} weights, got {flat.size}")
        offset = 0
        for _, t in self._params:
            size = t.data.size
            t.data = flat[offset : offset + size].reshape(t.data.shape).copy()
            offset += size

    def _adapt(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        expected = self.spec.input_shape
        if x.shape[1:] != expected:
            raise ValueError(f"expected input shape (n, {', '.join(map(str, expected))}), "
                             f"got {x.shape}")
        return x.reshape(x.shape[0], *self._layout)

    def forward(self, x: np.ndarray) -> Tensor:
        """Run the network; returns the (n, 1) logit tensor."""
        out = Tensor(self._adapt(x))
        for layer in self.layers:
            out = layer(out)
        return out

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.forward(x).data[:, 0]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Sigmoid of the logit, clipped to the open interval (0, 1)."""
        p = _sigmoid(self.predict_logits(x))
        return np.clip(p, PROBA_CLIP, 1.0 - PROBA_CLIP)


def build(spec: ModelSpec) -> Model:
    """Instantiate a Model, drawing every weight from one generator seeded
    with spec.seed so identical specs build identical models."""
    steps = _walk(spec)
    rng = np.random.default_rng(spec.seed)
    return Model(spec, [kind.make(rng, state, d) for d, kind, state in steps])


def build_cnn1d(p: int, seed: int) -> ModelSpec:
    """1-D convolutional classifier over a length-p feature sequence."""
    spec = ModelSpec(
        arch="cnn1d",
        input_shape=(int(p),),
        layers=(
            {"type": "conv1d", "filters": 32, "kernel": 3, "padding": "same", "activation": "relu"},
            {"type": "conv1d", "filters": 64, "kernel": 3, "padding": "same", "activation": "relu"},
            {"type": "flatten"},
            {"type": "dense", "units": 64, "activation": "relu"},
            {"type": "dense", "units": 1, "activation": "none"},
        ),
        seed=int(seed),
    )
    validate_spec(spec)
    return spec


def build_cnn2d(h: int, w: int, p: int, seed: int) -> ModelSpec:
    """2-D convolutional classifier over an h x w x p patch."""
    spec = ModelSpec(
        arch="cnn2d",
        input_shape=(int(h), int(w), int(p)),
        layers=(
            {"type": "conv2d", "filters": 32, "kernel": 3, "padding": "same", "activation": "relu"},
            {"type": "conv2d", "filters": 64, "kernel": 3, "padding": "same", "activation": "relu"},
            {"type": "maxpool2d", "size": 2},
            {"type": "conv2d", "filters": 64, "kernel": 3, "padding": "valid", "activation": "relu"},
            {"type": "flatten"},
            {"type": "dense", "units": 64, "activation": "relu"},
            {"type": "dense", "units": 1, "activation": "none"},
        ),
        seed=int(seed),
    )
    validate_spec(spec)
    return spec


def build_vit(h: int, w: int, p: int, seed: int, dim: int = 64, heads: int = 4,
              blocks: int = 2, hidden: int = 128) -> ModelSpec:
    """Transformer classifier over h*w pixel tokens.

    Each pixel's p bands are linearly embedded, positional embeddings are
    added, a classification token is prepended (it carries no positional
    term), and the class token's final state feeds the logit.
    """
    layers: list[dict] = [
        {"type": "token_embed", "dim": int(dim)},
        {"type": "pos_embed"},
        {"type": "cls_token"},
    ]
    layers.extend({"type": "transformer", "heads": int(heads), "hidden": int(hidden)}
                  for _ in range(blocks))
    layers.append({"type": "select_token", "index": 0})
    layers.append({"type": "dense", "units": 1, "activation": "none"})
    spec = ModelSpec(arch="vit", input_shape=(int(h), int(w), int(p)),
                     layers=tuple(layers), seed=int(seed))
    validate_spec(spec)
    return spec


def build_mlp(p: int, seed: int, hidden: tuple[int, ...] = ()) -> ModelSpec:
    """Plain dense classifier on a p-dim vector; with no hidden layers it is
    a single logistic unit, handy as a convex probe."""
    layers = [{"type": "dense", "units": int(u), "activation": "relu"} for u in hidden]
    layers.append({"type": "dense", "units": 1, "activation": "none"})
    spec = ModelSpec(arch="mlp", input_shape=(int(p),), layers=tuple(layers), seed=int(seed))
    validate_spec(spec)
    return spec
