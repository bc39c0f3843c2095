"""Per-layer tracing installed from outside the program.

``install(recorder)`` wraps the public functions of the lsm modules listed
in ``TRACED`` plus the autodiff ops, the layer classes, the Adam step and
the backward closures. lsm modules import functions by name
(``from lsm.nn.autodiff import conv2d``), so every wrapper is patched into
each lsm module that holds the original object, which is where callers look
the name up at call time.

Coarse calls (a grid read, one cell's training, one raster pass) are
kept as spans with name, start, end and parent span. Autodiff ops, layer
calls, backward closures and gradient accumulation happen up to millions
of times per stage, so they are folded into per-name totals instead of
spans. Everything stays in memory until ``Recorder.dump`` writes it as JSON.
Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
import tracemalloc

TRACED_OPS = ("matmul", "add", "mul", "div", "relu", "gelu", "softmax",
              "conv1d", "conv2d", "maxpool2d")
OTHER_OPS = ("sub", "pow_", "sigmoid", "sum_", "mean", "reshape", "transpose",
             "getitem", "concat", "broadcast_to", "bce_with_logits")
TRACED_LAYERS = ("Dense", "Conv1D", "Conv2D", "LayerNorm", "MultiHeadAttention",
                 "FeedForward", "TransformerBlock")

# (module, function, metric name); the wrapper records a span and a total.
TRACED = (
    ("lsm.grid", "read_ascii_grid", "grid.read_ascii_grid"),
    ("lsm.grid", "write_ascii_grid", "grid.write_ascii_grid"),
    ("lsm.pipeline", "load_stack", "pipeline.load_stack"),
    ("lsm.pipeline", "_sha256", "pipeline.sha256"),
    ("lsm.synth", "gen_scene", "synth.gen_scene"),
    ("lsm.synth", "write_scene", "synth.write_scene"),
    ("lsm.sampling", "sample_negatives", "sampling.sample_negatives"),
    ("lsm.sampling", "extract_vector", "sampling.extract"),
    ("lsm.sampling", "extract_patch", "sampling.extract"),
    ("lsm.reduce", "pca_fit", "reduce.pca_fit"),
    ("lsm.reduce", "collinearity", "reduce.collinearity"),
    ("lsm.reduce", "pca_transform_features", "reduce.pca_transform"),
    ("lsm.evaluate", "evaluate", "evaluate.evaluate"),
    ("lsm.evaluate", "roc_svg", "evaluate.roc_svg"),
    ("lsm.nn.training", "_mean_bce", "nn.training.val_loss"),
    ("lsm.nn.checkpoint", "predict_batch", "nn.checkpoint.predict_batch"),
    ("lsm.nn.checkpoint", "save_checkpoint", "nn.checkpoint.save"),
    ("lsm.nn.checkpoint", "load_checkpoint", "nn.checkpoint.load"),
    ("lsm.mapping", "_gather_patches", "mapping.gather_patches"),
    ("lsm.mapping", "jenks_breaks", "mapping.jenks_breaks"),
    ("lsm.mapping", "classify", "mapping.classify"),
    ("lsm.mapping", "save_map", "mapping.save_map"),
)

_MB = 1024.0 * 1024.0


class Recorder:
    """In-memory spans and per-name totals of one traced process."""

    def __init__(self):
        self.totals: dict[str, dict[str, float]] = {}
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.t0 = time.perf_counter()

    def add(self, name: str, seconds: float = 0.0, calls: int = 1, **extra) -> None:
        tot = self.totals.setdefault(name, {"calls": 0, "s": 0.0})
        tot["calls"] += calls
        tot["s"] += seconds
        for key, value in extra.items():
            tot[key] = tot.get(key, 0.0) + value

    def peak(self, name: str, mb: float) -> None:
        tot = self.totals.setdefault(name, {"calls": 0, "s": 0.0})
        tot["peak_mb"] = max(tot.get("peak_mb", 0.0), mb)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn, record a span and add its wall time to ``name``."""
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        rec = {"name": name, "parent": parent}
        self.spans.append(rec)
        self._open.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            rec["start"] = start - self.t0
            rec["end"] = end - self.t0
            self.add(name, end - start)

    def dump(self, path: str, **meta) -> None:
        doc = {"meta": meta, "totals": self.totals, "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _replace_everywhere(orig, new) -> int:
    """Point every lsm module attribute bound to ``orig`` at ``new``."""
    n = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "lsm" or name.startswith("lsm.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
                n += 1
    return n


def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / _MB
    except OSError:
        return 0.0


def _matmul_flops(a, b) -> int:
    """2*m*k*n per product, times the broadcast batch of leading axes."""
    lead_a, lead_b = a.shape[:-2], b.shape[:-2]
    width = max(len(lead_a), len(lead_b))
    lead_a = (1,) * (width - len(lead_a)) + lead_a
    lead_b = (1,) * (width - len(lead_b)) + lead_b
    batch = math.prod(max(x, y) for x, y in zip(lead_a, lead_b))
    return 2 * batch * a.shape[-2] * a.shape[-1] * b.shape[-1]


def _array(t):
    return t.data if hasattr(t, "data") else t


def _conv_flops(op: str, x, w, padding: str) -> int:
    """Multiply-adds x2 of the forward convolution, from operand shapes."""
    if op == "conv1d":
        n, length, c_in = x.shape
        k, _, c_out = w.shape
        l_out = length if padding == "same" else length - k + 1
        return 2 * n * l_out * k * c_in * c_out
    n, h, wd, c_in = x.shape
    k, _, _, c_out = w.shape
    if padding == "same":
        h_out, w_out = h, wd
    else:
        h_out, w_out = h - k + 1, wd - k + 1
    return 2 * n * h_out * w_out * k * k * c_in * c_out


def install(rec: Recorder) -> None:
    """Install every wrapper; call once, after ``import lsm.pipeline``."""
    import importlib

    import lsm.pipeline  # noqa: F401  (loads every lsm module)
    from lsm.nn import autodiff, layers, training

    # The op running now (ops never nest), how deep backward closures are
    # nested, and the accumulate time spent inside the running closure.
    state = {"op": None, "closure_depth": 0, "closure_acc": 0.0}

    # -- autodiff ops: forward time, calls, FLOPs; op name handed to _make --
    def wrap_op(op_name: str, metric: str, orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            state["op"] = metric
            start = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                state["op"] = None
            rec.add(metric + ".fwd", time.perf_counter() - start)
            if op_name == "matmul":
                rec.add("nn.autodiff.matmul.flop", 0.0, 0,
                        flop=_matmul_flops(_array(args[0]), _array(args[1])))
            elif op_name in ("conv1d", "conv2d"):
                padding = kwargs.get("padding", args[3] if len(args) > 3 else "same")
                rec.add("nn.autodiff.conv.flop", 0.0, 0,
                        flop=_conv_flops(op_name, _array(args[0]), _array(args[1]), padding))
            return out
        return wrapper

    for name in TRACED_OPS + OTHER_OPS:
        orig = getattr(autodiff, name)
        metric = f"nn.autodiff.{name if name in TRACED_OPS else 'other'}"
        _replace_everywhere(orig, wrap_op(name, metric, orig))

    # -- backward closures: wrapped where _make receives them --
    orig_make = autodiff._make

    def make(data, parents, backward):
        metric = state["op"] or "nn.autodiff.other"

        def timed_backward(g):
            outer_acc = state["closure_acc"]
            state["closure_acc"] = 0.0
            state["closure_depth"] += 1
            start = time.perf_counter()
            try:
                backward(g)
            finally:
                elapsed = time.perf_counter() - start
                state["closure_depth"] -= 1
                inner_acc = state["closure_acc"]
                state["closure_acc"] = outer_acc
            rec.add(metric + ".bwd", elapsed - inner_acc)
        return orig_make(data, parents, timed_backward)

    autodiff._make = make

    orig_accumulate = autodiff.Tensor._accumulate

    def accumulate(self, g):
        start = time.perf_counter()
        orig_accumulate(self, g)
        elapsed = time.perf_counter() - start
        if state["closure_depth"]:
            state["closure_acc"] += elapsed
        rec.add("nn.autodiff.accumulate", elapsed)

    autodiff.Tensor._accumulate = accumulate

    orig_backward = autodiff.Tensor.backward

    def backward(self, grad=None):
        start = time.perf_counter()
        orig_backward(self, grad)
        rec.add("nn.autodiff.backward", time.perf_counter() - start)

    autodiff.Tensor.backward = backward

    # -- layers: inclusive forward time per class --
    for cls_name in TRACED_LAYERS:
        cls = getattr(layers, cls_name)
        orig_call = cls.__call__

        def call(self, x, _orig=orig_call, _metric=f"nn.layers.{cls_name}.fwd"):
            start = time.perf_counter()
            out = _orig(self, x)
            rec.add(_metric, time.perf_counter() - start)
            return out

        cls.__call__ = call

    # -- Adam step --
    orig_step = training.Adam.step

    def step(self):
        start = time.perf_counter()
        orig_step(self)
        rec.add("nn.training.adam_step", time.perf_counter() - start)

    training.Adam.step = step

    # -- coarse functions: spans, plus bytes for file I/O --
    for mod_name, fn_name, metric in TRACED:
        mod = importlib.import_module(mod_name)
        orig = getattr(mod, fn_name)
        _replace_everywhere(orig, _wrap_coarse(rec, metric, fn_name, orig))

    _wrap_train(rec)
    _wrap_infer_raster(rec)


def _wrap_coarse(rec: Recorder, metric: str, fn_name: str, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        out = rec.span(metric, orig, *args, **kwargs)
        if fn_name in ("read_ascii_grid", "_sha256"):
            rec.add(metric, 0.0, 0, mb=_file_mb(args[0]))
        elif fn_name == "write_ascii_grid":
            rec.add(metric, 0.0, 0, mb=_file_mb(args[1]))
        elif fn_name == "predict_batch":
            rec.add(metric, 0.0, 0, rows=len(args[1]))
        return out
    return wrapper


def _traced_peak(rec: Recorder, span_name: str, peak_name: str, fn, *args, **kwargs):
    """Run fn under tracemalloc and record its peak traced allocation."""
    tracemalloc.start()
    try:
        return rec.span(span_name, fn, *args, **kwargs)
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rec.peak(peak_name, peak / _MB)


def _wrap_train(rec: Recorder) -> None:
    """Name each train() call after its matrix cell; stage_train trains
    the cells in ``pipeline.CELLS`` order."""
    from lsm import pipeline

    orig = pipeline.train
    calls = [0]

    @functools.wraps(orig)
    def train(spec, *args, **kwargs):
        model, rep = pipeline.CELLS[calls[0] % len(pipeline.CELLS)]
        calls[0] += 1
        if model != spec.arch:
            raise RuntimeError(f"traced train call {calls[0]} is {spec.arch}, "
                               f"expected {model}")
        ckpt = _traced_peak(rec, f"nn.training.train.{model}_{rep}",
                            f"nn.training.{model}", orig, spec, *args, **kwargs)
        rec.add("nn.training.epochs", 0.0, 0, epochs=len(ckpt.history["train_loss"]))
        return ckpt

    _replace_everywhere(orig, train)


def _wrap_infer_raster(rec: Recorder) -> None:
    from lsm import mapping

    orig = mapping.infer_raster

    @functools.wraps(orig)
    def infer_raster(*args, **kwargs):
        return _traced_peak(rec, "mapping.infer_raster", "mapping.infer_raster",
                            orig, *args, **kwargs)

    _replace_everywhere(orig, infer_raster)
