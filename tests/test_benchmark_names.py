"""Every lsm name the benchmark under perfbench/ looks up by attribute
still resolves, and the installed tracer still sees the convolutions, so a
rename, a deletion or a call path the tracer cannot patch fails here rather
than only in a traced benchmark run."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracer):
    for mod_name, fn_name, _ in tracer.TRACED:
        assert callable(getattr(importlib.import_module(mod_name), fn_name, None)), \
            f"{mod_name}.{fn_name}"


def test_traced_ops_layers_and_hooks_resolve(tracer):
    from lsm import mapping, pipeline
    from lsm.nn import autodiff, layers, training

    for op in tracer.TRACED_OPS + tracer.OTHER_OPS:
        assert callable(getattr(autodiff, op, None)), op
    for cls in tracer.TRACED_LAYERS:
        assert callable(getattr(getattr(layers, cls, None), "__call__", None)), cls
    for owner, attr in ((autodiff, "_make"), (autodiff.Tensor, "_accumulate"),
                        (autodiff.Tensor, "backward"), (training.Adam, "step"),
                        (pipeline, "train"), (mapping, "infer_raster")):
        assert callable(getattr(owner, attr, None)), attr
    assert len(pipeline.CELLS) == 9


def test_checks_imports_resolve():
    with open(os.path.join(PERFBENCH, "checks.py")) as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module and node.module.split(".")[0] == "lsm"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_tracer_counts_conv_ops_and_layers():
    # install() patches the lsm modules for good, so it runs in its own process
    script = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {PERFBENCH!r})
        import numpy as np
        import tracer
        rec = tracer.Recorder()
        tracer.install(rec)
        from lsm.nn.autodiff import bce_with_logits
        from lsm.nn.models import build, build_cnn1d, build_cnn2d
        from lsm.nn.training import Adam
        rng = np.random.default_rng(0)
        for spec in (build_cnn1d(6, seed=1), build_cnn2d(7, 7, 3, seed=2)):
            model = build(spec)
            x = rng.normal(size=(4, *spec.input_shape))
            bce_with_logits(model.forward(x), np.array([0.0, 1.0, 0.0, 1.0])).backward()
            Adam(model.parameters(), 1e-3, 0.9, 0.999, 1e-8).step()
        json.dump({{name: tot["calls"] for name, tot in rec.totals.items()}}, sys.stdout)
    """)
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    for name in ("nn.autodiff.conv1d.fwd", "nn.autodiff.conv1d.bwd",
                 "nn.autodiff.conv2d.fwd", "nn.autodiff.conv2d.bwd",
                 "nn.layers.Conv1D.fwd", "nn.layers.Conv2D.fwd"):
        assert calls.get(name, 0) >= 1, name
