"""Every lsm name the benchmark under perfbench/ looks up by attribute
still resolves, so a rename or deletion in the package fails here rather
than only in a traced benchmark run."""

import ast
import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


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
