"""Per-layer metrics from the trace files of a traced run.

Each traced stage process writes one JSON (see tracer.py) with per-name
totals. The per-layer metrics sum the totals of the seven timed stages;
``synth.*`` comes from the set-up trace. Names and units are declared in
BENCHMARK.json, which run.py checks against the names computed here.
"""

from __future__ import annotations

import json

from checks import CELLS, MODELS
from tracer import TRACED_LAYERS, TRACED_OPS


def _merged_totals(paths: list[str]) -> dict[str, dict[str, float]]:
    merged: dict[str, dict[str, float]] = {}
    for path in paths:
        with open(path) as fh:
            totals = json.load(fh)["totals"]
        for name, tot in totals.items():
            into = merged.setdefault(name, {})
            for key, value in tot.items():
                if key == "peak_mb":
                    into[key] = max(into.get(key, 0.0), value)
                else:
                    into[key] = into.get(key, 0.0) + value
    return merged


def metrics(stages: list[dict], setup_trace: str) -> dict[str, float]:
    """Per-layer metrics of a traced run; ``stages`` are the runner's
    results for the seven timed stages, each naming its trace file."""
    t = _merged_totals([s["trace"] for s in stages])
    synth = _merged_totals([setup_trace])

    def get(name, key="s"):
        return t.get(name, {}).get(key, 0.0)

    m: dict[str, float] = {}
    bwd_total = 0.0
    for op in TRACED_OPS + ("other",):
        m[f"nn.autodiff.{op}.fwd_s"] = get(f"nn.autodiff.{op}.fwd")
        m[f"nn.autodiff.{op}.bwd_s"] = get(f"nn.autodiff.{op}.bwd")
        bwd_total += m[f"nn.autodiff.{op}.bwd_s"]
        if op != "other":
            m[f"nn.autodiff.{op}.calls"] = get(f"nn.autodiff.{op}.fwd", "calls")
    m["nn.autodiff.accumulate_s"] = get("nn.autodiff.accumulate")
    # backward() = graph walk + closure self time + gradient accumulation
    m["nn.autodiff.backward_walk_s"] = (get("nn.autodiff.backward") - bwd_total
                                        - m["nn.autodiff.accumulate_s"])
    m["nn.autodiff.matmul.gflop"] = get("nn.autodiff.matmul.flop", "flop") / 1e9
    m["nn.autodiff.conv.gflop"] = get("nn.autodiff.conv.flop", "flop") / 1e9
    for cls in TRACED_LAYERS:
        m[f"nn.layers.{cls}.fwd_s"] = get(f"nn.layers.{cls}.fwd")
    for cell in CELLS:
        m[f"nn.training.train.{cell}_s"] = get(f"nn.training.train.{cell}")
    m["nn.training.epochs"] = get("nn.training.epochs", "epochs")
    m["nn.training.adam_step_s"] = get("nn.training.adam_step")
    m["nn.training.val_loss_s"] = get("nn.training.val_loss")
    for arch in MODELS:
        m[f"nn.training.{arch}.peak_alloc_mb"] = get(f"nn.training.{arch}", "peak_mb")
    m["mapping.infer_raster.peak_alloc_mb"] = get("mapping.infer_raster", "peak_mb")
    for s in stages:
        m[f"pipeline.{s['stage']}.peak_rss_mb"] = s["rss_mb"]
    m["nn.checkpoint.predict_batch_s"] = get("nn.checkpoint.predict_batch")
    m["nn.checkpoint.predict_batch.rows"] = get("nn.checkpoint.predict_batch", "rows")
    for name in ("nn.checkpoint.save", "nn.checkpoint.load", "mapping.infer_raster",
                 "mapping.gather_patches", "mapping.jenks_breaks", "mapping.classify",
                 "mapping.save_map", "pipeline.sha256", "sampling.sample_negatives",
                 "sampling.extract", "reduce.pca_fit", "reduce.collinearity",
                 "reduce.pca_transform", "evaluate.evaluate", "evaluate.roc_svg",
                 "grid.read_ascii_grid", "grid.write_ascii_grid", "pipeline.load_stack"):
        m[f"{name}_s"] = get(name)
    for name in ("grid.read_ascii_grid", "grid.write_ascii_grid", "pipeline.load_stack",
                 "sampling.extract"):
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("grid.read_ascii_grid", "grid.write_ascii_grid", "pipeline.sha256"):
        m[f"{name}_mb"] = get(name, "mb")
    m["synth.gen_scene_s"] = synth.get("synth.gen_scene", {}).get("s", 0.0)
    m["synth.write_scene_s"] = synth.get("synth.write_scene", {}).get("s", 0.0)
    for s in stages:
        m[f"pipeline.{s['stage']}.wall_s"] = s["wall_s"]
    return m
