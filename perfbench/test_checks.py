"""Every output check passes on a real run and fails on a damaged copy.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q

One small pipeline (56x56 scene, 7x7 windows, 2 epochs) runs in-process
once per session; each test copies its run directory, damages one artifact
and expects the named check to raise ``CheckFailed``.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from lsm.pipeline import STAGES, PipelineConfig, run_stage  # noqa: E402

TINY = {"training": {"max_epochs": 2, "patience": 2},
        "sampling": {"window": 7}, "map": {"jenks_cap": 500}}


def _view(root: str, cfg: dict) -> checks.RunView:
    return checks.RunView(os.path.join(root, "run"), os.path.join(root, "scene", "scene"), cfg)


@pytest.fixture(scope="session")
def pristine(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("pristine"))
    scene = {"size": [56, 56], "seed": 3, "n_landslides": 40}
    synth = PipelineConfig.from_dict({"scene": scene,
                                      "paths": {"out_dir": os.path.join(root, "scene")}})
    run_stage("synth", synth)
    cfg = workloads.stage_config("map-vit", os.path.join(root, "scene", "scene"),
                                 os.path.join(root, "run"))
    cfg = workloads.merge(cfg, TINY)
    pipeline_cfg = PipelineConfig.from_dict(cfg)
    for stage in STAGES[1:]:
        run_stage(stage, pipeline_cfg)
    return root, cfg


@pytest.fixture
def damaged(pristine, tmp_path):
    """A fresh copy of the pristine run; returns (view, run directory)."""
    src, cfg = pristine
    dst = str(tmp_path / "copy")
    shutil.copytree(src, dst)
    return _view(dst, cfg), os.path.join(dst, "run")


def _rewrite_csv(path: str, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _edit_json(path: str, edit) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _edit_grid(path: str, edit) -> None:
    """Rewrite an ASCII grid after ``edit(values)`` changed its body."""
    header, values = checks.read_grid(path)
    with open(path) as fh:
        head = [next(fh) for _ in range(6)]
    edit(values)
    with open(path, "w") as fh:
        fh.writelines(head)
        for row in values:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


# --------------------------------------------------------------- damage


def damage_scene_oracle(run, view):
    _edit_json(os.path.join(view.scene, "scene.json"), lambda d: d.update(oracle_auc=0.9))


def damage_ingest_band(run, view):
    _edit_grid(os.path.join(run, "ingest", "embed", "e07.asc"),
               lambda v: v.__setitem__((10, 10), v[10, 10] + 1e-9))


def damage_sample_balance(run, view):
    def edit(rows):
        rows[:] = [r for i, r in enumerate(rows) if not (r["label"] == "0" and i % 2)]
    _rewrite_csv(os.path.join(run, "sample", "samples.csv"), edit)


def damage_sample_buffer(run, view):
    def edit(rows):
        pos = next(r for r in rows if r["label"] == "1")
        neg = next(r for r in rows if r["label"] == "0")
        neg["x"] = repr(float(pos["x"]) + 60.0)
        neg["y"] = pos["y"]
    _rewrite_csv(os.path.join(run, "sample", "samples.csv"), edit)


def damage_sample_window(run, view):
    def edit(rows):
        rows[0]["x"] = repr(15.0)   # column 0: a 7x7 window leaves the grid
    _rewrite_csv(os.path.join(run, "sample", "samples.csv"), edit)


def damage_pca_eigen(run, view):
    def edit(doc):
        doc["eigenvalues"][0] *= 1.0 + 1e-6
    _edit_json(os.path.join(run, "diagnose", "pca_model.json"), edit)


def damage_pca_k(run, view):
    path = os.path.join(run, "diagnose", "diagnose.json")
    _edit_json(path, lambda d: d["pca"].update(k=d["pca"]["k"] + 1))


def damage_vif(run, view):
    def edit(doc):
        doc["vif"][3] *= 1.001
    _edit_json(os.path.join(run, "diagnose", "collinearity.json"), edit)


def damage_checkpoint_bin(run, view):
    path = os.path.join(run, "train", "cnn2d_lcf.bin")
    data = bytearray(open(path, "rb").read())
    data[40] ^= 0x01
    open(path, "wb").write(bytes(data))


def damage_history(run, view):
    path = os.path.join(run, "train", "vit_embed_pca.json")
    _edit_json(path, lambda d: d["history"]["val_loss"].pop())


def damage_val_loss(run, view):
    def edit(doc):
        h = doc["history"]
        h["val_loss"] = [x + 0.01 for x in h["val_loss"]]
    _edit_json(os.path.join(run, "train", "cnn1d_embed_full.json"), edit)
    # keep the checkpoint loadable: the hash covers the .bin only


def damage_prediction_score(run, view):
    def edit(rows):
        rows[2]["score"] = repr(float(rows[2]["score"]) * 0.5)
    _rewrite_csv(os.path.join(run, "evaluate", "cnn2d_embed_pca_predictions.csv"), edit)


def damage_prediction_label(run, view):
    def edit(rows):
        rows[0]["label"] = "0" if rows[0]["label"] == "1" else "1"
    _rewrite_csv(os.path.join(run, "evaluate", "vit_lcf_predictions.csv"), edit)


def damage_confusion(run, view):
    def edit(doc):
        doc["counts"]["tp"] += 1
        doc["counts"]["fn"] -= 1
    _edit_json(os.path.join(run, "evaluate", "cnn1d_lcf_metrics.json"), edit)


def damage_f1(run, view):
    def edit(doc):
        doc["f1"] = (doc["f1"] or 0.5) * 0.9
    _edit_json(os.path.join(run, "evaluate", "vit_embed_full_metrics.json"), edit)


def _map_file(run, view, name):
    return os.path.join(run, "map", view.map_cell, name)


def damage_map_score(run, view):
    x, y = view.samples[0][:2]

    def edit(values):
        header = checks.read_grid(_map_file(run, view, "scores.asc"))[0]
        r, c = checks.cell_of(header, x, y)
        values[r, c] = values[r, c] * 0.999
    _edit_grid(_map_file(run, view, "scores.asc"), edit)


def damage_map_classes(run, view):
    def edit(values):
        valid = values != -9999.0
        top = values[valid].max()
        r, c = np.argwhere(values == top)[0]
        values[r, c] = 1.0
    _edit_grid(_map_file(run, view, "classes.asc"), edit)


def damage_occupancy(run, view):
    def edit(doc):
        doc["counts"]["1"] += 1
    _edit_json(_map_file(run, view, "occupancy.json"), edit)


def damage_jenks(run, view):
    def edit(doc):
        lo = doc["breaks"][0]
        doc["breaks"] = [lo * (1 + 1e-9 * i) for i in range(1, len(doc["breaks"]) + 1)]
    _edit_json(_map_file(run, view, "breaks.json"), edit)


def damage_comparison(run, view):
    def edit(rows):
        rows[4]["auc"] = repr(float(rows[4]["auc"]) + 1e-6)
    _rewrite_csv(os.path.join(run, "report", "comparison.csv"), edit)


def damage_deltas(run, view):
    def edit(doc):
        doc["cnn2d"]["embed_full"]["delta_auc"] += 1e-9
    _edit_json(os.path.join(run, "report", "deltas.json"), edit)


def damage_null(run, view):
    def edit(rows):
        for r in rows:
            r["score"] = "0.5"
    _rewrite_csv(os.path.join(run, "evaluate", "cnn1d_embed_pca_predictions.csv"), edit)


def damage_embed_order(run, view):
    def worse(rows):
        for r in rows[::2]:
            r["score"] = repr(float(r["score"]) + (-0.55 if r["label"] == "1" else 0.55))
    for model in ("cnn1d", "vit"):
        _rewrite_csv(os.path.join(run, "evaluate", f"{model}_embed_full_predictions.csv"),
                     worse)


CASES = [
    (checks.check_setup_oracle, damage_scene_oracle),
    (checks.check_ingest_bands, damage_ingest_band),
    (checks.check_sample_balanced, damage_sample_balance),
    (checks.check_sample_buffer, damage_sample_buffer),
    (checks.check_sample_windows, damage_sample_window),
    (checks.check_diagnose_pca, damage_pca_eigen),
    (checks.check_diagnose_k, damage_pca_k),
    (checks.check_diagnose_vif, damage_vif),
    (checks.check_train_checkpoints, damage_checkpoint_bin),
    (checks.check_train_history, damage_history),
    (checks.check_train_val_bce, damage_val_loss),
    (checks.check_evaluate_predictions, damage_prediction_score),
    (checks.check_evaluate_auc, damage_prediction_label),
    (checks.check_evaluate_confusion, damage_confusion),
    (checks.check_evaluate_confusion, damage_f1),
    (checks.check_map_points, damage_map_score),
    (checks.check_map_class_order, damage_map_classes),
    (checks.check_map_occupancy, damage_occupancy),
    (checks.check_map_jenks, damage_jenks),
    (checks.check_report, damage_comparison),
    (checks.check_report, damage_deltas),
    (checks.check_matrix_beats_null, damage_null),
    (checks.check_matrix_embed_full, damage_embed_order),
]


def test_every_check_is_exercised():
    covered = {check for check, _ in CASES}
    listed = {checks.check_setup_oracle, *checks.MATRIX_CHECKS}
    for fns in checks.STAGE_CHECKS.values():
        listed.update(fns)
    assert listed == covered


def test_pristine_run_passes(pristine):
    root, cfg = pristine
    view = _view(root, cfg)
    assert checks.run_checks(view, matrix=False) == []


def _separate_predictions(run):
    """Give every cell 100 perfectly ranked validation scores, so the
    matrix checks, which need a large validation set of converged models,
    pass on the copy before it is damaged."""
    for cell in checks.CELLS:
        with open(os.path.join(run, "evaluate", f"{cell}_predictions.csv"), "w") as fh:
            fh.write("label,score\n")
            for i in range(100):
                label = i % 2
                fh.write(f"{label},{(0.6 if label else 0.1) + 1e-3 * i!r}\n")


@pytest.mark.parametrize("check,damage", CASES, ids=[d.__name__ for _, d in CASES])
def test_check_fails_on_damage(damaged, check, damage):
    view, run = damaged
    if check in checks.MATRIX_CHECKS:
        _separate_predictions(run)
    check(checks.RunView(view.out, view.scene, view.cfg))
    damage(run, view)
    with pytest.raises(checks.CheckFailed):
        check(checks.RunView(view.out, view.scene, view.cfg))
