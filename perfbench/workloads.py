"""The benchmark's workloads: generated scene, training length, map cell.

Each workload is a partial lsm config merged over ``BASE``. Training runs
a fixed number of epochs (``patience == max_epochs``), so early stopping
never changes the amount of work. The benchmark's ``--seed`` becomes the
scene seed; sampling and training seeds stay fixed, so a seed names one
scene and the same seed always reproduces the same artifacts.

``runs`` fixes how many times each stage runs in a measured run at the
benchmark's ``run_seconds``. Short stages run several times, so that
process start-up and one slow moment of a shared host do not set their
figure; a stage's wall time is the fastest of its runs. The counts are
constants, so a faster or slower program never changes how it is sampled.
"""

from __future__ import annotations

import copy

BASE = {
    "model": "vit",
    "representation": "embed_full",
    "sampling": {"buffer_m": 150.0, "ratio": "1:1", "train_fraction": 0.7,
                 "window": 11, "seed": 42},
    "pca": {"threshold": 0.90},
    "training": {"learning_rate": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                 "batch_size": 64, "max_epochs": 1, "patience": 1, "seed": 42},
    "eval": {"threshold": 0.5},
    "map": {"n_classes": 5, "jenks_cap": 10000},
}

SCENE_BASE = {"cellsize": 30.0, "informative_bands": 4, "total_bands": 64,
              "correlation_length": 8.0, "noise_level": 0.2}


def _epochs(n: int) -> dict:
    return {"max_epochs": n, "patience": n}


WORKLOADS = {
    # All nine cells train for a fixed number of epochs; the cheap
    # cnn1d_lcf map keeps the vit inference path out of the way. The
    # matrix checks (every cell beats its permutation-null bar, embed_full
    # >= lcf) are statistical: two informative fields, a 65+65 validation
    # split and 36 Adam steps per cell are what lets every cell clear the
    # bar on every seed tried; 7x7 windows keep the run inside its budget.
    "matrix-train": {
        "why": "all 9 cells train 4 fixed epochs on a 128x128 scene; forward, "
               "backward and Adam dominate, the map is the cheap cnn1d_lcf",
        "scene": {"size": [128, 128], "n_landslides": 130, "informative_bands": 2},
        "config": {"model": "cnn1d", "representation": "lcf",
                   "sampling": {"window": 7, "train_fraction": 0.5},
                   "training": {"batch_size": 16, **_epochs(4)}},
        "runs": {"ingest": 2, "sample": 4, "diagnose": 3, "train": 1,
                 "evaluate": 2, "map": 2, "report": 2},
        "matrix_checks": True,
    },
    # A small scene keeps training to one short epoch; the no_grad vit
    # forward over every feasible 11x11 window is most of the run. With 30
    # landslides some seeds leave too few cells outside the buffer for the
    # negatives, and sampling fails.
    "map-vit": {
        "why": "one epoch on a 46x46 scene, then the vit_embed_full map over "
               "every feasible cell dominates",
        "scene": {"size": [46, 46], "n_landslides": 20},
        "config": {"model": "vit", "representation": "embed_full",
                   "training": _epochs(1)},
        "runs": {"ingest": 5, "sample": 5, "diagnose": 5, "train": 2,
                 "evaluate": 5, "map": 1, "report": 2},
        "matrix_checks": False,
    },
    # 1.9 times the default cells: ASCII grid parsing and writing, the
    # stack re-load in every stage, hashing, sampling and PCA/VIF outweigh
    # the nets. A sparser inventory than ~0.005 landslides per cell never
    # reaches the generator's oracle-AUC floor; 7x7 windows and a 30%
    # training split keep the nets small.
    "raster-io": {
        "why": "176x176 scene, one epoch, cnn1d_lcf map on the vector path; "
               "ASCII grid reads and writes dominate",
        "scene": {"size": [176, 176], "n_landslides": 170},
        "config": {"model": "cnn1d", "representation": "lcf",
                   "sampling": {"window": 7, "train_fraction": 0.3},
                   "training": _epochs(1)},
        "runs": {"ingest": 2, "sample": 3, "diagnose": 3, "train": 2,
                 "evaluate": 2, "map": 2, "report": 2},
        "matrix_checks": False,
    },
}


def merge(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def scene_config(name: str, seed: int, out_dir: str) -> dict:
    """Config for ``lsm synth``: writes the scene under ``out_dir/scene``."""
    scene = merge(SCENE_BASE, WORKLOADS[name]["scene"])
    scene["seed"] = int(seed)
    return {"scene": scene, "paths": {"out_dir": out_dir}}


def stage_config(name: str, scene_dir: str, out_dir: str) -> dict:
    """Config for the timed stages, reading the generated scene as inputs."""
    cfg = merge(BASE, WORKLOADS[name]["config"])
    cfg["paths"] = {
        "lcf_manifest": f"{scene_dir}/lcf_manifest.json",
        "embed_manifest": f"{scene_dir}/embed_manifest.json",
        "inventory": f"{scene_dir}/inventory.csv",
        "mask": None,
        "out_dir": out_dir,
    }
    return cfg
