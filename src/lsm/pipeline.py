"""Stage orchestration: config handling, the experiment matrix, reports.

Stages write their artifacts under the configured output directory and later
stages read them back from disk, so any stage can be re-run in isolation as
long as its prerequisites exist. The experiment matrix is fixed: three
architectures (cnn1d, cnn2d, vit) crossed with three feature representations
(lcf, embed_pca, embed_full).
"""

import copy
import csv
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

import lsm
from lsm.evaluate import evaluate, roc_svg, roc_to_csv
from lsm.grid import (
    GridStack,
    apply_mask,
    build_stack,
    read_ascii_grid,
    resample,
    write_ascii_grid,
)
from lsm.mapping import (_gather_patches, classify, infer_raster, jenks_breaks,
                         occupancy, save_map)
from lsm.nn.checkpoint import load_checkpoint, predict_batch, save_checkpoint
from lsm.nn.models import build_cnn1d, build_cnn2d, build_vit
from lsm.nn.training import TrainConfig, train
from lsm.reduce import (
    PcaModel,
    collinearity,
    fit_standardizer,
    pca_fit,
    pca_transform_features,
    select_k,
    with_k,
)
from lsm.sampling import (
    InventoryPoint,
    SampleSet,
    load_inventory,
    min_pair_distance,
    sample_negatives,
    split_samples,
    window_feasible_mask,
)
from lsm.synth import SceneConfig, gen_scene, write_scene

log = logging.getLogger(__name__)

MODELS = ("cnn1d", "cnn2d", "vit")
REPRESENTATIONS = ("lcf", "embed_pca", "embed_full")
STAGES = ("synth", "ingest", "sample", "diagnose", "train", "evaluate", "map", "report")

CELLS = tuple((m, r) for m in MODELS for r in REPRESENTATIONS)


class ConfigError(ValueError):
    """Configuration problems; the CLI maps these to exit code 2."""


class StageError(RuntimeError):
    """Stage execution problems; the CLI maps these to exit code 3."""


def _defaults() -> dict:
    return {
        "paths": {
            "lcf_manifest": None,
            "embed_manifest": None,
            "inventory": None,
            "mask": None,
            "out_dir": "lsm_run",
        },
        "scene": SceneConfig().to_dict(),
        "model": "vit",
        "representation": "embed_full",
        "sampling": {
            "buffer_m": 150.0,
            "ratio": "1:1",
            "train_fraction": 0.7,
            "window": 11,
            "seed": 42,
        },
        "pca": {"threshold": 0.90},
        "training": {
            "learning_rate": 1e-3,
            "beta1": 0.9,
            "beta2": 0.999,
            "eps": 1e-8,
            "batch_size": 64,
            "max_epochs": 100,
            "patience": 10,
            "seed": 42,
        },
        "eval": {"threshold": 0.5},
        "map": {"n_classes": 5, "jenks_cap": 10000},
    }


def _merge(defaults: dict, user: dict, prefix: str, sources: dict) -> dict:
    merged = {}
    for key, dval in defaults.items():
        path = f"{prefix}{key}"
        if isinstance(dval, dict):
            uval = user.get(key, {})
            if not isinstance(uval, dict):
                raise ConfigError(f"{path}: expected an object, got {type(uval).__name__}")
            merged[key] = _merge(dval, uval, path + ".", sources)
        elif key not in user:
            merged[key] = copy.deepcopy(dval)
            sources[path] = "default"
        else:
            merged[key] = copy.deepcopy(user[key])
            sources[path] = "user"
    for key in user:
        if key not in defaults:
            raise ConfigError(f"{prefix}{key}: unknown key")
    return merged


def _require_number(values: dict, dotted: str, lo=None, hi=None,
                    integer: bool = False, lo_open: bool = False) -> None:
    node = values
    for part in dotted.split("."):
        node = node[part]
    ok = isinstance(node, (int, float)) and not isinstance(node, bool)
    if ok and integer:
        ok = float(node) == int(node)
    if ok and lo is not None:
        ok = node > lo if lo_open else node >= lo
    if ok and hi is not None:
        ok = node <= hi
    if not ok:
        raise ConfigError(f"{dotted}: invalid value {node!r}")


@dataclass
class PipelineConfig:
    """Fully merged configuration plus the origin of every leaf value."""

    values: dict
    sources: dict

    @classmethod
    def from_dict(cls, user: dict, seed=None, out_dir=None) -> "PipelineConfig":
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        sources: dict = {}
        values = _merge(_defaults(), user, "", sources)
        cfg = cls(values=values, sources=sources)
        if seed is not None:
            for dotted in ("sampling.seed", "training.seed", "scene.seed"):
                cfg._set(dotted, int(seed), "cli")
        if out_dir is not None:
            cfg._set("paths.out_dir", str(out_dir), "cli")
        cfg._validate()
        return cfg

    @classmethod
    def load(cls, path: str, seed=None, out_dir=None) -> "PipelineConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from None
        return cls.from_dict(doc, seed=seed, out_dir=out_dir)

    def _set(self, dotted: str, value, source: str) -> None:
        node = self.values
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node[part]
        node[parts[-1]] = value
        self.sources[dotted] = source

    def __getitem__(self, dotted: str):
        node = self.values
        for part in dotted.split("."):
            node = node[part]
        return node

    def _validate(self) -> None:
        if self["model"] not in MODELS:
            raise ConfigError(f"model: must be one of {MODELS}, got {self['model']!r}")
        if self["representation"] not in REPRESENTATIONS:
            raise ConfigError(
                f"representation: must be one of {REPRESENTATIONS}, "
                f"got {self['representation']!r}")
        for key in ("lcf_manifest", "embed_manifest", "inventory", "mask"):
            v = self[f"paths.{key}"]
            if v is not None and not isinstance(v, str):
                raise ConfigError(f"paths.{key}: expected a path string or null")
        if not isinstance(self["paths.out_dir"], str) or not self["paths.out_dir"]:
            raise ConfigError("paths.out_dir: expected a non-empty path string")

        _require_number(self.values, "sampling.buffer_m", lo=0)
        if self["sampling.ratio"] != "1:1":
            raise ConfigError("sampling.ratio: only balanced '1:1' sampling is supported")
        _require_number(self.values, "sampling.train_fraction", lo=0, hi=1, lo_open=True)
        if self["sampling.train_fraction"] >= 1:
            raise ConfigError("sampling.train_fraction: must lie strictly below 1")
        _require_number(self.values, "sampling.window", lo=1, integer=True)
        if self["sampling.window"] % 2 == 0:
            raise ConfigError("sampling.window: must be odd")
        _require_number(self.values, "sampling.seed", integer=True)
        _require_number(self.values, "pca.threshold", lo=0, hi=1, lo_open=True)
        _require_number(self.values, "training.learning_rate", lo=0, lo_open=True)
        _require_number(self.values, "training.beta1", lo=0, hi=1)
        _require_number(self.values, "training.beta2", lo=0, hi=1)
        _require_number(self.values, "training.eps", lo=0, lo_open=True)
        _require_number(self.values, "training.batch_size", lo=1, integer=True)
        _require_number(self.values, "training.max_epochs", lo=1, integer=True)
        _require_number(self.values, "training.patience", lo=1, integer=True)
        _require_number(self.values, "training.seed", integer=True)
        _require_number(self.values, "eval.threshold", lo=0, hi=1)
        _require_number(self.values, "map.n_classes", lo=1, integer=True)
        _require_number(self.values, "map.jenks_cap", lo=self["map.n_classes"],
                        integer=True)
        try:
            SceneConfig.from_dict(self["scene"])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"scene: {e}") from None

    def echo(self) -> dict:
        """Nested {key: {value, source}} tree for the config echo artifact."""
        def walk(node, prefix):
            out = {}
            for key, val in node.items():
                path = f"{prefix}{key}"
                if isinstance(val, dict):
                    out[key] = walk(val, path + ".")
                else:
                    out[key] = {"value": val, "source": self.sources[path]}
            return out
        return walk(self.values, "")

    # resolved paths ---------------------------------------------------

    @property
    def out_dir(self) -> str:
        return self["paths.out_dir"]

    def path(self, key: str) -> str:
        configured = self[f"paths.{key}"]
        if configured is not None:
            return configured
        scene_files = {
            "lcf_manifest": "lcf_manifest.json",
            "embed_manifest": "embed_manifest.json",
            "inventory": "inventory.csv",
        }
        return os.path.join(self.out_dir, "scene", scene_files[key])

    def scene_config(self) -> SceneConfig:
        return SceneConfig.from_dict(self["scene"])

    def train_config(self, shuffle_seed: int) -> TrainConfig:
        t = self["training"]
        return TrainConfig(learning_rate=t["learning_rate"], beta1=t["beta1"],
                           beta2=t["beta2"], eps=t["eps"],
                           batch_size=int(t["batch_size"]),
                           max_epochs=int(t["max_epochs"]),
                           patience=int(t["patience"]), seed=shuffle_seed)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _require_artifact(path: str, stage: str, what: str) -> str:
    if not os.path.exists(path):
        raise StageError(f"missing {what} at {path}; run the '{stage}' stage first")
    return path


def _stage_dir(cfg: PipelineConfig, stage: str) -> str:
    d = os.path.join(cfg.out_dir, stage)
    os.makedirs(d, exist_ok=True)
    return d


def cell_name(model: str, representation: str) -> str:
    return f"{model}_{representation}"


def _cell_seeds(cfg: PipelineConfig, model: str, representation: str) -> tuple[int, int]:
    """Per-cell (init, shuffle) seeds derived from the training seed so that
    every matrix cell trains with its own reproducible randomness."""
    base = int(cfg["training.seed"])
    idx = CELLS.index((model, representation))
    return base + 10 + idx, base + 40 + idx


# --------------------------------------------------------------------------
# stages


def stage_synth(cfg: PipelineConfig) -> dict:
    scene = gen_scene(cfg.scene_config())
    out = os.path.join(cfg.out_dir, "scene")
    paths = write_scene(scene, out)
    outputs = [paths["dem"], paths["latent"], paths["lcf_manifest"],
               paths["embed_manifest"], paths["inventory"], paths["scene"]]
    for key in ("lcf_manifest", "embed_manifest"):
        base = os.path.dirname(paths[key])
        for entry in _read_json(paths[key]):
            outputs.append(os.path.join(base, entry["path"]))
    log.info("synth: wrote scene with %d landslides (oracle AUC %.4f)",
             len(scene.inventory), scene.oracle_auc)
    return {"inputs": [], "outputs": outputs}


def _read_manifest(path: str) -> list:
    entries = _read_json(path)
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{path}: stack manifest must be a non-empty JSON list")
    base = os.path.dirname(path)
    seen = set()
    out = []
    for i, e in enumerate(entries):
        if not isinstance(e, dict) or set(e) != {"name", "path", "kind"}:
            raise ConfigError(f"{path}: entry {i} must have exactly "
                              "the keys name, path, kind")
        if e["kind"] not in ("continuous", "categorical"):
            raise ConfigError(f"{path}: entry {i}: kind must be "
                              f"'continuous' or 'categorical', got {e['kind']!r}")
        if e["name"] in seen:
            raise ConfigError(f"{path}: duplicate band name {e['name']!r}")
        seen.add(e["name"])
        band_path = e["path"]
        if not os.path.isabs(band_path):
            band_path = os.path.join(base, band_path)
        out.append({"name": e["name"], "path": band_path, "kind": e["kind"]})
    return out


def _resolve_input(cfg: PipelineConfig, key: str, producer: str) -> str:
    path = cfg.path(key)
    if os.path.exists(path):
        return path
    if cfg[f"paths.{key}"] is None:
        raise StageError(f"missing {key} at {path}; run the '{producer}' stage first")
    raise ConfigError(f"paths.{key}: file not found: {path}")


def stage_ingest(cfg: PipelineConfig) -> dict:
    inputs = []
    stacks = {}
    template = None
    for key in ("lcf", "embed"):
        manifest_path = _resolve_input(cfg, f"{key}_manifest", "synth")
        inputs.append(manifest_path)
        entries = _read_manifest(manifest_path)
        bands = []
        for e in entries:
            if not os.path.exists(e["path"]):
                raise ConfigError(f"{manifest_path}: band {e['name']!r}: "
                                  f"file not found: {e['path']}")
            inputs.append(e["path"])
            grid = read_ascii_grid(e["path"])
            if template is None:
                template = grid.header
            if grid.header != template:
                method = "nearest" if e["kind"] == "categorical" else "bilinear"
                grid = resample(grid, template, method)
            bands.append((e["name"], grid, e["kind"]))
        stacks[key] = bands

    mask_path = cfg["paths.mask"]
    mask = None
    if mask_path is not None:
        if not os.path.exists(mask_path):
            raise ConfigError(f"paths.mask: file not found: {mask_path}")
        inputs.append(mask_path)
        mask = read_ascii_grid(mask_path)
        if mask.header != template:
            mask = resample(mask, template, "nearest")

    out = _stage_dir(cfg, "ingest")
    outputs = []
    for key, bands in stacks.items():
        stack = build_stack([(name, grid) for name, grid, _ in bands])
        if mask is not None:
            stack = apply_mask(stack, mask)
        band_dir = os.path.join(out, key)
        os.makedirs(band_dir, exist_ok=True)
        listing = []
        for i, name in enumerate(stack.names):
            path = os.path.join(band_dir, f"{name}.asc")
            write_ascii_grid(stack.grid(name), path)
            outputs.append(path)
            listing.append({"name": name, "path": os.path.join(key, f"{name}.asc"),
                            "kind": bands[i][2]})
        doc = os.path.join(out, f"stack_{key}.json")
        _write_json(doc, {"bands": listing, "n_bands": len(listing)})
        outputs.append(doc)
        log.info("ingest: %s stack with %d aligned bands", key, len(listing))
    return {"inputs": inputs, "outputs": outputs}


def load_stack(cfg: PipelineConfig, key: str) -> GridStack:
    doc_path = os.path.join(cfg.out_dir, "ingest", f"stack_{key}.json")
    _require_artifact(doc_path, "ingest", f"{key} stack listing")
    doc = _read_json(doc_path)
    base = os.path.join(cfg.out_dir, "ingest")
    bands = []
    for e in doc["bands"]:
        bands.append((e["name"], read_ascii_grid(os.path.join(base, e["path"]))))
    return build_stack(bands)


def stage_sample(cfg: PipelineConfig) -> dict:
    lcf = load_stack(cfg, "lcf")
    embed = load_stack(cfg, "embed")
    window = int(cfg["sampling.window"])
    feasible = window_feasible_mask(lcf, window) & window_feasible_mask(embed, window)
    if not feasible.any():
        raise StageError(f"no cell supports a {window}x{window} window in both stacks")
    h = lcf.header
    sentinel = np.where(feasible, 1.0, h.nodata_value)
    feas_stack = GridStack(header=h, names=("feasible",), data=sentinel[None, :, :])

    inventory_path = _resolve_input(cfg, "inventory", "synth")
    positives, report = load_inventory(inventory_path, feas_stack)
    if len(positives) < 2:
        raise StageError(f"only {len(positives)} usable landslide points after "
                         "feasibility filtering; need at least 2")
    seed = int(cfg["sampling.seed"])
    negatives = sample_negatives(positives, feas_stack, float(cfg["sampling.buffer_m"]),
                                 seed)
    sample_set = split_samples(positives + negatives,
                               float(cfg["sampling.train_fraction"]), seed)

    out = _stage_dir(cfg, "sample")
    csv_path = os.path.join(out, "samples.csv")
    sample_set.to_csv(csv_path)
    parts = sample_set.split
    labels = [p.label for p in sample_set.points]
    summary = {
        "positives": len(positives),
        "negatives": len(negatives),
        "load_report": report,
        "buffer_m": cfg["sampling.buffer_m"],
        "min_negative_to_positive_m": min_pair_distance(negatives, positives),
        "window": window,
        "train": {"positives": sum(1 for p, s in zip(labels, parts) if p == 1 and s == "train"),
                  "negatives": sum(1 for p, s in zip(labels, parts) if p == 0 and s == "train")},
        "validation": {"positives": sum(1 for p, s in zip(labels, parts) if p == 1 and s == "validation"),
                       "negatives": sum(1 for p, s in zip(labels, parts) if p == 0 and s == "validation")},
        "seed": seed,
    }
    json_path = os.path.join(out, "sampling.json")
    _write_json(json_path, summary)
    log.info("sample: %d positives, %d negatives (min separation %.1f m)",
             len(positives), len(negatives), summary["min_negative_to_positive_m"])
    return {"inputs": [inventory_path], "outputs": [csv_path, json_path]}


def load_samples(cfg: PipelineConfig) -> SampleSet:
    path = os.path.join(cfg.out_dir, "sample", "samples.csv")
    _require_artifact(path, "sample", "sample table")
    return SampleSet.from_csv(path, seed=int(cfg["sampling.seed"]))


def _gather_samples(stack: GridStack, points: list[InventoryPoint], window: int,
                    what: str) -> np.ndarray:
    """Model inputs for the points, cut by the map's gather. Every point's
    cell must pass the same feasibility mask the map scores."""
    feasible = window_feasible_mask(stack, window)
    rows = np.empty(len(points), dtype=np.intp)
    cols = np.empty(len(points), dtype=np.intp)
    for i, pt in enumerate(points):
        cell = stack.header.cell_of(pt.x, pt.y)
        if cell is None or not feasible[cell]:
            raise StageError(f"{what}: sample point ({pt.x!r}, {pt.y!r}) is infeasible: "
                             f"its {window}x{window} window leaves the raster or "
                             "touches nodata")
        rows[i], cols[i] = cell
    return _gather_patches(stack, rows, cols, window)


def stage_diagnose(cfg: PipelineConfig) -> dict:
    sample_set = load_samples(cfg)
    lcf = load_stack(cfg, "lcf")
    embed = load_stack(cfg, "embed")

    train_pts = sample_set.subset("train")
    x_embed = _gather_samples(embed, train_pts, 1, "diagnose (embed)")
    std = fit_standardizer(x_embed)
    pca = pca_fit(x_embed, std)
    threshold = float(cfg["pca.threshold"])
    k = select_k(pca, threshold)
    model = with_k(pca, k)

    out = _stage_dir(cfg, "diagnose")
    curve_path = os.path.join(out, "pca_curve.csv")
    with open(curve_path, "w") as fh:
        fh.write("component,eigenvalue,cumulative_explained\n")
        for i, (ev, cum) in enumerate(zip(pca.eigenvalues, pca.cum_explained), start=1):
            fh.write(f"{i},{float(ev)!r},{float(cum)!r}\n")

    model_path = os.path.join(out, "pca_model.json")
    _write_json(model_path, model.to_dict())

    x_lcf = _gather_samples(lcf, train_pts, 1, "diagnose (lcf)")
    rep = collinearity(x_lcf, names=list(lcf.names))
    coll_csv = os.path.join(out, "collinearity.csv")
    rep.to_csv(coll_csv)
    coll_json = os.path.join(out, "collinearity.json")
    _write_json(coll_json, rep.to_dict())

    summary_path = os.path.join(out, "diagnose.json")
    _write_json(summary_path, {
        "pca": {"threshold": threshold, "k": k,
                "cumulative_at_k": model.cum_explained[k - 1],
                "n_train_vectors": int(x_embed.shape[0])},
        "collinearity": {
            "bands": list(lcf.names),
            "tolerance_flags": [bool(b) for b in rep.tolerance_ok],
            "vif_flags": [bool(b) for b in rep.vif_ok],
        },
    })
    log.info("diagnose: PCA keeps %d of %d components at %.2f threshold",
             k, len(pca.eigenvalues), threshold)
    inputs = [os.path.join(cfg.out_dir, "sample", "samples.csv")]
    return {"inputs": inputs,
            "outputs": [curve_path, model_path, coll_csv, coll_json, summary_path]}


def load_reducer(cfg: PipelineConfig) -> tuple[PcaModel, str]:
    path = os.path.join(cfg.out_dir, "diagnose", "pca_model.json")
    _require_artifact(path, "diagnose", "PCA model")
    return PcaModel.from_dict(_read_json(path)), _sha256(path)


def _cell_inputs(cfg: PipelineConfig, model: str, representation: str,
                 sample_set: SampleSet, stacks: dict,
                 reducer: PcaModel | None, part: str) -> tuple[np.ndarray, np.ndarray]:
    stack = stacks["lcf"] if representation == "lcf" else stacks["embed"]
    pts = sample_set.subset(part)
    window = 1 if model == "cnn1d" else int(cfg["sampling.window"])
    x = _gather_samples(stack, pts, window, cell_name(model, representation))
    if representation == "embed_pca":
        x = pca_transform_features(reducer, x)
    y = np.array([p.label for p in pts], dtype=np.float64)
    return x, y


def stage_train(cfg: PipelineConfig) -> dict:
    sample_set = load_samples(cfg)
    stacks = {"lcf": load_stack(cfg, "lcf"), "embed": load_stack(cfg, "embed")}
    reducer, pca_hash = load_reducer(cfg)

    window = int(cfg["sampling.window"])
    out = _stage_dir(cfg, "train")
    outputs = []
    summary = {}
    for model_name, rep in CELLS:
        x_train, y_train = _cell_inputs(cfg, model_name, rep, sample_set, stacks,
                                        reducer, "train")
        x_val, y_val = _cell_inputs(cfg, model_name, rep, sample_set, stacks,
                                    reducer, "validation")
        std = fit_standardizer(x_train.reshape(-1, x_train.shape[-1]))
        x_train = std.transform(x_train)
        x_val = std.transform(x_val)

        init_seed, shuffle_seed = _cell_seeds(cfg, model_name, rep)
        p = x_train.shape[-1]
        if model_name == "cnn1d":
            spec = build_cnn1d(p, seed=init_seed)
        elif model_name == "cnn2d":
            spec = build_cnn2d(window, window, p, seed=init_seed)
        else:
            spec = build_vit(window, window, p, seed=init_seed)

        t0 = time.perf_counter()
        ckpt = train(spec, x_train, y_train, x_val, y_val,
                     config=cfg.train_config(shuffle_seed),
                     standardizer=std,
                     pca_hash=pca_hash if rep == "embed_pca" else None)
        wall = time.perf_counter() - t0

        base = os.path.join(out, cell_name(model_name, rep))
        save_checkpoint(ckpt, base)
        outputs.extend([base + ".json", base + ".bin"])
        summary[cell_name(model_name, rep)] = {
            "best_epoch": ckpt.history["best_epoch"],
            "stopped_epoch": ckpt.history["stopped_epoch"],
            "best_val_loss": min(ckpt.history["val_loss"]),
            "n_params": int(ckpt.weights.size),
            "wall_clock_s": round(wall, 3),
        }
        log.info("train: %s best epoch %d of %d (%.1f s)",
                 cell_name(model_name, rep), ckpt.history["best_epoch"],
                 ckpt.history["stopped_epoch"], wall)
    summary_path = os.path.join(out, "train.json")
    _write_json(summary_path, summary)
    outputs.append(summary_path)
    inputs = [os.path.join(cfg.out_dir, "sample", "samples.csv"),
              os.path.join(cfg.out_dir, "diagnose", "pca_model.json")]
    return {"inputs": inputs, "outputs": outputs}


def _load_cell_checkpoint(cfg: PipelineConfig, model: str, rep: str):
    base = os.path.join(cfg.out_dir, "train", cell_name(model, rep))
    _require_artifact(base + ".json", "train", f"checkpoint {cell_name(model, rep)}")
    return load_checkpoint(base)


def stage_evaluate(cfg: PipelineConfig) -> dict:
    sample_set = load_samples(cfg)
    stacks = {"lcf": load_stack(cfg, "lcf"), "embed": load_stack(cfg, "embed")}
    reducer, pca_hash = load_reducer(cfg)
    threshold = float(cfg["eval.threshold"])

    out = _stage_dir(cfg, "evaluate")
    outputs = []
    inputs = [os.path.join(cfg.out_dir, "sample", "samples.csv")]
    for model_name, rep in CELLS:
        ckpt = _load_cell_checkpoint(cfg, model_name, rep)
        if rep == "embed_pca" and ckpt.pca_hash is not None and ckpt.pca_hash != pca_hash:
            raise StageError(
                f"checkpoint {cell_name(model_name, rep)} was trained against a "
                "different PCA model; re-run the 'train' stage")
        x_val, y_val = _cell_inputs(cfg, model_name, rep, sample_set, stacks,
                                    reducer if rep == "embed_pca" else None,
                                    "validation")
        y_hat = predict_batch(ckpt, x_val)
        report = evaluate(y_val, y_hat, threshold)
        name = cell_name(model_name, rep)
        metrics_path = os.path.join(out, f"{name}_metrics.json")
        with open(metrics_path, "w") as fh:
            fh.write(report.to_json())
        pred_path = os.path.join(out, f"{name}_predictions.csv")
        with open(pred_path, "w") as fh:
            fh.write("label,score\n")
            for yi, pi in zip(y_val, y_hat):
                fh.write(f"{int(yi)},{float(pi)!r}\n")
        roc_path = os.path.join(out, f"{name}_roc.csv")
        with open(roc_path, "w") as fh:
            fh.write(roc_to_csv(report.roc))
        svg_path = os.path.join(out, f"{name}_roc.svg")
        with open(svg_path, "w") as fh:
            fh.write(roc_svg(report.roc, report.auc))
        outputs.extend([metrics_path, pred_path, roc_path, svg_path])
        inputs.extend([os.path.join(cfg.out_dir, "train", name + ".json"),
                       os.path.join(cfg.out_dir, "train", name + ".bin")])
        log.info("evaluate: %s AUC %.4f F1 %s", name, report.auc,
                 "n/a" if report.f1 is None else f"{report.f1:.4f}")
    return {"inputs": inputs, "outputs": outputs}


def stage_map(cfg: PipelineConfig) -> dict:
    model_name = cfg["model"]
    rep = cfg["representation"]
    ckpt = _load_cell_checkpoint(cfg, model_name, rep)
    stack = load_stack(cfg, "lcf" if rep == "lcf" else "embed")
    reducer = None
    if rep == "embed_pca":
        reducer, pca_hash = load_reducer(cfg)
        if ckpt.pca_hash is not None and ckpt.pca_hash != pca_hash:
            raise StageError("checkpoint was trained against a different PCA "
                             "model; re-run the 'train' stage")

    scores = infer_raster(ckpt, stack, reducer=reducer)
    valid_scores = scores.values[scores.valid]
    n_classes = int(cfg["map.n_classes"])
    breaks = jenks_breaks(valid_scores, n_classes=n_classes,
                          cap=int(cfg["map.jenks_cap"]),
                          seed=int(cfg["sampling.seed"]))
    classes = classify(scores, breaks)

    sample_set = load_samples(cfg)
    slides = [p for p in sample_set.points if p.label == 1]
    occ = occupancy(classes, slides, n_classes=n_classes)

    map_dir = os.path.join(_stage_dir(cfg, "map"), cell_name(model_name, rep))
    breaks_meta = {
        "model": model_name,
        "representation": rep,
        "n_classes": n_classes,
        "breaks": breaks,
        "scored_cells": int(scores.valid.sum()),
        "jenks_cap": int(cfg["map.jenks_cap"]),
    }
    save_map(map_dir, scores, classes, breaks_meta, occ)
    outputs = [os.path.join(map_dir, f) for f in
               ("scores.asc", "classes.asc", "breaks.json",
                "occupancy.json", "occupancy.csv")]
    name = cell_name(model_name, rep)
    inputs = [os.path.join(cfg.out_dir, "train", name + ".json"),
              os.path.join(cfg.out_dir, "train", name + ".bin"),
              os.path.join(cfg.out_dir, "sample", "samples.csv")]
    log.info("map: %s scored %d cells, breaks %s", name,
             breaks_meta["scored_cells"], [round(b, 4) for b in breaks])
    return {"inputs": inputs, "outputs": outputs}


METRIC_COLUMNS = ("accuracy", "precision", "recall", "specificity",
                  "f1", "auc", "mae", "rmse")


def compare_representations(reports: dict) -> dict:
    """Per-model deltas of embed_pca and embed_full over the lcf baseline.

    ``reports`` maps (model, representation) to a metric dict holding at
    least f1 and auc. Requires the full matrix.
    """
    missing = [cell_name(m, r) for m, r in CELLS if (m, r) not in reports]
    if missing:
        raise ValueError(f"incomplete matrix: missing {', '.join(missing)}")
    deltas = {}
    for model_name in MODELS:
        base = reports[(model_name, "lcf")]
        deltas[model_name] = {}
        for rep in ("embed_pca", "embed_full"):
            cell = reports[(model_name, rep)]
            d_f1 = (None if base["f1"] is None or cell["f1"] is None
                    else cell["f1"] - base["f1"])
            deltas[model_name][rep] = {
                "delta_f1": d_f1,
                "delta_auc": cell["auc"] - base["auc"],
            }
    return deltas


def stage_report(cfg: PipelineConfig) -> dict:
    eval_dir = os.path.join(cfg.out_dir, "evaluate")
    reports = {}
    inputs = []
    for model_name, rep in CELLS:
        path = os.path.join(eval_dir, f"{cell_name(model_name, rep)}_metrics.json")
        _require_artifact(path, "evaluate", f"metrics for {cell_name(model_name, rep)}")
        reports[(model_name, rep)] = _read_json(path)
        inputs.append(path)

    out = _stage_dir(cfg, "report")
    comparison_csv = os.path.join(out, "comparison.csv")
    with open(comparison_csv, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("model", "representation") + METRIC_COLUMNS)
        for model_name, rep in CELLS:
            doc = reports[(model_name, rep)]
            row = [model_name, rep]
            for col in METRIC_COLUMNS:
                v = doc[col]
                row.append("" if v is None else repr(v))
            writer.writerow(row)

    comparison_json = os.path.join(out, "comparison.json")
    _write_json(comparison_json, [
        {"model": m, "representation": r,
         **{c: reports[(m, r)][c] for c in METRIC_COLUMNS}}
        for m, r in CELLS
    ])

    deltas = compare_representations(reports)
    deltas_json = os.path.join(out, "deltas.json")
    _write_json(deltas_json, deltas)
    deltas_csv = os.path.join(out, "deltas.csv")
    with open(deltas_csv, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("model", "representation", "delta_f1", "delta_auc"))
        for model_name in MODELS:
            for rep in ("embed_pca", "embed_full"):
                d = deltas[model_name][rep]
                writer.writerow((model_name, rep,
                                 "" if d["delta_f1"] is None else repr(d["delta_f1"]),
                                 repr(d["delta_auc"])))

    occupancy_csv = os.path.join(out, "occupancy_table.csv")
    map_dir = os.path.join(cfg.out_dir, "map")
    rows = []
    if os.path.isdir(map_dir):
        for entry in sorted(os.listdir(map_dir)):
            occ_path = os.path.join(map_dir, entry, "occupancy.json")
            if not os.path.exists(occ_path):
                continue
            inputs.append(occ_path)
            doc = _read_json(occ_path)
            for cls in sorted(doc["counts"], key=int):
                rows.append((entry, cls, doc["counts"][cls], doc["percent"][cls]))
            rows.append((entry, "unclassified", doc["unclassified"], ""))
    with open(occupancy_csv, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("map", "class", "count", "percent"))
        for row in rows:
            writer.writerow([str(v) for v in row])

    log.info("report: %d metric rows, %d occupancy rows", len(CELLS), len(rows))
    return {"inputs": inputs,
            "outputs": [comparison_csv, comparison_json, deltas_json,
                        deltas_csv, occupancy_csv]}


_STAGE_FUNCS = {
    "synth": stage_synth,
    "ingest": stage_ingest,
    "sample": stage_sample,
    "diagnose": stage_diagnose,
    "train": stage_train,
    "evaluate": stage_evaluate,
    "map": stage_map,
    "report": stage_report,
}


def run_stage(stage: str, cfg: PipelineConfig) -> dict:
    """Execute one stage, then record hashes, versions, and wall clock in the
    run manifest. Returns the manifest entry."""
    if stage not in _STAGE_FUNCS:
        raise ConfigError(f"unknown stage {stage!r}; expected one of {STAGES}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(os.path.join(cfg.out_dir, "config_echo.json"), cfg.echo())

    t0 = time.perf_counter()
    artifacts = _STAGE_FUNCS[stage](cfg)
    wall = time.perf_counter() - t0

    entry = {
        "wall_clock_s": round(wall, 3),
        "inputs": {os.path.relpath(p, cfg.out_dir) if p.startswith(cfg.out_dir) else p:
                   _sha256(p) for p in sorted(set(artifacts["inputs"]))},
        "outputs": {os.path.relpath(p, cfg.out_dir): _sha256(p)
                    for p in sorted(set(artifacts["outputs"]))},
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "lsm": lsm.__version__,
        },
    }
    manifest_path = os.path.join(cfg.out_dir, "run_manifest.json")
    manifest = _read_json(manifest_path) if os.path.exists(manifest_path) else {"stages": {}}
    manifest["config"] = cfg.echo()
    manifest["stages"][stage] = entry
    _write_json(manifest_path, manifest)
    log.info("%s: done in %.2f s (%d outputs)", stage, wall, len(entry["outputs"]))
    return entry
