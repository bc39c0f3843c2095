"""Output checks that do not trust the program's own arithmetic.

Every check recomputes its expectation from the artifacts with code of its
own (numpy's ``loadtxt``, ``linalg.eigh`` and ``lstsq``, brute-force
distances, pair counts) or tests a property the method must have. None of
them compares against a stored copy of earlier output. Where a check needs
the program to produce a number (``predict_batch`` on a checkpoint), it
feeds the program inputs gathered by a different path than the stage used.

A check raises ``CheckFailed`` with a message naming what disagreed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from functools import cached_property

import numpy as np

from lsm.grid import GridHeader, GridStack
from lsm.nn.checkpoint import load_checkpoint, predict_batch
from lsm.reduce import PcaModel, pca_transform_features
from lsm.sampling import InventoryPoint, extract_patch, extract_vector

MODELS = ("cnn1d", "cnn2d", "vit")
REPRESENTATIONS = ("lcf", "embed_pca", "embed_full")
CELLS = tuple(f"{m}_{r}" for m in MODELS for r in REPRESENTATIONS)
ORACLE_AUC_FLOOR = 0.95
NULL_PERMUTATIONS = 20


class CheckFailed(AssertionError):
    """An artifact disagrees with the benchmark's own computation."""


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def read_grid(path: str) -> tuple[dict, np.ndarray]:
    """ESRI ASCII grid: six ``key value`` lines, then rows of values."""
    header = {}
    with open(path) as fh:
        for _ in range(6):
            key, value = fh.readline().split()
            header[key.lower()] = float(value)
    values = np.loadtxt(path, skiprows=6, ndmin=2, dtype=np.float64)
    require(values.shape == (int(header["nrows"]), int(header["ncols"])),
            f"{path}: body shape {values.shape} does not match its header")
    return header, values


def cell_of(header: dict, x: float, y: float) -> tuple[int, int]:
    col = math.floor((x - header["xllcorner"]) / header["cellsize"])
    row = int(header["nrows"]) - 1 - math.floor((y - header["yllcorner"]) / header["cellsize"])
    return row, col


def mann_whitney_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (pos.size * neg.size)


def within_class_ssq(values: np.ndarray, breaks) -> float:
    """Sum of squared deviations from the class means; class c holds
    breaks[c-2] < v <= breaks[c-1]."""
    edges = [-np.inf] + [float(b) for b in breaks] + [np.inf]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        seg = values[(values > lo) & (values <= hi)]
        if seg.size:
            total += float(((seg - seg.mean()) ** 2).sum())
    return total


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class RunView:
    """Lazy, benchmark-side reading of one run directory.

    ``cfg`` is the full config the stages ran with; ``scene_dir`` holds the
    generated inputs (``scene.json``, manifests, band files, inventory).
    """

    def __init__(self, out_dir: str, scene_dir: str, cfg: dict):
        self.out = out_dir
        self.scene = scene_dir
        self.cfg = cfg

    def path(self, *parts) -> str:
        return os.path.join(self.out, *parts)

    def _ingested(self, key: str) -> tuple[dict, list[str], np.ndarray]:
        listing = read_json(self.path("ingest", f"stack_{key}.json"))["bands"]
        header, arrays = None, []
        for entry in listing:
            header, values = read_grid(self.path("ingest", entry["path"]))
            arrays.append(values)
        return header, [e["name"] for e in listing], np.stack(arrays)

    @cached_property
    def lcf(self):
        return self._ingested("lcf")

    @cached_property
    def embed(self):
        return self._ingested("embed")

    def stack(self, rep: str):
        return self.lcf if rep == "lcf" else self.embed

    @cached_property
    def samples(self) -> list[tuple[float, float, int, str]]:
        with open(self.path("sample", "samples.csv"), newline="") as fh:
            return [(float(r["x"]), float(r["y"]), int(r["label"]), r["split"])
                    for r in csv.DictReader(fh)]

    def part(self, split: str):
        return [s for s in self.samples if s[3] == split]

    @cached_property
    def pca(self) -> dict:
        return read_json(self.path("diagnose", "pca_model.json"))

    def inputs(self, cell: str, points) -> np.ndarray:
        """Model inputs for the points, gathered by direct indexing of the
        benchmark's own band arrays (not the program's extractors)."""
        model, rep = cell.split("_", 1)
        header, _, data = self.stack(rep)
        half = int(self.cfg["sampling"]["window"]) // 2
        rows = []
        for x, y, *_ in points:
            r, c = cell_of(header, x, y)
            if model == "cnn1d":
                rows.append(data[:, r, c])
            else:
                block = data[:, r - half:r + half + 1, c - half:c + half + 1]
                rows.append(np.moveaxis(block, 0, -1))
        x = np.stack(rows)
        if rep == "embed_pca":
            std = self.pca["standardizer"]
            proj = np.array(self.pca["projection"])[:, : int(self.pca["k"])]
            x = ((x - np.array(std["mean"])) / np.array(std["std"])) @ proj
        return x

    @cached_property
    def val_probs(self) -> dict[str, np.ndarray]:
        """Each checkpoint's probabilities on the validation points, from
        inputs the benchmark gathered itself."""
        val = self.part("validation")
        return {cell: predict_batch(_load(self, cell), self.inputs(cell, val))
                for cell in CELLS}

    def predictions(self, cell: str) -> tuple[np.ndarray, np.ndarray]:
        with open(self.path("evaluate", f"{cell}_predictions.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        return (np.array([int(r["label"]) for r in rows]),
                np.array([float(r["score"]) for r in rows]))

    @property
    def map_cell(self) -> str:
        return f"{self.cfg['model']}_{self.cfg['representation']}"


# ---------------------------------------------------------------- setup


def check_setup_oracle(v: RunView) -> None:
    auc = read_json(os.path.join(v.scene, "scene.json"))["oracle_auc"]
    require(auc >= ORACLE_AUC_FLOOR, f"scene oracle AUC {auc} below {ORACLE_AUC_FLOOR}")


# ---------------------------------------------------------------- ingest


def check_ingest_bands(v: RunView) -> None:
    for key, (header, names, data) in (("lcf", v.lcf), ("embed", v.embed)):
        manifest = read_json(os.path.join(v.scene, f"{key}_manifest.json"))
        require([e["name"] for e in manifest] == names,
                f"ingest {key}: band list differs from the scene manifest")
        for entry, band in zip(manifest, data):
            s_header, s_values = read_grid(os.path.join(v.scene, entry["path"]))
            require(s_header == header, f"ingest {key}/{entry['name']}: header differs")
            require(np.array_equal(s_values, band),
                    f"ingest {key}/{entry['name']}: values differ from the scene band")


# ---------------------------------------------------------------- sample


def check_sample_balanced(v: RunView) -> None:
    for split in ("train", "validation"):
        labels = [s[2] for s in v.part(split)]
        pos, neg = labels.count(1), labels.count(0)
        require(pos > 0 and pos == neg,
                f"{split} split is not 1:1 ({pos} positives, {neg} negatives)")
    require(len(v.part("train")) + len(v.part("validation")) == len(v.samples),
            "samples carry a split other than train/validation")


def check_sample_buffer(v: RunView) -> None:
    buffer_m = float(v.cfg["sampling"]["buffer_m"])
    pos = np.array([(s[0], s[1]) for s in v.samples if s[2] == 1])
    neg = np.array([(s[0], s[1]) for s in v.samples if s[2] == 0])
    for nx, ny in neg:
        for px, py in pos:
            d = math.hypot(nx - px, ny - py)
            require(d >= buffer_m,
                    f"negative ({nx}, {ny}) lies {d:.1f} m from positive "
                    f"({px}, {py}), inside the {buffer_m} m buffer")


def check_sample_windows(v: RunView) -> None:
    half = int(v.cfg["sampling"]["window"]) // 2
    for header, _, data in (v.lcf, v.embed):
        nrows, ncols = data.shape[1:]
        for x, y, label, _ in v.samples:
            r, c = cell_of(header, x, y)
            inside = half <= r < nrows - half and half <= c < ncols - half
            require(inside, f"sample ({x}, {y}): window leaves the grid")
            block = data[:, r - half:r + half + 1, c - half:c + half + 1]
            require((block != header["nodata_value"]).all(),
                    f"sample ({x}, {y}): window touches nodata")


# ---------------------------------------------------------------- diagnose


def _train_matrix(v: RunView, rep: str) -> np.ndarray:
    header, _, data = v.stack(rep)
    cells = [cell_of(header, x, y) for x, y, *_ in v.part("train")]
    return np.array([data[:, r, c] for r, c in cells])


def _eigh_desc(v: RunView) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = _train_matrix(v, "embed")
    mean, std = x.mean(axis=0), x.std(axis=0, ddof=1)
    xs = (x - mean) / std
    cov = xs.T @ xs / (x.shape[0] - 1)
    w, vecs = np.linalg.eigh(cov)
    return cov, w[::-1], vecs[:, ::-1]


def check_diagnose_pca(v: RunView) -> None:
    cov, w, vecs = _eigh_desc(v)
    got_w = np.array(v.pca["eigenvalues"])
    proj = np.array(v.pca["projection"])
    scale = max(1.0, float(w[0]))
    require(got_w.shape == w.shape, "PCA eigenvalue count differs from the band count")
    require(np.allclose(got_w, np.maximum(w, 0.0), rtol=0, atol=1e-9 * scale),
            f"PCA eigenvalues differ from eigh by {np.abs(got_w - w).max():.3g}")
    resid = np.abs(cov @ proj - proj * got_w).max()
    require(resid <= 1e-8 * scale, f"PCA eigenvector residual |Cv - lv| = {resid:.3g}")
    ortho = np.abs(proj.T @ proj - np.eye(proj.shape[1])).max()
    require(ortho <= 1e-9, f"PCA components not orthonormal ({ortho:.3g})")
    gaps = np.minimum(np.abs(np.diff(w, prepend=np.inf)), np.abs(np.diff(w, append=-np.inf)))
    for j in np.nonzero(gaps > 1e-3 * scale)[0]:
        align = abs(float(proj[:, j] @ vecs[:, j]))
        require(align >= 1.0 - 1e-6, f"PCA component {j + 1} differs from eigh's ({align})")


def check_diagnose_k(v: RunView) -> None:
    _, w, _ = _eigh_desc(v)
    threshold = float(v.cfg["pca"]["threshold"])
    cum = np.cumsum(w) / w.sum()
    k = int(np.argmax(cum >= threshold)) + 1
    summary = read_json(v.path("diagnose", "diagnose.json"))["pca"]
    require(summary["k"] == k and int(v.pca["k"]) == k,
            f"PCA keeps {summary['k']} components, the {threshold} threshold needs {k}")


def check_diagnose_vif(v: RunView) -> None:
    x = _train_matrix(v, "lcf")
    got = np.array(read_json(v.path("diagnose", "collinearity.json"))["vif"])
    n, p = x.shape
    for i in range(p):
        a = np.column_stack([np.ones(n), np.delete(x, i, axis=1)])
        beta = np.linalg.lstsq(a, x[:, i], rcond=None)[0]
        resid = x[:, i] - a @ beta
        yc = x[:, i] - x[:, i].mean()
        r2 = 1.0 - float(resid @ resid) / float(yc @ yc)
        vif = 1.0 / (1.0 - r2)
        require(math.isclose(got[i], vif, rel_tol=1e-6),
                f"VIF of band {i}: reported {got[i]}, lstsq gives {vif}")


# ---------------------------------------------------------------- train


def _load(v: RunView, cell: str):
    try:
        return load_checkpoint(v.path("train", cell))
    except (OSError, ValueError, KeyError) as e:
        raise CheckFailed(f"checkpoint {cell} does not load: {e}") from None


def check_train_checkpoints(v: RunView) -> None:
    for cell in CELLS:
        doc = read_json(v.path("train", cell + ".json"))
        bin_path = v.path("train", cell + ".bin")
        require(sha256_file(bin_path) == doc["bin_sha256"], f"{cell}.bin: hash mismatch")
        require(os.path.getsize(bin_path) == 5 + 4 * int(doc["weight_count"]),
                f"{cell}.bin: size does not match its weight count")
        _load(v, cell)


def check_train_history(v: RunView) -> None:
    epochs = int(v.cfg["training"]["max_epochs"])
    for cell in CELLS:
        h = read_json(v.path("train", cell + ".json"))["history"]
        require(len(h["train_loss"]) == epochs and len(h["val_loss"]) == epochs
                and h["stopped_epoch"] == epochs,
                f"{cell}: history holds {len(h['val_loss'])} epochs, configured {epochs}")
        losses = np.array(h["train_loss"] + h["val_loss"], dtype=np.float64)
        require(np.isfinite(losses).all(), f"{cell}: non-finite loss in history")
        best = int(h["best_epoch"])
        require(1 <= best <= epochs and h["val_loss"][best - 1] == min(h["val_loss"]),
                f"{cell}: best epoch {best} is not the first validation minimum")


# Weights are stored as float32: a relative change near 6e-8 per weight
# moves a mean BCE of order 1 by well under 1e-4.
BCE_TOL = 1e-4


def check_train_val_bce(v: RunView) -> None:
    val = v.part("validation")
    y = np.array([s[2] for s in val], dtype=np.float64)
    for cell in CELLS:
        p = v.val_probs[cell]
        bce = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
        h = _load(v, cell).history
        want = h["val_loss"][int(h["best_epoch"]) - 1]
        require(abs(bce - want) <= BCE_TOL,
                f"{cell}: validation BCE from the checkpoint is {bce}, history says {want}")


# ---------------------------------------------------------------- evaluate


def check_evaluate_predictions(v: RunView) -> None:
    """The evaluate stage scored the validation points the benchmark
    gathers itself, in samples.csv order."""
    val = v.part("validation")
    y = np.array([s[2] for s in val])
    for cell in CELLS:
        labels, scores = v.predictions(cell)
        require(np.array_equal(labels, y), f"{cell}: prediction labels differ from samples.csv")
        require(np.abs(v.val_probs[cell] - scores).max() <= 1e-12,
                f"{cell}: predictions differ from the checkpoint on the validation points")


def check_evaluate_auc(v: RunView) -> None:
    for cell in CELLS:
        labels, scores = v.predictions(cell)
        got = read_json(v.path("evaluate", f"{cell}_metrics.json"))["auc"]
        want = mann_whitney_auc(labels, scores)
        require(abs(got - want) <= 1e-12, f"{cell}: AUC {got}, Mann-Whitney count {want}")


def check_evaluate_confusion(v: RunView) -> None:
    threshold = float(v.cfg["eval"]["threshold"])
    for cell in CELLS:
        labels, scores = v.predictions(cell)
        m = read_json(v.path("evaluate", f"{cell}_metrics.json"))
        c = m["counts"]
        require(c["tp"] + c["fp"] + c["fn"] + c["tn"] == m["n"] == labels.size,
                f"{cell}: confusion counts do not sum to n")
        pred = scores >= threshold
        tp, fp = int((pred & (labels == 1)).sum()), int((pred & (labels == 0)).sum())
        fn, tn = int((~pred & (labels == 1)).sum()), int((~pred & (labels == 0)).sum())
        want = {"tp": tp, "fp": fp, "fn": fn, "tn": tn}
        require(c == want, f"{cell}: confusion counts {c}, predictions give {want}")
        p = tp / (tp + fp) if tp + fp else None
        r = tp / (tp + fn) if tp + fn else None
        f1 = 2 * p * r / (p + r) if p is not None and r is not None and p + r else None
        for name, value in (("precision", p), ("recall", r), ("f1", f1)):
            got = m[name]
            same = (got is None and value is None) or (
                got is not None and value is not None and abs(got - value) <= 1e-12)
            require(same, f"{cell}: {name} {got}, counts give {value}")


# ---------------------------------------------------------------- map


def _map_grids(v: RunView):
    d = v.path("map", v.map_cell)
    return read_grid(os.path.join(d, "scores.asc")), read_grid(os.path.join(d, "classes.asc"))


def check_map_points(v: RunView) -> None:
    """Raster scores (vectorised gather) equal per-point scores from the
    program's extract_patch/extract_vector path."""
    (header, scores), _ = _map_grids(v)
    model, rep = v.map_cell.split("_", 1)
    h, names, data = v.stack(rep)
    stack = GridStack(GridHeader(int(h["ncols"]), int(h["nrows"]), h["xllcorner"],
                                 h["yllcorner"], h["cellsize"], h["nodata_value"]),
                      tuple(names), data)
    pts = [InventoryPoint(x, y, label) for x, y, label, _ in v.samples]
    if model == "cnn1d":
        x = np.stack([extract_vector(stack, p) for p in pts])
    else:
        window = int(v.cfg["sampling"]["window"])
        x = np.stack([extract_patch(stack, p, window) for p in pts])
    if rep == "embed_pca":
        x = pca_transform_features(PcaModel.from_dict(v.pca), x)
    probs = predict_batch(_load(v, v.map_cell), x)
    for p, prob in zip(pts, probs):
        r, c = cell_of(header, p.x, p.y)
        require(abs(scores[r, c] - prob) <= 1e-12,
                f"map score at ({p.x}, {p.y}) is {scores[r, c]}, per-point path gives {prob}")


def check_map_class_order(v: RunView) -> None:
    (h, scores), (_, classes) = _map_grids(v)
    s_valid = scores != h["nodata_value"]
    require(np.array_equal(s_valid, classes != h["nodata_value"]),
            "scores and classes disagree on which cells are mapped")
    sv, cv = scores[s_valid], classes[s_valid]
    levels = np.unique(cv)
    n_classes = int(v.cfg["map"]["n_classes"])
    require(set(levels) <= set(range(1, n_classes + 1)), f"unexpected class values {levels}")
    for lo, hi in zip(levels, levels[1:]):
        require(sv[cv == lo].max() <= sv[cv == hi].min(),
                f"class {lo} holds a higher score than class {hi}")


def check_map_occupancy(v: RunView) -> None:
    _, (h, classes) = _map_grids(v)
    occ = read_json(v.path("map", v.map_cell, "occupancy.json"))
    report = read_json(v.path("sample", "sampling.json"))["load_report"]
    with open(os.path.join(v.scene, "inventory.csv")) as fh:
        inventory_rows = sum(1 for line in fh) - 1
    require(report["loaded"] + report["dropped_outside"] + report["merged_duplicates"]
            == inventory_rows, "sampling load report does not account for the inventory")
    counts = {str(c): 0 for c in range(1, int(v.cfg["map"]["n_classes"]) + 1)}
    unclassified = 0
    positives = [s for s in v.samples if s[2] == 1]
    for x, y, *_ in positives:
        r, c = cell_of(h, x, y)
        if classes[r, c] == h["nodata_value"]:
            unclassified += 1
        else:
            counts[str(int(classes[r, c]))] += 1
    require(occ["total"] == report["loaded"] == len(positives),
            f"occupancy covers {occ['total']} landslides, inventory has {report['loaded']}")
    require(sum(occ["counts"].values()) + occ["unclassified"] == occ["total"],
            "occupancy counts plus unclassified do not equal the inventory size")
    require(occ["counts"] == counts and occ["unclassified"] == unclassified,
            f"occupancy {occ['counts']} differs from the class raster's {counts}")


def check_map_jenks(v: RunView) -> None:
    """Jenks breaks fit the values no worse than quintile breaks do. Values
    are the ones Jenks saw: the mapped scores in row-major order, reduced
    to the documented seeded subsample when above the cap."""
    (h, scores), _ = _map_grids(v)
    values = scores[scores != h["nodata_value"]]
    cap = int(v.cfg["map"]["jenks_cap"])
    if values.size > cap:
        keep = np.random.default_rng(int(v.cfg["sampling"]["seed"])).choice(
            values.size, size=cap, replace=False)
        values = values[keep]
    breaks = read_json(v.path("map", v.map_cell, "breaks.json"))["breaks"]
    n_classes = int(v.cfg["map"]["n_classes"])
    require(len(breaks) == n_classes - 1, f"{len(breaks)} breaks for {n_classes} classes")
    quantile = np.quantile(values, np.arange(1, n_classes) / n_classes)
    jenks_ssq = within_class_ssq(values, breaks)
    quant_ssq = within_class_ssq(values, quantile)
    require(jenks_ssq <= quant_ssq * (1 + 1e-12),
            f"Jenks within-class SSQ {jenks_ssq} exceeds quantile breaks' {quant_ssq}")


# ---------------------------------------------------------------- report


METRIC_COLUMNS = ("accuracy", "precision", "recall", "specificity", "f1", "auc", "mae", "rmse")


def check_report(v: RunView) -> None:
    metrics = {c: read_json(v.path("evaluate", f"{c}_metrics.json")) for c in CELLS}
    with open(v.path("report", "comparison.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    require([f"{r['model']}_{r['representation']}" for r in rows] == list(CELLS),
            "comparison.csv does not list the nine cells in matrix order")
    for row in rows:
        m = metrics[f"{row['model']}_{row['representation']}"]
        for col in METRIC_COLUMNS:
            want = "" if m[col] is None else repr(m[col])
            require(row[col] == want, f"comparison.csv {row['model']}_{row['representation']} "
                                      f"{col}: {row[col]!r}, metrics say {want!r}")
    deltas = read_json(v.path("report", "deltas.json"))
    for model in MODELS:
        base = metrics[f"{model}_lcf"]
        for rep in ("embed_pca", "embed_full"):
            cell = metrics[f"{model}_{rep}"]
            d = deltas[model][rep]
            require(d["delta_auc"] == cell["auc"] - base["auc"],
                    f"deltas {model}/{rep}: delta_auc {d['delta_auc']}")
            want_f1 = (None if cell["f1"] is None or base["f1"] is None
                       else cell["f1"] - base["f1"])
            require(d["delta_f1"] == want_f1, f"deltas {model}/{rep}: delta_f1 {d['delta_f1']}")


# ---------------------------------------------------------------- matrix


def check_matrix_beats_null(v: RunView) -> None:
    """Each cell's AUC clears 0.5 + 3 sd of AUCs under permuted labels."""
    for idx, cell in enumerate(CELLS):
        labels, scores = v.predictions(cell)
        observed = mann_whitney_auc(labels, scores)
        rng = np.random.default_rng(9000 + idx)
        null = [mann_whitney_auc(rng.permutation(labels), scores)
                for _ in range(NULL_PERMUTATIONS)]
        bar = 0.5 + 3.0 * float(np.std(null))
        require(observed > bar, f"{cell}: AUC {observed:.4f} does not beat the null bar {bar:.4f}")


def check_matrix_embed_full(v: RunView) -> None:
    """The scene plants embeddings as the stronger signal."""
    aucs = {c: mann_whitney_auc(*v.predictions(c)) for c in CELLS}
    wins = sum(aucs[f"{m}_embed_full"] >= aucs[f"{m}_lcf"] for m in MODELS)
    require(wins >= 2, f"embed_full >= lcf in only {wins} of 3 models")


STAGE_CHECKS = {
    "ingest": (check_ingest_bands,),
    "sample": (check_sample_balanced, check_sample_buffer, check_sample_windows),
    "diagnose": (check_diagnose_pca, check_diagnose_k, check_diagnose_vif),
    "train": (check_train_checkpoints, check_train_history, check_train_val_bce),
    "evaluate": (check_evaluate_predictions, check_evaluate_auc, check_evaluate_confusion),
    "map": (check_map_points, check_map_class_order, check_map_occupancy, check_map_jenks),
    "report": (check_report,),
}
MATRIX_CHECKS = (check_matrix_beats_null, check_matrix_embed_full)


def run_checks(v: RunView, matrix: bool) -> list[str]:
    """Every check of a finished run directory; returns the failure messages."""
    checks = [check_setup_oracle]
    for fns in STAGE_CHECKS.values():
        checks.extend(fns)
    if matrix:
        checks.extend(MATRIX_CHECKS)
    failures = []
    for check in checks:
        try:
            check(v)
        except CheckFailed as e:
            failures.append(f"{check.__name__}: {e}")
    return failures
