"""Full-raster susceptibility inference and map classification.

``_gather_patches`` is the one place model inputs are cut from a stack:
band vectors for window 1, centered square patches otherwise. Inference
uses it over every feasible cell, and the pipeline uses it over the sample
points for diagnose, train and evaluate, so a sample is built the same way
in every stage. Classification uses exact Fisher-Jenks natural breaks with
an upper-bound-inclusive boundary rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lsm.grid import Grid, GridStack, write_ascii_grid
from lsm.nn.checkpoint import Checkpoint, PREDICT_BATCH, predict_batch
from lsm.reduce import PcaModel, pca_transform_features
from lsm.sampling import window_feasible_mask

JENKS_CAP = 10000
N_CLASSES = 5


def _gather_patches(stack: GridStack, rows: np.ndarray, cols: np.ndarray,
                    window: int) -> np.ndarray:
    """Model inputs centered on the given cells: (n, bands) band vectors
    for window 1, else (n, window, window, bands) patches. The caller
    guarantees that every cell passes ``window_feasible_mask``."""
    if window == 1:
        return np.ascontiguousarray(stack.data[:, rows, cols].T)
    k = window // 2
    view = np.lib.stride_tricks.sliding_window_view(
        stack.data, (window, window), axis=(1, 2))
    patches = view[:, rows - k, cols - k, :, :]        # (bands, n, win, win)
    return np.ascontiguousarray(np.transpose(patches, (1, 2, 3, 0)))


def infer_raster(ckpt: Checkpoint, stack: GridStack,
                 reducer: PcaModel | None = None) -> Grid:
    """Score every feasible cell of the stack; all other cells are nodata.

    Vector models score every all-bands-valid cell; patch models score the
    cells whose full window is in bounds and valid. Cells are processed in
    row-major order in fixed batches of ``PREDICT_BATCH``.
    """
    spec = ckpt.spec
    if ckpt.pca_hash is not None and reducer is None:
        raise ValueError("checkpoint references a PCA reducer; none was provided")
    if len(spec.input_shape) == 1:
        window, p_model = 1, spec.input_shape[0]
    else:
        h, w, p_model = spec.input_shape
        if h != w or h % 2 == 0:
            raise ValueError(f"patch models need a square odd window, got {h}x{w}")
        window = h
    n_bands = stack.data.shape[0]
    if reducer is not None:
        if reducer.projection.shape[0] != n_bands:
            raise ValueError(f"band-count mismatch: stack has {n_bands} bands, "
                             f"reducer expects {reducer.projection.shape[0]}")
        if reducer.k != p_model:
            raise ValueError(f"band-count mismatch: reducer keeps {reducer.k} "
                             f"components, model expects {p_model}")
    elif n_bands != p_model:
        raise ValueError(f"band-count mismatch: stack has {n_bands} bands, "
                         f"model expects {p_model}")

    rows, cols = np.nonzero(window_feasible_mask(stack, window))
    scores = np.full(stack.data.shape[1:], stack.header.nodata_value)
    for start in range(0, rows.size, PREDICT_BATCH):
        r, c = rows[start : start + PREDICT_BATCH], cols[start : start + PREDICT_BATCH]
        x = _gather_patches(stack, r, c, window)
        if reducer is not None:
            x = pca_transform_features(reducer, x)
        scores[r, c] = predict_batch(ckpt, x)
    return Grid(header=stack.header, values=scores)


def _segment_cost(s1: np.ndarray, s2: np.ndarray, i, j):
    """Within-segment sum of squared deviations for sorted values v[i..j]
    (inclusive), from prefix sums; i may be an array."""
    length = j + 1 - i
    a = s1[j + 1] - s1[i]
    b = s2[j + 1] - s2[i]
    return b - a * a / length


def jenks_breaks(values, n_classes: int = N_CLASSES, cap: int = JENKS_CAP,
                 seed: int = 0) -> list[float]:
    """Exact Fisher-Jenks natural breaks: the n_classes-1 class upper
    boundaries minimizing total within-class sum of squared deviations.

    Inputs larger than ``cap`` are first reduced to a seeded uniform
    subsample of that size. Dynamic programming over the sorted values;
    ties in the objective resolve to the smallest start index.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    if not np.isfinite(v).all():
        raise ValueError("values contain non-finite entries")
    if v.size > cap:
        keep = np.random.default_rng(seed).choice(v.size, size=cap, replace=False)
        v = v[keep]
    v = np.sort(v)
    n = v.size
    if n_classes == 1:
        if n == 0:
            raise ValueError("no values to classify")
        return []
    n_distinct = np.unique(v).size
    if n_distinct < n_classes:
        raise ValueError(f"need at least {n_classes} distinct values, "
                         f"have {n_distinct}")
    s1 = np.concatenate([[0.0], np.cumsum(v)])
    s2 = np.concatenate([[0.0], np.cumsum(v * v)])
    # best[j] = optimal cost of splitting v[0..j] into the current number of
    # classes; start[k][j] = first index of the last class in that optimum
    best = _segment_cost(s1, s2, 0, np.arange(n))
    starts = np.zeros((n_classes, n), dtype=np.int64)
    for k in range(1, n_classes):
        nxt = np.full(n, np.inf)
        for j in range(k, n):
            i = np.arange(k, j + 1)
            cand = best[i - 1] + _segment_cost(s1, s2, i, j)
            m = int(np.argmin(cand))
            nxt[j] = cand[m]
            starts[k, j] = k + m
        best = nxt
    breaks = []
    j = n - 1
    for k in range(n_classes - 1, 0, -1):
        i = int(starts[k, j])
        breaks.append(float(v[i - 1]))
        j = i - 1
    return breaks[::-1]


def jenks_cost(values, breaks) -> float:
    """Total within-class sum of squared deviations under the given breaks
    (upper-bound-inclusive); used to audit break quality."""
    v = np.sort(np.asarray(values, dtype=np.float64).reshape(-1))
    edges = [-np.inf] + list(breaks) + [np.inf]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        seg = v[(v > lo) & (v <= hi)]
        if seg.size:
            total += float(((seg - seg.mean()) ** 2).sum())
    return total


def classify(scores: Grid, breaks) -> Grid:
    """Class raster 1..n from the score raster: class c covers
    breaks[c-2] < value <= breaks[c-1], so a value exactly on a break
    belongs to the lower class. Nodata passes through."""
    b = np.asarray(breaks, dtype=np.float64).reshape(-1)
    if b.size and np.any(np.diff(b) <= 0):
        raise ValueError("breaks must be strictly ascending")
    valid = scores.valid
    values = np.full_like(scores.values, scores.header.nodata_value)
    values[valid] = np.searchsorted(b, scores.values[valid], side="left") + 1.0
    return Grid(header=scores.header, values=values)


@dataclass
class OccupancyReport:
    counts: dict[int, int]
    unclassified: int
    total: int

    @property
    def percent(self) -> dict[int, float]:
        classified = sum(self.counts.values())
        if classified == 0:
            return {c: 0.0 for c in self.counts}
        return {c: 100.0 * n / classified for c, n in self.counts.items()}

    def to_dict(self) -> dict:
        return {
            "counts": {str(c): n for c, n in sorted(self.counts.items())},
            "percent": {str(c): p for c, p in sorted(self.percent.items())},
            "unclassified": self.unclassified,
            "total": self.total,
        }

    def to_csv(self) -> str:
        lines = ["class,count,percent"]
        pct = self.percent
        for c in sorted(self.counts):
            lines.append(f"{c},{self.counts[c]},{pct[c]!r}")
        lines.append(f"unclassified,{self.unclassified},")
        return "\n".join(lines) + "\n"


def occupancy(classes: Grid, landslides, n_classes: int = N_CLASSES) -> OccupancyReport:
    """How the inventory distributes over the map's classes. Points on
    nodata cells or outside the grid count as unclassified."""
    points = list(landslides)
    if not points:
        raise ValueError("empty inventory")
    counts = {c: 0 for c in range(1, n_classes + 1)}
    unclassified = 0
    for pt in points:
        cell = classes.header.cell_of(pt.x, pt.y)
        if cell is None:
            unclassified += 1
            continue
        r, c = cell
        val = classes.values[r, c]
        if val == classes.header.nodata_value:
            unclassified += 1
        else:
            counts[int(val)] += 1
    return OccupancyReport(counts=counts, unclassified=unclassified,
                           total=len(points))


def save_map(out_dir, scores: Grid, classes: Grid, breaks_meta: dict,
             occ: OccupancyReport) -> None:
    """Write the map bundle: scores.asc, classes.asc, breaks.json,
    occupancy.json, occupancy.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_ascii_grid(scores, str(out / "scores.asc"))
    write_ascii_grid(classes, str(out / "classes.asc"))
    (out / "breaks.json").write_text(json.dumps(breaks_meta, indent=2) + "\n",
                                     encoding="utf-8")
    (out / "occupancy.json").write_text(json.dumps(occ.to_dict(), indent=2) + "\n",
                                        encoding="utf-8")
    (out / "occupancy.csv").write_text(occ.to_csv(), encoding="utf-8")
