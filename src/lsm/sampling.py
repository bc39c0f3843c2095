"""Sample construction: inventory loading, buffered negatives, splits, and
window feasibility.

The stages cut model inputs with ``lsm.mapping._gather_patches``;
``extract_vector`` and ``extract_patch`` build one sample at a time and
serve as the reference that gather is checked against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridStack

TRAIN = "train"
VALIDATION = "validation"


class PatchRejected(ValueError):
    """Patch window crosses the grid boundary or contains nodata."""


@dataclass(frozen=True)
class InventoryPoint:
    """A labelled map location (label 1 = landslide, 0 = background)."""

    x: float
    y: float
    label: int


@dataclass
class SampleSet:
    """Labelled points with a per-point train/validation assignment."""

    points: list[InventoryPoint]
    split: list[str]
    seed: int

    def __post_init__(self) -> None:
        if len(self.points) != len(self.split):
            raise ValueError("split assignment length does not match points")

    def subset(self, part: str) -> list[InventoryPoint]:
        return [p for p, s in zip(self.points, self.split) if s == part]

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "y", "label", "split"])
            for p, s in zip(self.points, self.split):
                w.writerow([repr(p.x), repr(p.y), p.label, s])

    @classmethod
    def from_csv(cls, path: str, seed: int = 0) -> "SampleSet":
        points, split = [], []
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                points.append(InventoryPoint(float(row["x"]), float(row["y"]), int(row["label"])))
                split.append(row["split"])
        return cls(points, split, seed)


def load_inventory(path: str, stack: GridStack) -> tuple[list[InventoryPoint], dict]:
    """Read landslide points from a CSV with x,y columns.

    Points outside the raster extent or on cells lacking data in any band
    are dropped. Multiple points in one cell merge to a single point at the
    cell center; isolated points keep their coordinates. Returns the points
    (label 1) and a load report
    ``{"loaded": n, "dropped_outside": k, "merged_duplicates": m}``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            head = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty inventory file") from None
        cols = [c.strip().lower() for c in head]
        if "x" not in cols or "y" not in cols:
            raise ValueError(f"{path}: inventory needs 'x' and 'y' columns, found {head}")
        xi, yi = cols.index("x"), cols.index("y")
        coords = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
            try:
                coords.append((float(row[xi]), float(row[yi])))
            except (ValueError, IndexError):
                raise ValueError(f"{path}: line {lineno}: bad coordinate row {row!r}") from None
    if not coords:
        raise ValueError(f"{path}: empty inventory file")

    valid = stack.valid_mask()
    dropped = 0
    by_cell: dict[tuple[int, int], list[tuple[float, float]]] = {}
    cell_order: list[tuple[int, int]] = []
    for x, y in coords:
        cell = stack.header.cell_of(x, y)
        if cell is None or not valid[cell]:
            dropped += 1
            continue
        if cell not in by_cell:
            by_cell[cell] = []
            cell_order.append(cell)
        by_cell[cell].append((x, y))

    points = []
    merged = 0
    for cell in cell_order:
        hits = by_cell[cell]
        if len(hits) == 1:
            x, y = hits[0]
        else:
            x, y = stack.header.cell_center(*cell)
            merged += len(hits) - 1
        points.append(InventoryPoint(x, y, 1))
    report = {"loaded": len(points), "dropped_outside": dropped, "merged_duplicates": merged}
    return points, report


def _min_dist_to(points_xy: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Min Euclidean distance from each (xs, ys) location to the point set."""
    out = np.full(xs.shape, np.inf)
    for px, py in points_xy:
        d = np.hypot(xs - px, ys - py)
        np.minimum(out, d, out=out)
    return out


def sample_negatives(
    landslides: list[InventoryPoint], stack: GridStack, buffer_m: float, seed: int
) -> list[InventoryPoint]:
    """Draw one background point per landslide, uniformly without replacement.

    Candidates are centers of valid cells that contain no landslide and whose
    center lies strictly more than ``buffer_m`` from every landslide point.
    """
    if not landslides:
        raise ValueError("cannot sample negatives for an empty inventory")
    if buffer_m < 0:
        raise ValueError("buffer_m must be nonnegative")
    h = stack.header
    eligible = stack.valid_mask().copy()
    for p in landslides:
        cell = h.cell_of(p.x, p.y)
        if cell is not None:
            eligible[cell] = False
    rows, cols = np.nonzero(eligible)
    xs = h.xllcorner + (cols + 0.5) * h.cellsize
    ys = h.yllcorner + (h.nrows - rows - 0.5) * h.cellsize
    pts = np.array([(p.x, p.y) for p in landslides])
    keep = _min_dist_to(pts, xs, ys) > buffer_m
    xs, ys = xs[keep], ys[keep]
    n = len(landslides)
    if xs.size < n:
        raise ValueError(
            f"only {xs.size} cells are eligible outside the {buffer_m} m buffer, "
            f"need {n}"
        )
    pick = np.random.default_rng(seed).choice(xs.size, size=n, replace=False)
    return [InventoryPoint(float(xs[i]), float(ys[i]), 0) for i in pick]


def split_samples(points: list[InventoryPoint], train_fraction: float, seed: int) -> SampleSet:
    """Stratified train/validation split, reproducible from the seed."""
    if not points:
        raise ValueError("cannot split an empty sample list")
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    split = [""] * len(points)
    for label in sorted({p.label for p in points}):
        idx = np.array([i for i, p in enumerate(points) if p.label == label])
        n_train = int(round(train_fraction * idx.size))
        if n_train == 0 or n_train == idx.size:
            raise ValueError(
                f"degenerate split for label {label}: {n_train} train of {idx.size}"
            )
        perm = rng.permutation(idx.size)
        for j in perm[:n_train]:
            split[idx[j]] = TRAIN
        for j in perm[n_train:]:
            split[idx[j]] = VALIDATION
    return SampleSet(list(points), split, seed)


def extract_vector(stack: GridStack, point: InventoryPoint) -> np.ndarray:
    """Per-band values at the point's cell, shape (n_bands,)."""
    cell = stack.header.cell_of(point.x, point.y)
    if cell is None:
        raise ValueError(f"point ({point.x}, {point.y}) is outside the raster")
    vec = stack.data[:, cell[0], cell[1]]
    if (vec == stack.header.nodata_value).any():
        raise ValueError(f"point ({point.x}, {point.y}) falls on a nodata cell")
    return vec.copy()


def extract_patch(stack: GridStack, point: InventoryPoint, size: int) -> np.ndarray:
    """Square window centered on the point's cell, shape (size, size, n_bands).

    Raises PatchRejected when the window crosses the boundary or touches
    nodata in any band; windows are never padded.
    """
    if size < 1 or size % 2 == 0:
        raise ValueError("patch size must be odd and positive")
    cell = stack.header.cell_of(point.x, point.y)
    if cell is None:
        raise PatchRejected(f"point ({point.x}, {point.y}) is outside the raster")
    r, c = cell
    half = size // 2
    if r - half < 0 or c - half < 0 or r + half >= stack.header.nrows or c + half >= stack.header.ncols:
        raise PatchRejected(f"window around ({point.x}, {point.y}) crosses the boundary")
    block = stack.data[:, r - half : r + half + 1, c - half : c + half + 1]
    if (block == stack.header.nodata_value).any():
        raise PatchRejected(f"window around ({point.x}, {point.y}) contains nodata")
    return np.moveaxis(block, 0, -1).copy()


def window_feasible_mask(stack: GridStack, size: int) -> np.ndarray:
    """True where a size x size window fits in bounds with every cell valid."""
    if size < 1 or size % 2 == 0:
        raise ValueError("window size must be odd and positive")
    valid = stack.valid_mask()
    nr, nc = valid.shape
    out = np.zeros_like(valid)
    if size > nr or size > nc:
        return out
    inv = (~valid).astype(np.int64)
    ii = np.zeros((nr + 1, nc + 1), dtype=np.int64)
    ii[1:, 1:] = inv.cumsum(axis=0).cumsum(axis=1)
    sums = ii[size:, size:] - ii[:-size, size:] - ii[size:, :-size] + ii[:-size, :-size]
    half = size // 2
    out[half : nr - half, half : nc - half] = sums == 0
    return out


def points_xy(points: list[InventoryPoint]) -> np.ndarray:
    return np.array([(p.x, p.y) for p in points], dtype=np.float64).reshape(len(points), 2)


def min_pair_distance(a: list[InventoryPoint], b: list[InventoryPoint]) -> float:
    """Smallest distance between any point of a and any point of b."""
    if not a or not b:
        return math.inf
    pa, pb = points_xy(a), points_xy(b)
    d = np.hypot(pa[:, None, 0] - pb[None, :, 0], pa[:, None, 1] - pb[None, :, 1])
    return float(d.min())
