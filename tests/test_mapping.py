"""Raster inference, Jenks breaks (vs exhaustive search), classification,
and occupancy tallies."""

import itertools

import numpy as np
import pytest

from lsm.grid import Grid, GridHeader, GridStack
from lsm.mapping import (
    OccupancyReport,
    classify,
    infer_raster,
    jenks_breaks,
    jenks_cost,
    occupancy,
)
from lsm.nn.checkpoint import Checkpoint, predict_batch
from lsm.nn.models import ModelSpec, build, build_mlp
from lsm.sampling import InventoryPoint, extract_patch, extract_vector

NODATA = -9999.0


def make_header(n, cellsize=10.0):
    return GridHeader(ncols=n, nrows=n, xllcorner=0.0, yllcorner=0.0,
                      cellsize=cellsize, nodata_value=NODATA)


def random_stack(bands=4, n=20, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.random((bands, n, n))
    names = tuple(f"b{i:02d}" for i in range(bands))
    return GridStack(header=make_header(n), names=names, data=data)


def vector_checkpoint(bands, seed=0):
    spec = build_mlp(bands, seed=seed, hidden=(6,))
    return Checkpoint(spec=spec, weights=build(spec).get_weights().astype(np.float32))


def patch_checkpoint(bands, window=3, seed=0):
    spec = ModelSpec("vit", (window, window, bands), (
        {"type": "token_embed", "dim": 8},
        {"type": "pos_embed"},
        {"type": "cls_token"},
        {"type": "transformer", "heads": 2, "hidden": 16},
        {"type": "select_token", "index": 0},
        {"type": "dense", "units": 1, "activation": "none"},
    ), seed=seed)
    return Checkpoint(spec=spec, weights=build(spec).get_weights().astype(np.float32))


def exhaustive_jenks_cost(values, k):
    """Minimal within-class SSD over every break placement (n <= 30)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    s1 = np.concatenate([[0.0], np.cumsum(v)])
    s2 = np.concatenate([[0.0], np.cumsum(v * v)])

    def seg(i, j):  # inclusive
        length = j + 1 - i
        a = s1[j + 1] - s1[i]
        return s2[j + 1] - s2[i] - a * a / length

    best = np.inf
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        cost = sum(seg(bounds[t], bounds[t + 1] - 1) for t in range(k))
        best = min(best, cost)
    return best


class TestJenks:
    def test_two_cluster_gap(self):
        rng = np.random.default_rng(0)
        low = rng.uniform(0.0, 0.1, 20)
        high = rng.uniform(0.9, 1.0, 20)
        values = np.concatenate([low, high])
        breaks = jenks_breaks(values, n_classes=2)
        assert len(breaks) == 1
        # the break is the top of the lower cluster: everything below the
        # gap classifies low, everything above classifies high
        assert low.max() <= breaks[0] < high.min()

    def test_single_class_no_breaks(self):
        assert jenks_breaks([1.0, 2.0, 3.0], n_classes=1) == []

    def test_25_values_match_exhaustive(self):
        rng = np.random.default_rng(1)
        values = rng.random(25)
        breaks = jenks_breaks(values, n_classes=5)
        assert len(breaks) == 4
        dp = jenks_cost(values, breaks)
        brute = exhaustive_jenks_cost(values, 5)
        assert abs(dp - brute) < 1e-9 * max(1.0, brute)

    def test_optimality_over_100_seeded_instances(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            n = int(rng.integers(6, 31))
            k = int(rng.integers(2, 6))
            values = rng.random(n)
            breaks = jenks_breaks(values, n_classes=k)
            dp = jenks_cost(values, breaks)
            brute = exhaustive_jenks_cost(values, k)
            assert dp <= brute + 1e-9, f"trial {trial}: dp {dp} vs brute {brute}"
            assert dp >= brute - 1e-9, f"trial {trial}: dp beat exhaustive?"

    def test_breaks_ascending_and_are_data_values(self):
        rng = np.random.default_rng(3)
        values = rng.random(200)
        breaks = jenks_breaks(values, n_classes=5)
        assert all(b1 < b2 for b1, b2 in zip(breaks, breaks[1:]))
        for b in breaks:
            assert b in values

    def test_cap_subsampling_is_seeded(self):
        rng = np.random.default_rng(4)
        values = rng.random(5000)
        a = jenks_breaks(values, n_classes=4, cap=500, seed=9)
        b = jenks_breaks(values, n_classes=4, cap=500, seed=9)
        c = jenks_breaks(values, n_classes=4, cap=500, seed=10)
        assert a == b
        assert len(a) == 3
        assert a != c  # different subsample, generically different breaks

    def test_too_few_distinct_values(self):
        with pytest.raises(ValueError, match="distinct"):
            jenks_breaks([1.0, 1.0, 1.0, 2.0], n_classes=3)


class TestClassify:
    def _scores(self, values, n=None):
        values = np.asarray(values, dtype=np.float64)
        n = n or int(np.ceil(np.sqrt(values.size)))
        grid = np.full(n * n, NODATA)
        grid[: values.size] = values
        return Grid(header=make_header(n), values=grid.reshape(n, n))

    def test_boundary_belongs_to_lower_class(self):
        scores = self._scores([0.2, 0.200001, 0.9, 0.95])
        classes = classify(scores, [0.2, 0.4, 0.6, 0.9])
        flat = classes.values.ravel()
        assert flat[0] == 1.0   # exactly on break 1
        assert flat[1] == 2.0
        assert flat[2] == 4.0   # exactly on break 4
        assert flat[3] == 5.0   # above the last break

    def test_matches_interval_scan_oracle(self):
        rng = np.random.default_rng(5)
        values = rng.random(1000)
        breaks = [0.15, 0.4, 0.55, 0.8]
        scores = self._scores(values, n=32)
        classes = classify(scores, breaks)
        edges = [-np.inf] + breaks + [np.inf]
        for idx in range(1000):
            v = values[idx]
            expect = next(c for c in range(1, 6)
                          if edges[c - 1] < v <= edges[c])
            assert classes.values.ravel()[idx] == float(expect)

    def test_nodata_preserved_and_monotone(self):
        scores = self._scores([0.1, 0.5, 0.9])
        classes = classify(scores, [0.3, 0.7])
        assert classes.values[1, 1] == NODATA  # the padding cells
        order = np.argsort([0.1, 0.5, 0.9])
        got = classes.values.ravel()[:3][order]
        assert np.all(np.diff(got) >= 0)

    def test_rejects_non_ascending_breaks(self):
        scores = self._scores([0.5])
        with pytest.raises(ValueError, match="ascending"):
            classify(scores, [0.4, 0.4])


class TestOccupancy:
    def _class_grid(self, layout):
        arr = np.asarray(layout, dtype=np.float64)
        header = GridHeader(ncols=arr.shape[1], nrows=arr.shape[0], xllcorner=0.0,
                            yllcorner=0.0, cellsize=10.0, nodata_value=NODATA)
        return Grid(header=header, values=arr)

    def test_all_in_highest_class(self):
        classes = self._class_grid([[5.0, 5.0], [5.0, 5.0]])
        pts = [InventoryPoint(5.0, 5.0, 1), InventoryPoint(15.0, 15.0, 1)]
        rep = occupancy(classes, pts)
        assert rep.percent[5] == 100.0
        assert rep.unclassified == 0

    def test_one_point_per_class(self):
        classes = self._class_grid([[1.0, 2.0, 3.0], [4.0, 5.0, NODATA]])
        pts = [InventoryPoint(5.0, 15.0, 1), InventoryPoint(15.0, 15.0, 1),
               InventoryPoint(25.0, 15.0, 1), InventoryPoint(5.0, 5.0, 1),
               InventoryPoint(15.0, 5.0, 1)]
        rep = occupancy(classes, pts)
        assert all(abs(rep.percent[c] - 20.0) < 1e-9 for c in range(1, 6))
        assert sum(rep.percent.values()) == pytest.approx(100.0, abs=1e-9)

    def test_unclassified_and_conservation(self):
        classes = self._class_grid([[1.0, NODATA], [2.0, 3.0]])
        pts = [InventoryPoint(5.0, 15.0, 1),      # class 1
               InventoryPoint(15.0, 15.0, 1),     # nodata cell
               InventoryPoint(500.0, 500.0, 1),   # outside the grid
               InventoryPoint(15.0, 5.0, 1)]      # class 3
        rep = occupancy(classes, pts)
        assert rep.unclassified == 2
        assert sum(rep.counts.values()) + rep.unclassified == rep.total == 4

    def test_seeded_tally_oracle(self):
        rng = np.random.default_rng(6)
        layout = rng.integers(1, 6, size=(12, 12)).astype(np.float64)
        layout[rng.random((12, 12)) < 0.1] = NODATA
        classes = self._class_grid(layout)
        pts = [InventoryPoint(float(rng.uniform(0, 120)), float(rng.uniform(0, 120)), 1)
               for _ in range(60)]
        rep = occupancy(classes, pts)
        expect = {c: 0 for c in range(1, 6)}
        missing = 0
        for p in pts:
            col = int(p.x // 10)
            row = 11 - int(p.y // 10)
            val = layout[row, col]
            if val == NODATA:
                missing += 1
            else:
                expect[int(val)] += 1
        assert rep.counts == expect
        assert rep.unclassified == missing

    def test_csv_shape(self):
        rep = OccupancyReport(counts={1: 2, 2: 0, 3: 1, 4: 0, 5: 1}, unclassified=1, total=5)
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "class,count,percent"
        assert len(lines) == 7
        assert lines[-1].startswith("unclassified,1,")

    def test_empty_inventory_rejected(self):
        classes = self._class_grid([[1.0]])
        with pytest.raises(ValueError, match="empty"):
            occupancy(classes, [])


class TestSaveMap:
    def test_bundle_round_trips(self, tmp_path):
        from lsm.grid import read_ascii_grid
        from lsm.mapping import save_map
        rng = np.random.default_rng(12)
        values = rng.random((6, 6))
        scores = Grid(header=make_header(6), values=values)
        breaks = jenks_breaks(values.ravel(), n_classes=3)
        classes = classify(scores, breaks)
        pts = [InventoryPoint(15.0, 15.0, 1), InventoryPoint(45.0, 45.0, 1)]
        occ = occupancy(classes, pts, n_classes=3)
        save_map(tmp_path / "m", scores, classes, {"breaks": breaks}, occ)

        back = read_ascii_grid(str(tmp_path / "m" / "scores.asc"))
        assert np.array_equal(back.values, scores.values)
        cls_back = read_ascii_grid(str(tmp_path / "m" / "classes.asc"))
        assert np.array_equal(cls_back.values, classes.values)
        import json as _json
        with open(tmp_path / "m" / "breaks.json") as fh:
            assert _json.load(fh)["breaks"] == breaks
        with open(tmp_path / "m" / "occupancy.json") as fh:
            occ_doc = _json.load(fh)
        assert occ_doc["total"] == 2
        assert (tmp_path / "m" / "occupancy.csv").read_text().startswith("class,count,percent")


class TestInferRaster:
    def test_constant_stack_constant_scores(self):
        stack = random_stack(bands=3, n=8)
        stack.data[:] = 0.7
        ckpt = vector_checkpoint(3)
        scores = infer_raster(ckpt, stack)
        vals = scores.values[scores.valid]
        assert vals.size == 64
        assert np.all(vals == vals[0])

    def test_patch_model_skips_border(self):
        stack = random_stack(bands=2, n=10, seed=7)
        ckpt = patch_checkpoint(2, window=3)
        scores = infer_raster(ckpt, stack)
        assert np.all(scores.values[0, :] == NODATA)
        assert np.all(scores.values[:, -1] == NODATA)
        assert np.all(scores.values[1:-1, 1:-1] != NODATA)

    def test_sample_construction_consistency(self):
        stack = random_stack(bands=3, n=12, seed=8)
        vec_ckpt = vector_checkpoint(3, seed=1)
        scores = infer_raster(vec_ckpt, stack)
        x, y = stack.header.cell_center(4, 7)
        vec = extract_vector(stack, InventoryPoint(x, y, 1))
        direct = predict_batch(vec_ckpt, vec[None, :])[0]
        assert abs(scores.values[4, 7] - direct) < 1e-12

        patch_ckpt = patch_checkpoint(3, window=3, seed=2)
        scores2 = infer_raster(patch_ckpt, stack)
        patch = extract_patch(stack, InventoryPoint(x, y, 1), 3)
        direct2 = predict_batch(patch_ckpt, patch[None])[0]
        assert abs(scores2.values[4, 7] - direct2) < 1e-12

    def test_nodata_window_not_scored(self):
        stack = random_stack(bands=2, n=10, seed=9)
        stack.data[0, 5, 5] = NODATA
        ckpt = patch_checkpoint(2, window=3)
        scores = infer_raster(ckpt, stack)
        for r in range(4, 7):
            for c in range(4, 7):
                assert scores.values[r, c] == NODATA
        assert scores.values[3, 3] != NODATA

    def test_band_count_mismatch(self):
        stack = random_stack(bands=3, n=6)
        with pytest.raises(ValueError, match="band-count mismatch"):
            infer_raster(vector_checkpoint(5), stack)

    def test_missing_reducer_rejected(self):
        stack = random_stack(bands=3, n=6)
        spec = build_mlp(2, seed=0)
        ckpt = Checkpoint(spec=spec, weights=build(spec).get_weights().astype(np.float32),
                          pca_hash="someref")
        with pytest.raises(ValueError, match="reducer"):
            infer_raster(ckpt, stack)

    def test_reducer_path_consistency(self):
        from lsm.reduce import fit_standardizer, pca_fit, with_k, pca_transform
        rng = np.random.default_rng(11)
        stack = random_stack(bands=6, n=10, seed=11)
        flat = stack.data.reshape(6, -1).T
        pca = with_k(pca_fit(flat, fit_standardizer(flat)), 4)
        ckpt = vector_checkpoint(4, seed=4)
        ckpt.pca_hash = "deadbeef"
        scores = infer_raster(ckpt, stack, reducer=pca)
        # spot-check one cell against the manual chain
        vec = stack.data[:, 3, 6][None, :]
        reduced = pca_transform(pca, vec)
        direct = predict_batch(ckpt, reduced)[0]
        assert abs(scores.values[3, 6] - direct) < 1e-12
