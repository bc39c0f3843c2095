"""Inventory loading, negative sampling, splits, and patch extraction."""

import numpy as np
import pytest

from lsm.grid import Grid, GridHeader, build_stack
from lsm.sampling import (
    InventoryPoint,
    PatchRejected,
    SampleSet,
    extract_patch,
    extract_vector,
    load_inventory,
    min_pair_distance,
    sample_negatives,
    split_samples,
    window_feasible_mask,
)


def simple_stack(n=10, cs=30.0, nodata_cells=()):
    h = GridHeader(n, n, 0.0, 0.0, cs, -9999.0)
    rng = np.random.default_rng(3)
    a = rng.uniform(size=(n, n))
    b = rng.uniform(size=(n, n))
    for r, c in nodata_cells:
        a[r, c] = -9999.0
    return build_stack([("a", Grid(h, a)), ("b", Grid(h, b))])


class TestLoadInventory:
    def write(self, tmp_path, rows, head="x,y"):
        p = tmp_path / "inv.csv"
        p.write_text(head + "\n" + "\n".join(rows) + ("\n" if rows else ""))
        return str(p)

    def test_basic_load_and_report(self, tmp_path):
        stack = simple_stack(nodata_cells=[(0, 0)])
        path = self.write(
            tmp_path,
            [
                "45,45",        # cell (8, 1)
                "44,46",        # same cell -> merged
                "75,135",       # cell (5, 2)
                "-10,50",       # outside
                "15,285",       # cell (0, 0) is nodata -> dropped
            ],
        )
        pts, report = load_inventory(path, stack)
        assert report == {"loaded": 2, "dropped_outside": 2, "merged_duplicates": 1}
        assert all(p.label == 1 for p in pts)
        # The merged pair collapses to the cell center.
        assert (pts[0].x, pts[0].y) == (45.0, 45.0)
        # The isolated point keeps its original coordinates.
        assert (pts[1].x, pts[1].y) == (75.0, 135.0)

    def test_point_on_exact_center_unchanged(self, tmp_path):
        stack = simple_stack()
        path = self.write(tmp_path, ["135.0,105.0"])
        pts, report = load_inventory(path, stack)
        assert (pts[0].x, pts[0].y) == (135.0, 105.0)
        assert report == {"loaded": 1, "dropped_outside": 0, "merged_duplicates": 0}

    def test_extra_columns_ignored(self, tmp_path):
        stack = simple_stack()
        path = self.write(tmp_path, ["3,45,201", "9,75,222"], head="id,x,y")
        pts, _ = load_inventory(path, stack)
        # Column lookup is by name, not position.
        assert [(p.x, p.y) for p in pts] == [(45.0, 201.0), (75.0, 222.0)]

    def test_missing_column(self, tmp_path):
        stack = simple_stack()
        path = self.write(tmp_path, ["1,2"], head="x,z")
        with pytest.raises(ValueError, match="'x' and 'y'"):
            load_inventory(path, stack)

    def test_empty_file(self, tmp_path):
        stack = simple_stack()
        path = self.write(tmp_path, [])
        with pytest.raises(ValueError, match="empty"):
            load_inventory(path, stack)


class TestSampleNegatives:
    def test_counts_buffer_and_determinism(self):
        stack = simple_stack(n=20)
        land = [InventoryPoint(105.0, 105.0, 1), InventoryPoint(405.0, 465.0, 1)]
        negs = sample_negatives(land, stack, buffer_m=150.0, seed=11)
        assert len(negs) == len(land)
        assert all(p.label == 0 for p in negs)
        assert min_pair_distance(negs, land) > 150.0
        # Cell centers, all distinct.
        assert len({(p.x, p.y) for p in negs}) == len(negs)
        again = sample_negatives(land, stack, buffer_m=150.0, seed=11)
        assert [(p.x, p.y) for p in again] == [(p.x, p.y) for p in negs]
        other = sample_negatives(land, stack, buffer_m=150.0, seed=12)
        assert [(p.x, p.y) for p in other] != [(p.x, p.y) for p in negs]

    def test_zero_buffer_excludes_only_landslide_cells(self):
        stack = simple_stack(n=3, cs=10.0)
        land = [InventoryPoint(5.0, 5.0, 1)]
        seen = set()
        for seed in range(60):
            for p in sample_negatives(land, stack, buffer_m=0.0, seed=seed):
                seen.add((p.x, p.y))
        assert (5.0, 5.0) not in seen
        assert len(seen) == 8  # every other cell is reachable

    def test_not_enough_eligible_cells(self):
        stack = simple_stack(n=3, cs=10.0)
        land = [InventoryPoint(15.0, 15.0, 1)]
        with pytest.raises(ValueError, match="eligible"):
            sample_negatives(land, stack, buffer_m=1000.0, seed=1)


class TestSplit:
    def points(self, n_pos, n_neg):
        pts = [InventoryPoint(float(i), 0.0, 1) for i in range(n_pos)]
        pts += [InventoryPoint(float(i), 1.0, 0) for i in range(n_neg)]
        return pts

    def test_ten_ten_gives_seven_three_per_class(self):
        ss = split_samples(self.points(10, 10), 0.7, seed=5)
        for label in (0, 1):
            tr = [p for p, s in zip(ss.points, ss.split) if s == "train" and p.label == label]
            va = [p for p, s in zip(ss.points, ss.split) if s == "validation" and p.label == label]
            assert (len(tr), len(va)) == (7, 3)

    def test_fraction_bound_per_class(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n_pos, n_neg = int(rng.integers(4, 60)), int(rng.integers(4, 60))
            f = float(rng.uniform(0.3, 0.9))
            try:
                ss = split_samples(self.points(n_pos, n_neg), f, seed=int(rng.integers(1e6)))
            except ValueError:
                continue  # degenerate corner, rejected by design
            for label, n in ((1, n_pos), (0, n_neg)):
                tr = sum(
                    1 for p, s in zip(ss.points, ss.split) if s == "train" and p.label == label
                )
                assert abs(tr / n - f) <= 1.0 / n

    def test_deterministic(self):
        a = split_samples(self.points(9, 9), 0.7, seed=2)
        b = split_samples(self.points(9, 9), 0.7, seed=2)
        assert a.split == b.split
        c = split_samples(self.points(9, 9), 0.7, seed=3)
        assert a.split != c.split

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            split_samples(self.points(10, 10), 0.99, seed=0)
        with pytest.raises(ValueError, match="train_fraction"):
            split_samples(self.points(10, 10), 1.0, seed=0)
        with pytest.raises(ValueError, match="empty"):
            split_samples([], 0.7, seed=0)


class TestExtraction:
    def test_vector_matches_stack(self):
        stack = simple_stack()
        p = InventoryPoint(45.0, 75.0, 1)  # row 7, col 1
        vec = extract_vector(stack, p)
        np.testing.assert_array_equal(vec, stack.data[:, 7, 1])

    def test_patch_center_identity(self):
        stack = simple_stack()
        p = InventoryPoint(135.0, 135.0, 1)
        patch = extract_patch(stack, p, 5)
        assert patch.shape == (5, 5, 2)
        np.testing.assert_array_equal(patch[2, 2, :], extract_vector(stack, p))

    def test_patch_rejected_at_boundary_and_nodata(self):
        stack = simple_stack(nodata_cells=[(4, 4)])
        with pytest.raises(PatchRejected, match="boundary"):
            extract_patch(stack, InventoryPoint(15.0, 15.0, 1), 5)
        with pytest.raises(PatchRejected, match="nodata"):
            extract_patch(stack, InventoryPoint(105.0, 165.0, 1), 3)  # window over (4,4)
        with pytest.raises(ValueError, match="odd"):
            extract_patch(stack, InventoryPoint(135.0, 135.0, 1), 4)

    def test_window_feasible_mask_matches_bruteforce(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(5, 14))
            stack = simple_stack(n=n)
            hole = rng.random(size=(n, n)) < 0.1
            stack.data[0][hole] = stack.header.nodata_value
            size = int(rng.choice([1, 3, 5]))
            got = window_feasible_mask(stack, size)
            valid = stack.valid_mask()
            half = size // 2
            want = np.zeros_like(got)
            for r in range(half, n - half):
                for c in range(half, n - half):
                    want[r, c] = valid[r - half : r + half + 1, c - half : c + half + 1].all()
            np.testing.assert_array_equal(got, want)


class TestSampleSetCsv:
    def test_round_trip(self, tmp_path):
        pts = [InventoryPoint(1.25, 2.5, 1), InventoryPoint(3.125, 4.0, 0)]
        ss = SampleSet(pts, ["train", "validation"], seed=9)
        p = str(tmp_path / "s.csv")
        ss.to_csv(p)
        back = SampleSet.from_csv(p, seed=9)
        assert back.points == pts
        assert back.split == ss.split
