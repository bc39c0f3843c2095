"""Config merging and validation, stage orchestration, report aggregation,
and end-to-end determinism on a small synthetic scene."""

import csv
import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from lsm.cli import main as cli_main
from lsm.grid import read_ascii_grid
from lsm.pipeline import (
    CELLS,
    MODELS,
    STAGES,
    ConfigError,
    PipelineConfig,
    StageError,
    cell_name,
    compare_representations,
    run_stage,
)

SCENE = {"size": [48, 48], "n_landslides": 16, "informative_bands": 3,
         "total_bands": 12, "correlation_length": 5.0, "seed": 11}


def small_user_config(out_dir):
    return {
        "paths": {"out_dir": str(out_dir)},
        "scene": dict(SCENE),
        "sampling": {"window": 7},
        "training": {"max_epochs": 5, "patience": 3, "batch_size": 32},
    }


def run_all(out_dir):
    cfg = PipelineConfig.from_dict(small_user_config(out_dir))
    for stage in STAGES:
        run_stage(stage, cfg)
    return cfg


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture(scope="module")
def completed(tmp_path_factory):
    out = tmp_path_factory.mktemp("chain")
    return run_all(out)


class TestConfigMerging:
    def test_builtin_defaults_echoed_with_source(self):
        cfg = PipelineConfig.from_dict({})
        echo = cfg.echo()
        expectations = [
            (("sampling", "buffer_m"), 150.0),
            (("sampling", "ratio"), "1:1"),
            (("sampling", "train_fraction"), 0.7),
            (("sampling", "window"), 11),
            (("pca", "threshold"), 0.90),
            (("eval", "threshold"), 0.5),
            (("map", "n_classes"), 5),
        ]
        for keys, expected in expectations:
            node = echo
            for k in keys:
                node = node[k]
            assert node["value"] == expected
            assert node["source"] == "default"

    def test_user_values_marked_as_user(self):
        cfg = PipelineConfig.from_dict({"sampling": {"window": 7}})
        echo = cfg.echo()
        assert echo["sampling"]["window"] == {"value": 7, "source": "user"}
        assert echo["sampling"]["buffer_m"]["source"] == "default"

    def test_unknown_keys_rejected_with_dotted_path(self):
        with pytest.raises(ConfigError, match="sampling.buffre_m"):
            PipelineConfig.from_dict({"sampling": {"buffre_m": 10}})
        with pytest.raises(ConfigError, match="modle"):
            PipelineConfig.from_dict({"modle": "vit"})

    def test_only_balanced_sampling_accepted(self):
        with pytest.raises(ConfigError, match="ratio"):
            PipelineConfig.from_dict({"sampling": {"ratio": "2:1"}})

    def test_model_and_representation_domains(self):
        with pytest.raises(ConfigError, match="model"):
            PipelineConfig.from_dict({"model": "resnet"})
        with pytest.raises(ConfigError, match="representation"):
            PipelineConfig.from_dict({"representation": "embeddings"})

    def test_numeric_bounds(self):
        bad = [
            {"sampling": {"window": 8}},
            {"sampling": {"train_fraction": 1.0}},
            {"sampling": {"train_fraction": 0.0}},
            {"pca": {"threshold": 1.5}},
            {"training": {"batch_size": 0}},
            {"training": {"max_epochs": 0}},
            {"training": {"learning_rate": 0.0}},
            {"eval": {"threshold": -0.1}},
            {"map": {"n_classes": 0}},
        ]
        for doc in bad:
            with pytest.raises(ConfigError):
                PipelineConfig.from_dict(doc)

    def test_scene_block_validated(self):
        with pytest.raises(ConfigError, match="scene"):
            PipelineConfig.from_dict({"scene": {"n_landslides": 1}})

    def test_seed_flag_overrides_all_three_seeds(self):
        cfg = PipelineConfig.from_dict({"training": {"seed": 9}}, seed=7)
        assert cfg["sampling.seed"] == 7
        assert cfg["training.seed"] == 7
        assert cfg["scene.seed"] == 7
        assert cfg.sources["training.seed"] == "cli"

    def test_out_flag_overrides_directory(self):
        cfg = PipelineConfig.from_dict({}, out_dir="/tmp/elsewhere")
        assert cfg.out_dir == "/tmp/elsewhere"
        assert cfg.sources["paths.out_dir"] == "cli"

    def test_load_rejects_missing_and_malformed_files(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            PipelineConfig.load(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            PipelineConfig.load(str(bad))

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError, match="object"):
            PipelineConfig.from_dict([1, 2])


def fake_report(rng):
    auc = float(rng.uniform(0.5, 1.0))
    f1 = float(rng.uniform(0.3, 1.0))
    doc = {c: float(rng.uniform(0.0, 1.0)) for c in
           ("accuracy", "precision", "recall", "specificity", "mae", "rmse")}
    doc["f1"] = f1
    doc["auc"] = auc
    return doc


class TestCompareRepresentations:
    def test_identical_reports_give_zero_deltas(self):
        doc = fake_report(np.random.default_rng(0))
        reports = {cell: dict(doc) for cell in CELLS}
        deltas = compare_representations(reports)
        for model in MODELS:
            for rep in ("embed_pca", "embed_full"):
                assert deltas[model][rep]["delta_f1"] == 0.0
                assert deltas[model][rep]["delta_auc"] == 0.0

    def test_hand_case_auc_gap(self):
        reports = {}
        for model, rep in CELLS:
            doc = fake_report(np.random.default_rng(1))
            doc["auc"] = 0.90 if rep == "lcf" else 0.99
            reports[(model, rep)] = doc
        deltas = compare_representations(reports)
        for model in MODELS:
            assert abs(deltas[model]["embed_pca"]["delta_auc"] - 0.09) < 1e-12
            assert abs(deltas[model]["embed_full"]["delta_auc"] - 0.09) < 1e-12

    def test_matches_independent_subtraction(self):
        rng = np.random.default_rng(7)
        reports = {cell: fake_report(rng) for cell in CELLS}
        deltas = compare_representations(reports)
        for model in MODELS:
            for rep in ("embed_pca", "embed_full"):
                assert deltas[model][rep]["delta_f1"] == pytest.approx(
                    reports[(model, rep)]["f1"] - reports[(model, "lcf")]["f1"],
                    abs=0.0)
                assert deltas[model][rep]["delta_auc"] == pytest.approx(
                    reports[(model, rep)]["auc"] - reports[(model, "lcf")]["auc"],
                    abs=0.0)

    def test_incomplete_matrix_rejected(self):
        rng = np.random.default_rng(3)
        reports = {cell: fake_report(rng) for cell in CELLS}
        del reports[("cnn2d", "embed_pca")]
        with pytest.raises(ValueError, match="cnn2d_embed_pca"):
            compare_representations(reports)

    def test_undefined_f1_propagates_as_none(self):
        rng = np.random.default_rng(4)
        reports = {cell: fake_report(rng) for cell in CELLS}
        reports[("vit", "lcf")]["f1"] = None
        deltas = compare_representations(reports)
        assert deltas["vit"]["embed_pca"]["delta_f1"] is None
        assert deltas["vit"]["embed_pca"]["delta_auc"] is not None


class TestStageChain:
    def test_artifact_tree_complete(self, completed):
        out = completed.out_dir
        expected = [
            "scene/scene.json", "scene/inventory.csv",
            "ingest/stack_lcf.json", "ingest/stack_embed.json",
            "sample/samples.csv", "sample/sampling.json",
            "diagnose/pca_curve.csv", "diagnose/pca_model.json",
            "diagnose/collinearity.csv", "diagnose/collinearity.json",
            "train/train.json",
            "report/comparison.csv", "report/comparison.json",
            "report/deltas.json", "report/deltas.csv",
            "report/occupancy_table.csv",
            "run_manifest.json", "config_echo.json",
        ]
        for model, rep in CELLS:
            expected.append(f"train/{model}_{rep}.json")
            expected.append(f"train/{model}_{rep}.bin")
            expected.append(f"evaluate/{model}_{rep}_metrics.json")
            expected.append(f"evaluate/{model}_{rep}_predictions.csv")
            expected.append(f"evaluate/{model}_{rep}_roc.csv")
            expected.append(f"evaluate/{model}_{rep}_roc.svg")
        for name in ("scores.asc", "classes.asc", "breaks.json",
                     "occupancy.json", "occupancy.csv"):
            expected.append(f"map/vit_embed_full/{name}")
        missing = [p for p in expected if not os.path.exists(os.path.join(out, p))]
        assert missing == []

    def test_comparison_table_has_full_matrix(self, completed):
        lines = open(os.path.join(completed.out_dir,
                                  "report/comparison.csv")).read().splitlines()
        assert lines[0] == ("model,representation,accuracy,precision,recall,"
                            "specificity,f1,auc,mae,rmse")
        assert len(lines) == 1 + 9
        seen = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert seen == list(CELLS)

    def test_pca_curve_nondecreasing_ending_at_one(self, completed):
        rows = open(os.path.join(completed.out_dir,
                                 "diagnose/pca_curve.csv")).read().splitlines()[1:]
        cum = [float(r.split(",")[2]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(cum, cum[1:]))
        assert cum[-1] == pytest.approx(1.0, abs=1e-9)

    def test_sampling_is_balanced_and_buffered(self, completed):
        doc = json.load(open(os.path.join(completed.out_dir,
                                          "sample/sampling.json")))
        assert doc["positives"] == doc["negatives"]
        assert doc["min_negative_to_positive_m"] > 150.0

    def test_manifest_hashes_and_versions(self, completed):
        manifest = json.load(open(os.path.join(completed.out_dir,
                                               "run_manifest.json")))
        assert set(manifest["stages"]) == set(STAGES)
        report = manifest["stages"]["report"]
        assert report["wall_clock_s"] >= 0.0
        for rel, recorded in report["outputs"].items():
            assert sha(os.path.join(completed.out_dir, rel)) == recorded
        versions = report["versions"]
        assert set(versions) == {"python", "numpy", "lsm"}
        assert manifest["config"]["sampling"]["window"]["value"] == 7

    def test_evaluate_rerun_reuses_checkpoints(self, completed):
        out = completed.out_dir
        metric_files = sorted(
            os.path.join(out, "evaluate", f) for f in os.listdir(
                os.path.join(out, "evaluate")) if f.endswith("_metrics.json"))
        before = {p: sha(p) for p in metric_files}
        run_stage("evaluate", completed)
        after = {p: sha(p) for p in metric_files}
        assert before == after

    def test_stage_isolation_rebuilds_downstream_exactly(self, completed):
        out = completed.out_dir
        ref_comparison = sha(os.path.join(out, "report/comparison.csv"))
        ref_metrics = sha(os.path.join(out, "evaluate/cnn1d_lcf_metrics.json"))
        shutil.rmtree(os.path.join(out, "evaluate"))
        shutil.rmtree(os.path.join(out, "report"))
        run_stage("evaluate", completed)
        run_stage("report", completed)
        assert sha(os.path.join(out, "report/comparison.csv")) == ref_comparison
        assert sha(os.path.join(out, "evaluate/cnn1d_lcf_metrics.json")) == ref_metrics

    def test_full_rerun_is_byte_identical(self, completed, tmp_path):
        other = run_all(tmp_path / "again")
        rels = ["report/comparison.csv"]
        rels += [f"train/{model}_{rep}.bin" for model, rep in CELLS]
        rels += [f"map/vit_embed_full/{name}" for name in ("scores.asc", "classes.asc")]
        for rel in rels:
            a = open(os.path.join(completed.out_dir, rel), "rb").read()
            b = open(os.path.join(other.out_dir, rel), "rb").read()
            assert a == b, f"{rel} differs between reruns"

    def test_map_covers_only_configured_cell(self, completed):
        entries = sorted(os.listdir(os.path.join(completed.out_dir, "map")))
        assert entries == ["vit_embed_full"]

    def test_occupancy_conserves_positives(self, completed):
        occ = json.load(open(os.path.join(
            completed.out_dir, "map/vit_embed_full/occupancy.json")))
        sampling = json.load(open(os.path.join(completed.out_dir,
                                               "sample/sampling.json")))
        assert occ["total"] == sampling["positives"]
        assert sum(occ["counts"].values()) + occ["unclassified"] == occ["total"]

    def test_checkpoints_carry_per_cell_seeds(self, completed):
        seeds = set()
        for model, rep in CELLS:
            doc = json.load(open(os.path.join(completed.out_dir,
                                              f"train/{model}_{rep}.json")))
            seeds.add((doc["seeds"]["init"], doc["seeds"]["shuffle"]))
        assert len(seeds) == len(CELLS)


class TestInfeasibleSample:
    """A sample point whose cell the map would not score stops train and
    evaluate with a StageError, before that cell writes anything."""

    def moved_copy(self, completed, tmp_path, cell):
        out = str(tmp_path / "moved")
        shutil.copytree(completed.out_dir, out)
        with open(os.path.join(out, "ingest", "stack_lcf.json")) as fh:
            band = json.load(fh)["bands"][0]["path"]
        header = read_ascii_grid(os.path.join(out, "ingest", band)).header
        x, y = header.cell_center(*cell)
        path = os.path.join(out, "sample", "samples.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        moved = next(r for r in rows if r["split"] == "validation")
        moved["x"], moved["y"] = repr(x), repr(y)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["x", "y", "label", "split"])
            writer.writeheader()
            writer.writerows(rows)
        config = os.path.join(out, "run.json")
        with open(config, "w") as fh:
            json.dump(small_user_config(out), fh)
        return out, config, f"({x!r}, {y!r})"

    def assert_fails(self, stage, config, message, capsys):
        capsys.readouterr()
        assert cli_main([stage, "--config", config, "--quiet"]) == 3
        assert message in capsys.readouterr().err

    # (0, 0) has nodata in the terrain bands; (2, 2) has data but no 7x7 window
    @pytest.mark.parametrize("cell,model", [((0, 0), "cnn1d"), ((2, 2), "cnn2d")])
    def test_train_and_evaluate_reject_border_point(self, completed, tmp_path, capsys,
                                                    cell, model):
        out, config, point = self.moved_copy(completed, tmp_path, cell)
        name = cell_name(model, "lcf")
        message = f"lsm: {name}: sample point {point} is infeasible"
        shutil.rmtree(os.path.join(out, "evaluate"))
        self.assert_fails("evaluate", config, message, capsys)
        assert not os.path.exists(os.path.join(out, "evaluate", f"{name}_metrics.json"))
        shutil.rmtree(os.path.join(out, "train"))
        self.assert_fails("train", config, message, capsys)
        assert not os.path.exists(os.path.join(out, "train", f"{name}.json"))
        assert not os.path.exists(os.path.join(out, "train", f"{name}.bin"))


class TestMissingPrerequisites:
    def make_cfg(self, tmp_path):
        return PipelineConfig.from_dict(small_user_config(tmp_path / "fresh"))

    def test_ingest_before_synth(self, tmp_path):
        with pytest.raises(StageError, match="synth"):
            run_stage("ingest", self.make_cfg(tmp_path))

    def test_sample_before_ingest(self, tmp_path):
        with pytest.raises(StageError, match="ingest"):
            run_stage("sample", self.make_cfg(tmp_path))

    def test_train_before_sample(self, tmp_path):
        with pytest.raises(StageError, match="sample"):
            run_stage("train", self.make_cfg(tmp_path))

    def test_map_before_train(self, tmp_path):
        cfg = self.make_cfg(tmp_path)
        with pytest.raises(StageError, match="train"):
            run_stage("map", cfg)

    def test_report_before_evaluate(self, tmp_path):
        with pytest.raises(StageError, match="evaluate"):
            run_stage("report", self.make_cfg(tmp_path))

    def test_unknown_stage_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown stage"):
            run_stage("deploy", self.make_cfg(tmp_path))

    def test_explicit_missing_path_is_config_error(self, tmp_path):
        user = small_user_config(tmp_path / "x")
        user["paths"]["inventory"] = str(tmp_path / "nowhere.csv")
        cfg = PipelineConfig.from_dict(user)
        run_stage("synth", cfg)
        run_stage("ingest", cfg)
        with pytest.raises(ConfigError, match="nowhere.csv"):
            run_stage("sample", cfg)
