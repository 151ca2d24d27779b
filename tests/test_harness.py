"""Harness tests: seed derivation, sweep selection, config and report
round-trips, CSV table shapes, end-to-end determinism, and completeness."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from unforget import harness, unlearn
from unforget.data import (
    SyntheticSpec,
    generate_synthetic,
    save_dataset,
    split_forget_retain,
    split_train_val_test,
)
from unforget.harness import (
    ExperimentConfig,
    UnlearnReport,
    config_from_dict,
    config_to_dict,
    default_config,
    emit_report,
    load_report,
    run_experiment,
    strip_timing,
    sweep_hparams,
)
from unforget.metrics import evaluate
from unforget.nn_core import ArchSpec, BatchNorm, Conv2D, Dense, GlobalAvgPool, ReLU
from unforget.optim import TrainConfig, train_from_scratch
from unforget.seeding import derive_seed


def tiny_arch():
    return ArchSpec(
        (1, 8, 8),
        (Conv2D(1, 6, 3, 2), BatchNorm(6), ReLU(), GlobalAvgPool(), Dense(6, 3)),
        3,
    )


def tiny_spec(seed=0):
    return SyntheticSpec(
        num_patients=60,
        samples_per_patient=6,
        num_classes=3,
        feature_shape=(1, 8, 8),
        separations=(0.9, 0.5, 0.25),
        label_noise_rate=0.05,
        seed=seed,
    )


def tiny_config(**overrides):
    base = dict(
        dataset=tiny_spec(),
        arch=tiny_arch(),
        train_cfg=TrainConfig(epochs=2, batch_size=32, lr0=1e-3),
        split_fractions=(0.6, 0.1, 0.3),
        forget_fractions=(0.25,),
        algorithms=("exact", "relabel", "salun"),
        unlearn_epochs=1,
        lr_grid=(1e-3, 5e-3),
        threshold_grid=(1e-3,),
        repeats=2,
        base_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(3, "repeat", 1, "init") == derive_seed(3, "repeat", 1, "init")

    def test_any_path_element_matters(self):
        base = derive_seed(3, "repeat", 1, "init")
        assert derive_seed(4, "repeat", 1, "init") != base
        assert derive_seed(3, "repeat", 2, "init") != base
        assert derive_seed(3, "repeat", 1, "shuffle") != base

    def test_pinned_value(self):
        # Frozen so an accidental change to the derivation (which would
        # silently re-seed every published run) fails loudly.
        assert derive_seed(0, "repeat", 0, "data") == 7035971052180157985

    def test_fits_in_63_bits(self):
        for i in range(50):
            assert 0 <= derive_seed(i, "x") < 2**63


@pytest.fixture(scope="module")
def sweep_inputs():
    ds = generate_synthetic(tiny_spec())
    plan = split_train_val_test(ds, (0.6, 0.1, 0.3), seed=1)
    plan_f = split_forget_retain(plan, 0.25, "patient_level", seed=2, dataset=ds)
    cfg = TrainConfig(epochs=2, batch_size=32, lr0=1e-3, loss_kind="ce")
    model, _ = train_from_scratch(tiny_arch(), ds.subset(plan.train_ids), cfg, 3)
    exact = train_from_scratch(tiny_arch(), ds.subset(plan_f.retain_ids), cfg, 4)[0]
    return {
        "model": model,
        "forget": ds.subset(plan_f.forget_ids),
        "retain": ds.subset(plan_f.retain_ids),
        "test": ds.subset(plan.test_ids),
        "exact_forget_eval": evaluate(exact, ds.subset(plan_f.forget_ids), "forget"),
    }


class TestSweep:
    def test_single_point_selected(self, sweep_inputs):
        best_cfg, model, table, _ = sweep_hparams(
            sweep_inputs["model"],
            sweep_inputs["forget"],
            sweep_inputs["retain"],
            sweep_inputs["test"],
            "relabel",
            [{"lr": 1e-3}],
            sweep_inputs["exact_forget_eval"],
            epochs=1,
            seed=5,
        )
        assert best_cfg.lr == 1e-3
        assert len(table) == 1
        assert model is not None

    def test_smallest_forget_gap_wins(self, sweep_inputs):
        best_cfg, _, table, _ = sweep_hparams(
            sweep_inputs["model"],
            sweep_inputs["forget"],
            sweep_inputs["retain"],
            sweep_inputs["test"],
            "relabel",
            [{"lr": 3e-4}, {"lr": 1e-3}, {"lr": 1e-2}],
            sweep_inputs["exact_forget_eval"],
            epochs=1,
            seed=5,
        )
        gaps = {row["lr"]: row["forget_gap"] for row in table}
        assert best_cfg.lr == min(gaps, key=gaps.get)

    def test_salun_gap_small_on_stated_grid(self):
        # Needs a fixture the model can actually learn: 1,000 16x16 samples
        # with the full pretraining recipe.
        from unforget.harness import default_arch, default_synthetic_spec

        spec = replace(default_synthetic_spec(), num_patients=100, samples_per_patient=10)
        ds = generate_synthetic(spec)
        plan = split_train_val_test(ds, (0.6, 0.1, 0.3), seed=1)
        plan_f = split_forget_retain(plan, 0.25, "patient_level", seed=2, dataset=ds)
        cfg = TrainConfig(epochs=6, batch_size=32, lr0=1e-3, loss_kind="ce")
        model, _ = train_from_scratch(default_arch(), ds.subset(plan.train_ids), cfg, 3)
        exact, _ = train_from_scratch(default_arch(), ds.subset(plan_f.retain_ids), cfg, 4)
        exact_eval = evaluate(exact, ds.subset(plan_f.forget_ids), "forget")
        grid = [{"lr": lr, "threshold": 1e-3} for lr in (1e-4, 5e-4, 1e-3, 5e-3)]
        best_cfg, _, table, _ = sweep_hparams(
            model,
            ds.subset(plan_f.forget_ids),
            ds.subset(plan_f.retain_ids),
            ds.subset(plan.test_ids),
            "salun",
            grid,
            exact_eval,
            epochs=2,
            seed=6,
        )
        chosen = next(row for row in table if row["lr"] == best_cfg.lr)
        assert chosen["forget_gap"] <= 0.03

    def test_salun_sweep_shares_its_set_up(self, sweep_inputs, monkeypatch):
        calls = {"forget_gradient": 0, "random_relabel": 0}
        for name in calls:
            real = getattr(unlearn, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(unlearn, name, counted)
        grid = [{"lr": lr, "threshold": t} for lr in (1e-3, 5e-3) for t in (1e-4, 1e-3)]
        _, _, table, _ = sweep_hparams(
            sweep_inputs["model"],
            sweep_inputs["forget"],
            sweep_inputs["retain"],
            sweep_inputs["test"],
            "salun",
            grid,
            sweep_inputs["exact_forget_eval"],
            epochs=1,
            seed=5,
        )
        assert len(table) == len(grid)
        assert calls == {"forget_gradient": 1, "random_relabel": 1}

    def test_empty_grid_rejected(self, sweep_inputs):
        with pytest.raises(ValueError, match="grid"):
            sweep_hparams(
                sweep_inputs["model"],
                sweep_inputs["forget"],
                sweep_inputs["retain"],
                sweep_inputs["test"],
                "relabel",
                [],
                sweep_inputs["exact_forget_eval"],
            )


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = tiny_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_round_trip_with_dataset_path(self):
        cfg = tiny_config(dataset="some/file.unds")
        restored = config_from_dict(config_to_dict(cfg))
        assert restored.dataset == "some/file.unds"

    def test_json_round_trip(self):
        cfg = tiny_config()
        doc = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(doc) == cfg

    def test_omitted_keys_take_dataclass_defaults(self):
        doc = config_to_dict(default_config())
        for key in ("train", "unlearn", "lr_grid", "threshold_grid", "repeats"):
            del doc[key]
        assert config_from_dict(doc) == default_config()

    @pytest.mark.parametrize(
        "path,key",
        [((), "lr_grdi"), (("train",), "lr"), (("unlearn",), "epochz"), (("dataset", "spec"), "sed")],
    )
    def test_unknown_key_rejected(self, path, key):
        doc = config_to_dict(tiny_config())
        section = doc
        for name in path:
            section = section[name]
        section[key] = 5
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "path,key",
        [
            ((), "repeats"),
            ((), "base_seed"),
            (("train",), "epochs"),
            (("train",), "batch_size"),
            (("unlearn",), "epochs"),
            (("unlearn",), "batch_size"),
        ],
    )
    def test_fractional_integer_rejected(self, path, key):
        doc = config_to_dict(tiny_config())
        section = doc
        for name in path:
            section = section[name]
        section[key] = 2.0  # integral: accepted as 2
        cfg = config_from_dict(doc)
        assert 2 in (cfg.repeats, cfg.base_seed, cfg.train_cfg.epochs, cfg.train_cfg.batch_size,
                     cfg.unlearn_epochs, cfg.unlearn_batch_size)
        section[key] = 2.7
        with pytest.raises(ValueError, match=f"'{'.'.join((*path, key))}'"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "overrides,match",
        [
            (dict(forget_grouping="bogus"), "grouping"),
            (dict(lr_grid=(-1e-3,)), "lr_grid"),
            (dict(threshold_grid=(-1.0,)), "threshold_grid"),
            (dict(split_fractions=(0.5, 0.2, 0.2)), "fractions"),
            (dict(dataset=replace(tiny_spec(), group_proportions=(0.4, 0.3, 0.3))), "group_names"),
        ],
    )
    def test_bad_config_rejected_before_data(self, overrides, match, monkeypatch):
        def no_data(spec):
            raise AssertionError("data generated before validation")

        monkeypatch.setattr(harness, "generate_synthetic", no_data)
        with pytest.raises(ValueError, match=match):
            run_experiment(tiny_config(**overrides))

    def test_unnamed_group_in_dataset_file_rejected_before_pretraining(self, tmp_path, monkeypatch):
        ds = generate_synthetic(replace(tiny_spec(), group_proportions=(0.4, 0.3, 0.3)))
        assert ds.group_array().max() == 2
        save_dataset(ds, tmp_path / "three_groups.unds")

        def no_pretraining(*args, **kwargs):
            raise AssertionError("pretrained before the groups were checked")

        monkeypatch.setattr(harness, "train_from_scratch", no_pretraining)
        with pytest.raises(ValueError, match="group_names has 2 entries.*group 2"):
            run_experiment(tiny_config(dataset=str(tmp_path / "three_groups.unds")))

    def test_validation_catches_bad_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            tiny_config(forget_fractions=(1.5,)).validate()

    def test_validation_requires_grid(self):
        with pytest.raises(ValueError, match="lr_grid"):
            tiny_config(lr_grid=()).validate()

    def test_validation_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithms"):
            tiny_config(algorithms=("exact", "sisa")).validate()


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(tiny_config())


class TestRunExperiment:
    def test_deterministic_reports(self, small_report):
        again = run_experiment(tiny_config())
        a = json.dumps(strip_timing(small_report.to_dict()), sort_keys=True)
        b = json.dumps(strip_timing(again.to_dict()), sort_keys=True)
        assert a == b

    def test_every_requested_cell_present(self, small_report):
        cfg = tiny_config()
        done = {(c["algorithm"], c["fraction"], c["repeat"]) for c in small_report.cells}
        failed = {
            (c["algorithm"], c["fraction"], c["repeat"]) for c in small_report.incomplete
        }
        for alg in cfg.algorithms:
            for frac in cfg.forget_fractions:
                for r in range(cfg.repeats):
                    assert ((alg, frac, r) in done) != ((alg, frac, r) in failed)

    def test_exact_only_config_has_no_sweeps(self):
        report = run_experiment(tiny_config(algorithms=("exact",), repeats=1))
        assert all(c["algorithm"] == "exact" for c in report.cells)
        assert all(c["sweep"] is None for c in report.cells)
        assert "relabel" not in report.summary

    def test_summary_mean_matches_cells(self, small_report):
        cells = [
            c
            for c in small_report.cells
            if c["algorithm"] == "exact" and c["fraction"] == 0.25
        ]
        expected = np.mean([c["evals"]["test"]["macro_auroc"] for c in cells])
        got = small_report.summary["exact"]["0.25"]["test"]["macro"]["mean"]
        assert got == pytest.approx(expected, abs=1e-15)

    def test_difficulty_recorded_per_repeat(self, small_report):
        assert len(small_report.difficulty) == 2
        for entry in small_report.difficulty:
            assert {"easy", "intermediate", "hard"} <= set(entry)

    def test_cell_evals_equal_fresh_evaluations(self, monkeypatch):
        # The cell reuses the sweep's forget and test evaluations of the
        # chosen model; they must be what evaluating it afresh gives.
        chosen = []
        real = harness.sweep_hparams

        def recording(*args, **kwargs):
            result = real(*args, **kwargs)
            chosen.append((args[4], result[1], args[1], args[2], args[3]))
            return result

        monkeypatch.setattr(harness, "sweep_hparams", recording)
        report = run_experiment(tiny_config(repeats=1))
        cells = {c["algorithm"]: c for c in report.cells}
        assert len(chosen) == 2
        for algorithm, model, forget, retain, test in chosen:
            fresh = {
                "retain": evaluate(model, retain, "retain").to_dict(),
                "forget": evaluate(model, forget, "forget").to_dict(),
                "test": evaluate(model, test, "test").to_dict(),
            }
            assert cells[algorithm]["evals"] == fresh

    def test_timing_flags_present(self, small_report):
        assert small_report.timing["approx_faster_than_exact"] in (True, False)
        assert small_report.timing["sweep_cost_exceeds_single_run"] in (True, False)

    def test_multi_label_pipeline(self):
        # bce end to end: multi-label data, bitwise-flip relabeling, salun.
        spec = SyntheticSpec(
            num_patients=50,
            samples_per_patient=6,
            num_labels=3,
            feature_shape=(1, 8, 8),
            separations=(0.9, 0.6, 0.4),
            seed=2,
        )
        cfg = tiny_config(dataset=spec, repeats=1)  # tiny_arch emits 3 outputs
        report = run_experiment(cfg)
        assert not report.incomplete
        assert set(report.summary) == {"exact", "relabel", "salun"}
        chosen = report.summary["relabel"]["0.25"]["chosen"][0]
        assert chosen["lr"] in cfg.lr_grid


# SHA-256 of the stripped report for default_config(0) cut to 20 patients
# and one repeat: 9 cells, each approximate one sweeping the full default
# lr and threshold grids. Any change to a number the report holds moves it.
FULL_GRID_REPORT_PIN = "d1cf4eab16fbecb93928cea914238f3ea9b855c8c28fbadf26d6f7cdf6275d56"


def test_full_grid_report_pin():
    cfg = default_config(0)
    cfg = replace(cfg, dataset=replace(cfg.dataset, num_patients=20), repeats=1)
    report = run_experiment(cfg)
    assert len(report.cells) == 9 and not report.incomplete
    stripped = json.dumps(strip_timing(report.to_dict()), sort_keys=True)
    assert hashlib.sha256(stripped.encode()).hexdigest() == FULL_GRID_REPORT_PIN


class TestCellFailures:
    @staticmethod
    def relabel_raising(monkeypatch, exc):
        def raise_exc(*args, **kwargs):
            raise exc

        monkeypatch.setattr(unlearn, "relabel_finetune", raise_exc)
        return tiny_config(algorithms=("relabel",), repeats=1)

    def test_programming_error_escapes(self, monkeypatch):
        cfg = self.relabel_raising(monkeypatch, TypeError("a bug"))
        with pytest.raises(TypeError, match="a bug"):
            run_experiment(cfg)

    def test_diverging_run_filed_incomplete(self, monkeypatch):
        cfg = self.relabel_raising(monkeypatch, FloatingPointError("non-finite loss"))
        report = run_experiment(cfg)
        assert not report.cells
        assert [c["algorithm"] for c in report.incomplete] == ["relabel"]
        assert "non-finite loss" in report.incomplete[0]["error"]


class TestEmitReport:
    def test_json_round_trip(self, small_report, tmp_path):
        emit_report(small_report, tmp_path)
        loaded = load_report(tmp_path)
        assert loaded == small_report

    def test_forget_size_table_shape(self, small_report, tmp_path):
        emit_report(small_report, tmp_path)
        rows = (tmp_path / "forget_size.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        # three columns (retain/forget/test) per fraction, plus the
        # algorithm column
        assert len(header) == 1 + 3 * len(tiny_config().forget_fractions)
        assert len(rows) == 1 + len(tiny_config().algorithms)
        assert "±" in rows[1]

    def test_per_class_and_fairness_tables(self, small_report, tmp_path):
        emit_report(small_report, tmp_path)
        per_class = (tmp_path / "per_class_0.25.csv").read_text().strip().splitlines()
        assert per_class[0].split(",")[1:4] == ["easy_retain", "easy_forget", "easy_test"]
        fairness = (tmp_path / "fairness_0.25.csv").read_text().strip().splitlines()
        assert "retain_male" in fairness[0] and "test_female" in fairness[0]

    def test_report_json_replaced_whole_or_not_at_all(self, small_report, tmp_path, monkeypatch):
        emit_report(small_report, tmp_path)
        before = (tmp_path / "report.json").read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(harness.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            emit_report(UnlearnReport(config=config_to_dict(tiny_config()), base_seed=7, repeats=0), tmp_path)
        assert (tmp_path / "report.json").read_bytes() == before
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".report.json.")]

    def test_empty_report_valid_files(self, tmp_path):
        empty = UnlearnReport(
            config=config_to_dict(tiny_config()), base_seed=7, repeats=0
        )
        paths = emit_report(empty, tmp_path)
        assert (tmp_path / "report.json").exists()
        for path in paths:
            if path.suffix == ".csv":
                lines = path.read_text().strip().splitlines()
                assert len(lines) == 1  # header only, zero data rows

    def test_missing_report_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_report(tmp_path)


class TestStripTiming:
    def test_removes_all_wall_clock_keys(self, small_report):
        stripped = strip_timing(small_report.to_dict())

        def scan(obj):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    assert k != "timing" and k != "seconds"
                    assert not k.endswith("_seconds")
                    scan(v)
            elif isinstance(obj, list):
                for v in obj:
                    scan(v)

        scan(stripped)
        assert "cells" in stripped
