"""Harness tests: seed derivation, sweep selection, config and report
round-trips, CSV table shapes, end-to-end determinism, and completeness."""

import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from report_diff import report_diff

from unforget import harness, unlearn
from unforget.data import (
    SyntheticSpec,
    apply_u_one_dataset,
    generate_synthetic,
    load_dataset,
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
from unforget.nn_core import UNKNOWN, ArchSpec, BatchNorm, Conv2D, Dense, GlobalAvgPool, ReLU
from unforget.optim import TrainConfig, train_from_scratch
from unforget.seeding import derive_seed


# Marks a parametrized key that is removed rather than set.
DELETE = object()


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


def tiny_multi_label_spec():
    return SyntheticSpec(
        num_patients=50,
        samples_per_patient=6,
        num_labels=3,
        feature_shape=(1, 8, 8),
        separations=(0.9, 0.6, 0.4),
        seed=2,
    )


def multi_label_with_unknowns():
    """tiny_multi_label_spec()'s data with label 1 unknown in every 7th row:
    43 of its 300 rows."""
    ds = generate_synthetic(tiny_multi_label_spec())
    labels = ds.label_array().astype(np.int8)
    labels[::7, 1] = UNKNOWN
    return ds.with_labels(labels)


def tiny_config(**overrides):
    base = dict(
        dataset=tiny_spec(),
        arch=tiny_arch(),
        train=TrainConfig(epochs=2, batch_size=32, lr0=1e-3),
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
    cfg = TrainConfig(epochs=2, batch_size=32, lr0=1e-3)
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
        best, model, table, _ = sweep_hparams(
            sweep_inputs["model"],
            sweep_inputs["forget"],
            sweep_inputs["retain"],
            sweep_inputs["test"],
            "relabel",
            tiny_config(lr_grid=(1e-3,)).grid("relabel", 5),
            sweep_inputs["exact_forget_eval"],
        )
        assert best["lr"] == 1e-3
        assert len(table) == 1 and best is table[0]
        assert model is not None

    def test_smallest_forget_gap_wins(self, sweep_inputs):
        best, _, table, _ = sweep_hparams(
            sweep_inputs["model"],
            sweep_inputs["forget"],
            sweep_inputs["retain"],
            sweep_inputs["test"],
            "relabel",
            tiny_config(lr_grid=(3e-4, 1e-3, 1e-2)).grid("relabel", 5),
            sweep_inputs["exact_forget_eval"],
        )
        gaps = {row["lr"]: row["forget_gap"] for row in table}
        assert best["lr"] == min(gaps, key=gaps.get)
        assert any(best is row for row in table)

    def test_salun_gap_small_on_stated_grid(self):
        # Needs a fixture the model can actually learn: 1,000 16x16 samples
        # with the full pretraining recipe.
        from unforget.harness import default_arch, default_synthetic_spec

        spec = replace(default_synthetic_spec(), num_patients=100, samples_per_patient=10)
        ds = generate_synthetic(spec)
        plan = split_train_val_test(ds, (0.6, 0.1, 0.3), seed=1)
        plan_f = split_forget_retain(plan, 0.25, "patient_level", seed=2, dataset=ds)
        cfg = TrainConfig(epochs=6, batch_size=32, lr0=1e-3)
        model, _ = train_from_scratch(default_arch(), ds.subset(plan.train_ids), cfg, 3)
        exact, _ = train_from_scratch(default_arch(), ds.subset(plan_f.retain_ids), cfg, 4)
        exact_eval = evaluate(exact, ds.subset(plan_f.forget_ids), "forget")
        grid = tiny_config(unlearn_epochs=2, lr_grid=(1e-4, 5e-4, 1e-3, 5e-3)).grid("salun", 6)
        best, _, _, _ = sweep_hparams(
            model,
            ds.subset(plan_f.forget_ids),
            ds.subset(plan_f.retain_ids),
            ds.subset(plan.test_ids),
            "salun",
            grid,
            exact_eval,
        )
        assert best["forget_gap"] <= 0.03

    def test_salun_sweep_shares_its_set_up(self, sweep_inputs, monkeypatch):
        calls = {"forget_gradient": 0, "random_relabel": 0}
        for name in calls:
            real = getattr(unlearn, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(unlearn, name, counted)
        grid = tiny_config(lr_grid=(1e-3, 5e-3), threshold_grid=(1e-4, 1e-3)).grid("salun", 5)
        _, _, table, _ = sweep_hparams(
            sweep_inputs["model"],
            sweep_inputs["forget"],
            sweep_inputs["retain"],
            sweep_inputs["test"],
            "salun",
            grid,
            sweep_inputs["exact_forget_eval"],
        )
        assert len(table) == len(grid)
        assert calls == {"forget_gradient": 1, "random_relabel": 1}

    def test_bad_threshold_raises_instead_of_failing_its_point(self):
        # A sweep runs UnlearnConfigs, so it cannot be handed a bad point: a
        # config error is not a diverging run.
        cfg = tiny_config(threshold_grid=(1e-3, -1.0))
        with pytest.raises(ValueError, match=r"^salun grid: threshold must be >= 0 and finite, got -1\.0$"):
            cfg.grid("salun", 5)

    def test_bad_batch_size_raises_instead_of_failing_every_point(self):
        cfg = tiny_config(unlearn_batch_size=0)
        with pytest.raises(ValueError, match=r"^relabel grid: batch_size must be >= 1, got 0$"):
            cfg.grid("relabel", 5)

    @pytest.mark.parametrize("field,value", [("seed", 6), ("relabel_policy", "uniform")])
    def test_grid_of_mixed_points_rejected(self, sweep_inputs, field, value):
        grid = tiny_config().grid("relabel", 5)
        with pytest.raises(ValueError, match="^a relabel sweep's grid points must share its algorithm, seed "):
            sweep_hparams(
                sweep_inputs["model"],
                sweep_inputs["forget"],
                sweep_inputs["retain"],
                sweep_inputs["test"],
                "relabel",
                [grid[0], replace(grid[1], **{field: value})],
                sweep_inputs["exact_forget_eval"],
            )

    def test_grid_of_another_algorithm_rejected(self, sweep_inputs):
        with pytest.raises(ValueError, match="^a salun sweep's grid points must share its algorithm"):
            sweep_hparams(
                sweep_inputs["model"],
                sweep_inputs["forget"],
                sweep_inputs["retain"],
                sweep_inputs["test"],
                "salun",
                tiny_config().grid("relabel", 5),
                sweep_inputs["exact_forget_eval"],
            )

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


# Every value UnlearnConfig rejects, as (overrides, message) for each sweep
# that runs it: each is a bad config, rejected when the config is loaded.
BAD_UNLEARN_SETTINGS = [
    (dict(overrides, algorithms=("exact", algorithm)), rf"^{algorithm} grid: {re.escape(message)}$")
    for algorithm in ("relabel", "salun")
    for overrides, message in [
        (dict(unlearn_epochs=0), "epochs must be >= 1, got 0"),
        (dict(unlearn_batch_size=0), "batch_size must be >= 1, got 0"),
        (dict(unlearn_batch_size=-1), "batch_size must be >= 1, got -1"),
        *((dict(lr_grid=(lr,)), f"lr must be positive and finite, got {lr}")
          for lr in (0.0, -1.0, math.nan, math.inf)),
        *((dict(threshold_grid=(t,)), f"threshold must be >= 0 and finite, got {t}")
          for t in ((-1.0, math.nan, math.inf) if algorithm == "salun" else ())),
    ]
]


class TestGrid:
    def test_order_values_and_shared_fields(self):
        cfg = tiny_config(lr_grid=(1, 5e-3), threshold_grid=(0, 4e-3), unlearn_epochs=3,
                          unlearn_batch_size=16, relabel_policy="uniform")
        salun, relabel = cfg.grid("salun", 9), cfg.grid("relabel", 9)
        assert [(p.lr, p.threshold) for p in salun] == [(1.0, 0.0), (1.0, 4e-3), (5e-3, 0.0), (5e-3, 4e-3)]
        assert [(p.lr, p.threshold) for p in relabel] == [(1.0, None), (5e-3, None)]
        assert all(type(p.lr) is float and type(p.threshold) is float for p in salun)
        assert all(type(p.lr) is float for p in relabel)
        for algorithm, points in (("salun", salun), ("relabel", relabel)):
            assert {(p.algorithm, p.seed, p.relabel_policy, p.epochs, p.batch_size) for p in points} == {
                (algorithm, 9, "uniform", 3, 16)
            }


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
        [((), "lr_grdi"), (("train",), "lr"), (("unlearn",), "epochz"), (("dataset", "spec"), "sed"),
         (("train",), "seed"), (("train",), "mask")],
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
        assert 2 in (cfg.repeats, cfg.base_seed, cfg.train.epochs, cfg.train.batch_size,
                     cfg.unlearn_epochs, cfg.unlearn_batch_size)
        section[key] = 2.7
        with pytest.raises(ValueError, match=f"'{'.'.join((*path, key))}'"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "section,message",
        [("train", r"^epochs must be >= 1, got 0$"), ("unlearn", r"^relabel grid: epochs must be >= 1, got 0$")],
    )
    def test_zero_epochs_rejected(self, section, message):
        doc = config_to_dict(tiny_config())
        doc[section]["epochs"] = 0
        with pytest.raises(ValueError, match=message):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "path,key,value,message",
        [
            ((), "lr_grid", 0.001, "config key 'lr_grid' must be list, got 0.001"),
            ((), "forget_fractions", "0.1", "config key 'forget_fractions' must be list, got '0.1'"),
            (("dataset", "spec"), "num_patients", 2.5, "dataset spec key 'num_patients' must be int, got 2.5"),
            (("dataset", "spec"), "num_patients", DELETE, "dataset spec is missing key 'num_patients'"),
            ((), "algorithms", "exact", "config key 'algorithms' must be list, got 'exact'"),
            (("train",), "lr0", "1e-3", "config key 'train.lr0' must be float, got '1e-3'"),
            (("train",), "lr0", True, "config key 'train.lr0' must be float, got True"),
            ((), "group_names", "ab", "config key 'group_names' must be list, got 'ab'"),
            ((), "relabel_policy", 3, "config key 'relabel_policy' must be str | null, got 3"),
            (("dataset",), "path", "x.unds", "config dataset needs exactly one of 'spec' and 'path'"),
            ((), "dataset", {"path": 5}, "config dataset key 'path' must be str, got 5"),
            ((), "lr_grid", ["a"], "config key 'lr_grid' item 0 must be float, got 'a'"),
            ((), "split_fractions", [0.5, "x", 0.5],
             "config key 'split_fractions' item 1 must be float, got 'x'"),
            (("dataset", "spec"), "class_weights", ["a", 0.3, 0.2],
             "dataset spec key 'class_weights' item 0 must be float, got 'a'"),
            ((), "forget_fractions", [None], "config key 'forget_fractions' item 0 must be float, got None"),
            ((), "algorithms", [["exact"]], "config key 'algorithms' item 0 must be str, got ['exact']"),
            ((), "threshold_grid", [True], "config key 'threshold_grid' item 0 must be float, got True"),
            ((), "group_names", [1, 2], "config key 'group_names' item 0 must be str, got 1"),
        ],
    )
    def test_wrong_type_rejected(self, path, key, value, message):
        doc = config_to_dict(tiny_config())
        section = doc
        for name in path:
            section = section[name]
        if value is DELETE:
            del section[key]
        else:
            section[key] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "overrides,match",
        [
            (dict(forget_grouping="bogus"), "grouping"),
            (dict(lr_grid=(-1e-3,)), r"^relabel grid: lr must be positive and finite, got -0\.001$"),
            (dict(threshold_grid=(-1.0,)), r"^salun grid: threshold must be >= 0 and finite, got -1\.0$"),
            (dict(split_fractions=(0.5, 0.2, 0.2)), "fractions"),
            (dict(dataset=replace(tiny_spec(), group_proportions=(0.4, 0.3, 0.3))), "group_names"),
            (dict(unlearn_batch_size=0), r"^relabel grid: batch_size must be >= 1, got 0$"),
            # Appended, so the cases above keep their ids.
            (dict(split_fractions=(0.6, 0.4, 0.0)), r"^split_fractions needs positive train and test"),
            (dict(split_fractions=(0.0, 0.4, 0.6)), r"^split_fractions needs positive train and test"),
            (dict(forget_fractions=(0.15, 0.15)), r"^forget_fractions repeats 0\.15$"),
            (dict(algorithms=("exact", "relabel", "relabel")), r"^algorithms repeats 'relabel'$"),
            (dict(group_names=("male", "male")), r"^group_names repeats 'male'$"),
            (dict(lr_grid=(1e-3, 5e-3, 1e-3)), r"^lr_grid repeats 0\.001$"),
            (dict(threshold_grid=(0.0, 0.0)), r"^threshold_grid repeats 0\.0$"),
            (dict(forget_fractions=()), r"^no forget fractions requested$"),
            (dict(relabel_policy="foo"), r"^unknown relabel_policy 'foo'$"),
            (dict(relabel_policy="bitwise_flip"), r"^bitwise_flip applies to multi-label datasets$"),
            (dict(lr_grid=(1e-3, float("inf"))), r"^relabel grid: lr must be positive and finite, got inf$"),
            (dict(lr_grid=(float("nan"),)), r"^relabel grid: lr must be positive and finite, got nan$"),
            (dict(threshold_grid=(float("nan"),)), r"^salun grid: threshold must be >= 0 and finite, got nan$"),
            (dict(threshold_grid=(1e-3, float("inf"))), r"^salun grid: threshold must be >= 0 and finite, got inf$"),
            *BAD_UNLEARN_SETTINGS,
        ],
    )
    def test_bad_config_rejected_before_data(self, overrides, match, monkeypatch):
        def no_data(spec):
            raise AssertionError("data generated before validation")

        monkeypatch.setattr(harness, "generate_synthetic", no_data)
        cfg = tiny_config(**overrides)
        with pytest.raises(ValueError, match=match):
            config_from_dict(config_to_dict(cfg))
        with pytest.raises(ValueError, match=match):
            run_experiment(cfg)

    @pytest.mark.parametrize("lr0", [float("nan"), float("inf")])
    def test_non_finite_lr0_in_config_file_rejected(self, lr0):
        doc = config_to_dict(tiny_config())
        doc["train"]["lr0"] = lr0  # what json.loads reads from NaN or Infinity
        with pytest.raises(ValueError, match=f"^lr0 must be positive and finite, got {lr0}$"):
            config_from_dict(doc)

    def test_infinite_threshold_in_config_file_rejected(self):
        doc = config_to_dict(tiny_config())
        doc["threshold_grid"] = json.loads("[0.001, Infinity]")
        message = r"^salun grid: threshold must be >= 0 and finite, got inf$"
        with pytest.raises(ValueError, match=message):
            config_from_dict(doc)

    def test_unnamed_group_in_dataset_file_rejected_before_pretraining(self, tmp_path, monkeypatch):
        ds = generate_synthetic(replace(tiny_spec(), group_proportions=(0.4, 0.3, 0.3)))
        assert ds.group_array().max() == 2
        save_dataset(ds, tmp_path / "three_groups.unds")

        def no_pretraining(*args, **kwargs):
            raise AssertionError("pretrained before the groups were checked")

        monkeypatch.setattr(harness, "train_from_scratch", no_pretraining)
        with pytest.raises(ValueError, match="group_names has 2 entries.*group 2"):
            run_experiment(tiny_config(dataset=str(tmp_path / "three_groups.unds")))

    @pytest.mark.parametrize(
        "policy,message",
        [
            ("foo", "unknown relabel_policy 'foo'"),
            ("bitwise_flip", "bitwise_flip applies to multi-label datasets"),
        ],
    )
    def test_bad_relabel_policy_for_dataset_file_rejected_before_pretraining(
        self, policy, message, tmp_path, monkeypatch
    ):
        save_dataset(generate_synthetic(tiny_spec()), tmp_path / "single_label.unds")

        def no_pretraining(*args, **kwargs):
            raise AssertionError("pretrained before the relabel policy was checked")

        monkeypatch.setattr(harness, "train_from_scratch", no_pretraining)
        cfg = tiny_config(dataset=str(tmp_path / "single_label.unds"), relabel_policy=policy)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_experiment(cfg)

    # (arch, dataset feature shape, message tail); tiny_spec() has 3 classes.
    MISFITS = [
        (ArchSpec((1, 8, 8), (*tiny_arch().layers[:-1], Dense(6, 5)), 5), (1, 8, 8),
         "arch takes input (1, 8, 8) and emits 5 outputs, but {} has features (1, 8, 8) and 3 outputs"),
        (tiny_arch(), (1, 16, 16),
         "arch takes input (1, 8, 8) and emits 3 outputs, but {} has features (1, 16, 16) and 3 outputs"),
    ]

    @pytest.mark.parametrize("arch,shape,message", MISFITS, ids=["outputs", "features"])
    def test_arch_that_does_not_fit_spec_rejected_at_config_load(self, arch, shape, message, monkeypatch):
        def no_data(spec):
            raise AssertionError("data generated before the arch was checked")

        monkeypatch.setattr(harness, "generate_synthetic", no_data)
        doc = config_to_dict(tiny_config(arch=arch, dataset=replace(tiny_spec(), feature_shape=shape)))
        with pytest.raises(ValueError, match=f"^{re.escape(message.format('the dataset spec'))}$"):
            config_from_dict(doc)

    @pytest.mark.parametrize("arch,shape,message", MISFITS, ids=["outputs", "features"])
    def test_arch_that_does_not_fit_dataset_file_rejected_before_pretraining(
        self, arch, shape, message, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "misfit.unds")
        save_dataset(generate_synthetic(replace(tiny_spec(), feature_shape=shape)), path)

        def no_pretraining(*args, **kwargs):
            raise AssertionError("pretrained before the arch was checked")

        monkeypatch.setattr(harness, "train_from_scratch", no_pretraining)
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(f'dataset {path}'))}$"):
            run_experiment(tiny_config(arch=arch, dataset=path))

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (("split_fractions",), [0.6, math.nan, 0.3],
             "fractions must be three non-negative values summing to 1, got (0.6, nan, 0.3)"),
            (("arch", "layers", 1, "momentum"), 1.5, "1.5 and 1e-05"),
            (("arch", "layers", 1, "momentum"), -0.5, "-0.5 and 1e-05"),
            (("arch", "layers", 1, "epsilon"), -1.0, "0.1 and -1.0"),
            (("arch", "layers", 1, "epsilon"), math.nan, "0.1 and nan"),
            (("arch", "layers", 1, "epsilon"), 0.0, "0.1 and 0.0"),
        ],
        ids=["nan-split", "momentum-above-1", "negative-momentum", "negative-epsilon", "nan-epsilon",
             "zero-epsilon"],
    )
    def test_out_of_range_value_rejected_at_config_load(self, path, value, message, monkeypatch):
        def no_data(spec):
            raise AssertionError("data generated before validation")

        monkeypatch.setattr(harness, "generate_synthetic", no_data)
        if path[0] == "arch":
            message = f"layer 1 BatchNorm needs momentum in [0, 1] and epsilon in (0, inf), got {message}"
        doc = config_to_dict(tiny_config())
        section = doc
        for name in path[:-1]:
            section = section[name]
        section[path[-1]] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict(doc)

    @pytest.mark.parametrize("fraction", [0, 1, -0.1, 1.5, math.nan])
    def test_forget_fraction_rejected_alike_by_config_and_split(self, fraction):
        ds = generate_synthetic(tiny_spec())
        plan = split_train_val_test(ds, (0.6, 0.1, 0.3), seed=1)
        with pytest.raises(ValueError) as by_config:
            tiny_config(forget_fractions=(fraction,)).validate()
        with pytest.raises(ValueError) as by_split:
            split_forget_retain(plan, fraction, "patient_level", 2, ds)
        assert str(by_config.value) == str(by_split.value) == f"forget fraction must lie in (0, 1), got {fraction}"

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

    def test_cell_sweeps_its_configs_grid(self, monkeypatch):
        handed = []
        real = harness.sweep_hparams

        def recording(*args, **kwargs):
            handed.append((args[4], args[5]))
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "sweep_hparams", recording)
        cfg = tiny_config(repeats=1)
        run_experiment(cfg)
        assert handed == [
            (a, cfg.grid(a, derive_seed(cfg.base_seed, "repeat", 0, "unlearn", a, "0.25")))
            for a in ("relabel", "salun")
        ]

    def test_failed_sweep_text_in_report_json(self, tmp_path):
        # Every point of both sweeps diverges; report.json names each point.
        emit_report(run_experiment(tiny_config(lr_grid=(1e300,), repeats=1)), tmp_path)
        incomplete = json.loads((tmp_path / "report.json").read_text())["incomplete"]
        assert incomplete == [
            {"repeat": 0, "fraction": 0.25, "algorithm": "relabel",
             "error": "all grid points failed: [\"{'lr': 1e+300}: non-finite values after layer 4 (Dense)\"]"},
            {"repeat": 0, "fraction": 0.25, "algorithm": "salun",
             "error": "all grid points failed: [\"{'lr': 1e+300, 'threshold': 0.001}: "
                      "non-finite values after layer 4 (Dense)\"]"},
        ]

    def test_cell_timing_is_its_chosen_row(self, small_report):
        # The pins strip timing, so they do not cover it.
        approximate = [c for c in small_report.cells if c["algorithm"] != "exact"]
        assert len(approximate) == 4
        for cell in approximate:
            table = cell["sweep"]
            row = min(table, key=lambda r: (r["forget_gap"], -r["test_macro"], r["lr"], r["threshold"] or 0.0))
            assert cell["chosen"] == {"lr": row["lr"], "threshold": row["threshold"]}
            assert cell["timing"]["unlearn_seconds"] == row["seconds"]
            assert cell["timing"]["sweep_seconds"] == sum(r["seconds"] for r in table)

    def test_timing_flags_present(self, small_report):
        assert small_report.timing["approx_faster_than_exact"] in (True, False)
        assert small_report.timing["sweep_cost_exceeds_single_run"] in (True, False)

    def test_multi_label_pipeline(self):
        # Multi-label data end to end: binary cross-entropy, bitwise-flip relabeling, salun.
        cfg = tiny_config(dataset=tiny_multi_label_spec(), repeats=1)  # tiny_arch emits 3 outputs
        report = run_experiment(cfg)
        assert not report.incomplete
        assert set(report.summary) == {"exact", "relabel", "salun"}
        chosen = report.summary["relabel"]["0.25"]["chosen"][0]
        assert chosen["lr"] in cfg.lr_grid


# SHA-256 of the stripped report for default_config(0) cut to 20 patients
# and one repeat: 9 cells, each approximate one sweeping the full default
# lr and threshold grids. Any change to a number the report holds moves it.
# FULL_GRID_REPORT holds those bytes, so a failure names what moved.
FULL_GRID_REPORT_PIN = "d1cf4eab16fbecb93928cea914238f3ea9b855c8c28fbadf26d6f7cdf6275d56"
FULL_GRID_REPORT = Path(__file__).resolve().parent / "data" / "full_grid_report.json"
# SHA-256 over the CSV tables emit_report writes for that report: each
# file's name, then its bytes, in the order emit_report returns them.
FULL_GRID_CSV_PIN = "371067b473a88791bcf4fff678bba0c848dc544930fef3564d20c036feb45a7b"


def test_full_grid_report_pin(tmp_path):
    pinned = FULL_GRID_REPORT.read_bytes()
    assert hashlib.sha256(pinned).hexdigest() == FULL_GRID_REPORT_PIN
    cfg = default_config(0)
    cfg = replace(cfg, dataset=replace(cfg.dataset, num_patients=20), repeats=1)
    report = run_experiment(cfg)
    assert len(report.cells) == 9 and not report.incomplete
    stripped = json.dumps(strip_timing(report.to_dict()), sort_keys=True)
    assert hashlib.sha256(stripped.encode()).hexdigest() == FULL_GRID_REPORT_PIN, (
        report_diff(json.loads(pinned), json.loads(stripped)).describe()
    )
    digest = hashlib.sha256()
    for path in emit_report(report, tmp_path):
        if path.suffix == ".csv":
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    assert digest.hexdigest() == FULL_GRID_CSV_PIN


# The stripped report of a 3-repeat tiny_config() run over a file of
# tiny_spec()'s data, named "tiny.unds" in the working directory.
FILE_REPORT_PIN = "4dc21d0e20c3a026c2c15f99765e2a90e47a4d21bb6183e5a1bfe04b6baad561"


def test_dataset_file_read_once_per_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_dataset(generate_synthetic(tiny_spec()), "tiny.unds")
    loads = []

    def counted_load(path):
        loads.append(path)
        return load_dataset(path)

    monkeypatch.setattr(harness, "load_dataset", counted_load)
    report = run_experiment(tiny_config(dataset="tiny.unds", repeats=3))
    assert loads == ["tiny.unds"]
    assert len(report.cells) == 9 and not report.incomplete
    stripped = json.dumps(strip_timing(report.to_dict()), sort_keys=True)
    assert hashlib.sha256(stripped.encode()).hexdigest() == FILE_REPORT_PIN


# The stripped report of a 2-repeat tiny_config() run over a file of
# multi_label_with_unknowns(), named "multi.unds" in the working directory.
UNKNOWN_LABELS_REPORT_PIN = "af6146053e36198071abe3901e7cdf117ba7b907c5e0d4f8aaf79cabdabcd9d6"


def test_unknown_labels_in_dataset_file_resolved_once_per_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_dataset(multi_label_with_unknowns(), "multi.unds")
    resolved = []

    def counted_u_one(ds):
        resolved.append(len(ds))
        return apply_u_one_dataset(ds)

    monkeypatch.setattr(harness, "apply_u_one_dataset", counted_u_one)
    report = run_experiment(tiny_config(dataset="multi.unds", repeats=2))
    assert resolved == [300]
    assert len(report.cells) == 6 and not report.incomplete
    stripped = json.dumps(strip_timing(report.to_dict()), sort_keys=True)
    assert hashlib.sha256(stripped.encode()).hexdigest() == UNKNOWN_LABELS_REPORT_PIN


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

    def test_empty_forget_set_fails_every_cell(self):
        report = run_experiment(tiny_config(forget_fractions=(0.001,), repeats=1))
        assert not report.cells
        error = "fraction 0.001 yields an empty forget set"
        assert report.incomplete == [
            {"repeat": 0, "fraction": 0.001, "algorithm": alg, "error": error}
            for alg in ("exact", "relabel", "salun")
        ]

    @staticmethod
    def exact_raising(monkeypatch, algorithms):
        def diverge(*args, **kwargs):
            raise FloatingPointError("exact retraining diverged")

        monkeypatch.setattr(harness, "exact_unlearn", diverge)
        return run_experiment(tiny_config(algorithms=algorithms, repeats=1))

    def test_failed_exact_leaves_no_reference(self, monkeypatch):
        report = self.exact_raising(monkeypatch, ("exact", "relabel", "salun"))
        assert not report.cells
        no_reference = "no exact-unlearning reference available"
        assert report.incomplete == [
            {"repeat": 0, "fraction": 0.25, "algorithm": "exact", "error": "exact retraining diverged"},
            {"repeat": 0, "fraction": 0.25, "algorithm": "relabel", "error": no_reference},
            {"repeat": 0, "fraction": 0.25, "algorithm": "salun", "error": no_reference},
        ]

    def test_failed_reference_filed_when_exact_not_requested(self, monkeypatch):
        # The exact model is the tuning reference even when exact is not a
        # requested cell; its failure is the only record of why.
        report = self.exact_raising(monkeypatch, ("relabel",))
        assert not report.cells
        assert report.incomplete == [
            {"repeat": 0, "fraction": 0.25, "algorithm": "exact", "error": "exact retraining diverged"},
            {"repeat": 0, "fraction": 0.25, "algorithm": "relabel",
             "error": "no exact-unlearning reference available"},
        ]


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
