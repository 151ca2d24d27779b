"""Unlearning algorithm tests: mask thresholding, relabel policies, freeze
behavior, exact-retraining identities, and the degenerate compositions."""

import numpy as np
import pytest

from unforget.data import LabeledDataset, SyntheticSpec, generate_synthetic, split_forget_retain, split_train_val_test
from unforget.nn_core import ArchSpec, BatchNorm, Conv2D, Dense, GlobalAvgPool, ReLU, init_model
from unforget import unlearn
from unforget.optim import TrainConfig, train_from_scratch
from unforget.seeding import derive_seed
from unforget.unlearn import (
    UnlearnConfig,
    check_relabel_policy,
    compute_saliency_mask,
    exact_unlearn,
    forget_gradient,
    mask_from_gradient,
    random_relabel,
    relabel_finetune,
    relabel_unlearn,
    saliency_unlearn,
)


def constant_dataset(labels, task_kind, num_outputs):
    """One sample (and patient) per label; features all 0.5 over a 1x2x2 image."""
    n = len(labels)
    return LabeledDataset(
        np.arange(n), np.full((n, 1, 2, 2), 0.5), labels, np.arange(n), np.zeros(n),
        task_kind, num_outputs,
    )


@pytest.fixture(scope="module")
def fixture():
    """Small trained model plus forget/retain/test splits, shared per module."""
    spec = SyntheticSpec(
        num_patients=50,
        samples_per_patient=8,
        num_classes=3,
        feature_shape=(1, 8, 8),
        separations=(0.9, 0.5, 0.25),
        label_noise_rate=0.05,
        seed=17,
    )
    ds = generate_synthetic(spec)
    plan = split_train_val_test(ds, (0.7, 0.1, 0.2), seed=3)
    arch = ArchSpec(
        (1, 8, 8),
        (Conv2D(1, 6, 3, 2), BatchNorm(6), ReLU(), GlobalAvgPool(), Dense(6, 3)),
        3,
    )
    cfg = TrainConfig(epochs=2, batch_size=32, lr0=1e-3)
    model, _ = train_from_scratch(arch, ds.subset(plan.train_ids), cfg, 5)
    plan_f = split_forget_retain(plan, 0.3, "patient_level", seed=7, dataset=ds)
    return {
        "ds": ds,
        "model": model,
        "train_cfg": cfg,
        "train": ds.subset(plan.train_ids),
        "forget": ds.subset(plan_f.forget_ids),
        "retain": ds.subset(plan_f.retain_ids),
    }


class TestMaskFromGradient:
    def test_thresholding_rule(self):
        mask = mask_from_gradient(np.array([0.5, -0.05, 0.2]), 0.1)
        assert mask.dtype == bool
        assert np.array_equal(mask, [1, 0, 1])

    def test_threshold_zero_trains_everything(self):
        mask = mask_from_gradient(np.array([0.5, 0.0, -0.2]), 0.0)
        assert mask.dtype == bool
        assert np.array_equal(mask, [1, 1, 1])

    def test_threshold_above_max_freezes_everything(self):
        mask = mask_from_gradient(np.array([0.5, -0.05, 0.2]), 0.6)
        assert np.array_equal(mask, [0, 0, 0])

    def test_strict_inequality(self):
        mask = mask_from_gradient(np.array([0.1, 0.100001]), 0.1)
        assert np.array_equal(mask, [0, 1])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            mask_from_gradient(np.array([0.5, -0.05]), -0.1)

    def test_nan_threshold_rejected(self):
        # NaN passes a `< 0` check, and `|g| > NaN` would freeze every coordinate.
        with pytest.raises(ValueError, match="^threshold must be >= 0 and finite, got nan$"):
            mask_from_gradient(np.array([0.5, -0.05]), np.nan)

    def test_infinite_threshold_rejected(self):
        # `|g| > inf` is False everywhere, so SalUn would freeze every parameter.
        with pytest.raises(ValueError, match="^threshold must be >= 0 and finite, got inf$"):
            mask_from_gradient(np.array([0.5, -3.0]), np.inf)


class TestUnlearnConfig:
    def test_threshold_only_for_salun(self):
        with pytest.raises(ValueError, match="threshold"):
            UnlearnConfig(algorithm="relabel", threshold=0.1)
        with pytest.raises(ValueError, match="threshold"):
            UnlearnConfig(algorithm="salun")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            UnlearnConfig(algorithm="sisa")

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_bad_batch_size_rejected(self, batch_size):
        with pytest.raises(ValueError, match=f"^batch_size must be >= 1, got {batch_size}$"):
            UnlearnConfig(algorithm="relabel", batch_size=batch_size)

    @pytest.mark.parametrize("lr", [0.0, -1e-3, np.nan, np.inf])
    def test_bad_lr_rejected(self, lr):
        with pytest.raises(ValueError, match=f"^lr must be positive and finite, got {lr}$"):
            UnlearnConfig(algorithm="relabel", lr=lr)

    @pytest.mark.parametrize("threshold", [-0.1, np.nan, np.inf])
    def test_bad_threshold_rejected(self, threshold):
        with pytest.raises(
            ValueError, match=f"^threshold must be >= 0 and finite, got {threshold}$"
        ):
            UnlearnConfig(algorithm="salun", threshold=threshold)


class TestRandomRelabel:
    def test_two_classes_forced_complement(self):
        ds = constant_dataset(np.arange(20) % 2, "single_label", 2)
        noisy = random_relabel(ds, "exclude_original", seed=1)
        assert np.array_equal(noisy.label_array(), 1 - ds.label_array())

    def test_exclude_original_uniform_over_alternatives(self):
        ds = constant_dataset(np.zeros(10_000), "single_label", 8)
        noisy = random_relabel(ds, "exclude_original", seed=2)
        labels = noisy.label_array()
        assert 0 not in labels
        freqs = np.bincount(labels, minlength=8)[1:] / 10_000
        assert np.all(np.abs(freqs - 1 / 7) <= 0.02)

    def test_uniform_policy_may_keep_original(self):
        ds = constant_dataset(np.zeros(2_000), "single_label", 4)
        noisy = random_relabel(ds, "uniform", seed=3)
        labels = noisy.label_array()
        assert (labels == 0).any()

    def test_bitwise_flip_hamming_distance(self):
        rng = np.random.default_rng(4)
        ds = constant_dataset(rng.integers(0, 2, (4_000, 5)), "multi_label", 5)
        noisy = random_relabel(ds, "bitwise_flip", seed=5)
        dists = (ds.label_array() != noisy.label_array()).sum(axis=1)
        assert np.mean(dists) == pytest.approx(2.5, abs=0.1)

    def test_everything_but_labels_untouched(self, fixture):
        forget = fixture["forget"]
        noisy = random_relabel(forget, "exclude_original", seed=6)
        assert noisy.ids() == forget.ids()
        assert np.array_equal(noisy.patient_array(), forget.patient_array())
        assert np.array_equal(noisy.group_array(), forget.group_array())
        assert np.array_equal(noisy.feature_array(), forget.feature_array())

    def test_deterministic(self, fixture):
        a = random_relabel(fixture["forget"], "exclude_original", seed=7)
        b = random_relabel(fixture["forget"], "exclude_original", seed=7)
        assert np.array_equal(a.label_array(), b.label_array())

    def test_policy_task_mismatch(self, fixture):
        with pytest.raises(ValueError, match="multi-label"):
            random_relabel(fixture["forget"], "bitwise_flip", seed=0)

    @pytest.mark.parametrize(
        "policy,task_kind,message",
        [
            ("foo", "single_label", "unknown relabel_policy 'foo'"),
            ("foo", "multi_label", "unknown relabel_policy 'foo'"),
            ("bitwise_flip", "single_label", "bitwise_flip applies to multi-label datasets"),
            ("exclude_original", "multi_label", "exclude_original applies to single-label datasets"),
            ("uniform", "multi_label", "uniform applies to single-label datasets"),
            ("bitwise_flip", "xx", "task_kind must be 'single_label' or 'multi_label', got 'xx'"),
            ("exclude_original", "xx", "task_kind must be 'single_label' or 'multi_label', got 'xx'"),
        ],
    )
    def test_policy_check(self, policy, task_kind, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_relabel_policy(policy, task_kind)

    @pytest.mark.parametrize("labels,task_kind,policy", [
        ([0, 1], "single_label", "exclude_original"),
        ([[0, 1], [1, 0]], "multi_label", "bitwise_flip"),
    ])
    def test_default_policy(self, labels, task_kind, policy):
        ds = constant_dataset(labels, task_kind, 2)
        default = unlearn.noisy_forget_set(ds, None, 3)
        expected = random_relabel(ds, policy, derive_seed(3, "relabel"))
        assert np.array_equal(default.label_array(), expected.label_array())


class TestExactUnlearn:
    def test_deterministic(self, fixture):
        a = exact_unlearn(fixture["model"], fixture["retain"], fixture["train_cfg"], seed=11)
        b = exact_unlearn(fixture["model"], fixture["retain"], fixture["train_cfg"], seed=11)
        assert np.array_equal(a.params, b.params)

    def test_independent_of_pretrained_params(self, fixture):
        from unforget.nn_core import clone_with_params

        perturbed = clone_with_params(fixture["model"], fixture["model"].params + 0.5)
        a = exact_unlearn(fixture["model"], fixture["retain"], fixture["train_cfg"], seed=11)
        b = exact_unlearn(perturbed, fixture["retain"], fixture["train_cfg"], seed=11)
        assert np.array_equal(a.params, b.params)

    def test_empty_forget_same_seed_reproduces_pretraining(self, fixture):
        # retain == train and the original seed: same procedure, same data,
        # same seed, bit-identical weights.
        retrained = exact_unlearn(fixture["model"], fixture["train"], fixture["train_cfg"], seed=5)
        assert np.array_equal(retrained.params, fixture["model"].params)

    def test_empty_retain_rejected(self, fixture):
        with pytest.raises(ValueError, match="^empty dataset$"):
            exact_unlearn(
                fixture["model"],
                fixture["retain"].subset([]),
                fixture["train_cfg"],
                seed=0,
            )


class TestComputeSaliencyMask:
    def test_deterministic_and_batch_independent(self, fixture):
        a = compute_saliency_mask(fixture["model"], fixture["forget"], 1e-3)
        b = compute_saliency_mask(fixture["model"], fixture["forget"], 1e-3)
        assert np.array_equal(a, b)

    def test_does_not_mutate_model(self, fixture):
        model = fixture["model"]
        params_before = model.params.copy()
        stats_before = {i: (m.copy(), v.copy()) for i, (m, v) in model.batchnorm_stats.items()}
        compute_saliency_mask(model, fixture["forget"], 1e-3)
        assert np.array_equal(model.params, params_before)
        for i, (m, v) in model.batchnorm_stats.items():
            assert np.array_equal(m, stats_before[i][0])
            assert np.array_equal(v, stats_before[i][1])

    def test_monotone_in_threshold(self, fixture):
        low = compute_saliency_mask(fixture["model"], fixture["forget"], 1e-4)
        high = compute_saliency_mask(fixture["model"], fixture["forget"], 1e-2)
        assert high.sum() <= low.sum()
        assert np.all(low >= high)

    @pytest.mark.parametrize("threshold", [0.0, 1e-3, 2e-3])
    def test_is_the_thresholded_forget_gradient(self, fixture, threshold):
        # The sweep thresholds one forget gradient per cell; it must give the
        # masks a per-run computation gives.
        mask = compute_saliency_mask(fixture["model"], fixture["forget"], threshold)
        grad = forget_gradient(fixture["model"], fixture["forget"])
        assert np.array_equal(mask, mask_from_gradient(grad, threshold))

    def test_empty_forget_rejected(self, fixture):
        with pytest.raises(ValueError, match="empty"):
            compute_saliency_mask(fixture["model"], fixture["forget"].subset([]), 0.1)

    @pytest.mark.parametrize("threshold", [-0.1, np.nan, np.inf])
    def test_bad_threshold_rejected_before_the_gradient(self, fixture, threshold, monkeypatch):
        def no_gradient(*args):
            raise AssertionError("the forget gradient was computed")

        monkeypatch.setattr(unlearn, "forget_gradient", no_gradient)
        with pytest.raises(ValueError, match="^threshold must be >= 0 and finite"):
            compute_saliency_mask(fixture["model"], fixture["forget"], threshold)


class TestRelabelFinetune:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs must be >= 1, got 0"):
            UnlearnConfig("relabel", epochs=0, lr=1e-3, seed=1)

    def test_all_zero_mask_moves_nothing_but_bn_stats(self, fixture):
        cfg = UnlearnConfig("relabel", epochs=1, lr=1e-2, seed=2)
        noisy = random_relabel(fixture["forget"], "exclude_original", seed=2)
        mask = np.zeros(fixture["model"].num_params, dtype=bool)
        out = relabel_finetune(fixture["model"], fixture["retain"], noisy, cfg, mask=mask)
        assert np.array_equal(out.params, fixture["model"].params)
        moved = any(
            not np.array_equal(out.batchnorm_stats[i][0], fixture["model"].batchnorm_stats[i][0])
            for i in out.batchnorm_stats
        )
        assert moved

    def test_empty_fine_tune_set_rejected(self, fixture):
        empty = fixture["retain"].subset([])
        cfg = UnlearnConfig("relabel", epochs=1, lr=1e-3, seed=0)
        with pytest.raises(ValueError, match="^empty dataset$"):
            relabel_finetune(fixture["model"], empty, empty, cfg)

    def test_task_kind_mismatch_rejected(self, fixture):
        other = LabeledDataset(
            [10_000], np.full((1, 1, 8, 8), 0.5), [[0, 1, 0]], [0], [0], "multi_label", 3
        )
        cfg = UnlearnConfig("relabel", epochs=1, lr=1e-3, seed=0)
        with pytest.raises(ValueError, match="task kinds"):
            relabel_finetune(fixture["model"], fixture["retain"], other, cfg)


class TestSaliencyUnlearn:
    def test_huge_threshold_returns_pretrained_params(self, fixture):
        cfg = UnlearnConfig("salun", epochs=1, lr=1e-3, threshold=1e9, seed=3)
        out = saliency_unlearn(fixture["model"], fixture["forget"], fixture["retain"], cfg)
        assert np.array_equal(out.params, fixture["model"].params)

    def test_threshold_zero_equals_relabel_run(self, fixture):
        salun_cfg = UnlearnConfig("salun", epochs=1, lr=1e-3, threshold=0.0, seed=4)
        relabel_cfg = UnlearnConfig("relabel", epochs=1, lr=1e-3, seed=4)
        a = saliency_unlearn(fixture["model"], fixture["forget"], fixture["retain"], salun_cfg)
        b = relabel_unlearn(fixture["model"], fixture["forget"], fixture["retain"], relabel_cfg)
        assert np.array_equal(a.params, b.params)

    def test_frozen_coordinates_keep_pretrained_values(self, fixture):
        cfg = UnlearnConfig("salun", epochs=2, lr=1e-2, threshold=2e-3, seed=5)
        mask = compute_saliency_mask(fixture["model"], fixture["forget"], cfg.threshold)
        assert 0 < mask.sum() < mask.size
        out = saliency_unlearn(fixture["model"], fixture["forget"], fixture["retain"], cfg)
        frozen = ~mask
        assert np.array_equal(out.params[frozen], fixture["model"].params[frozen])
        assert not np.array_equal(out.params[~frozen], fixture["model"].params[~frozen])

    def test_wrong_config_algorithm_rejected(self, fixture):
        cfg = UnlearnConfig("relabel", epochs=1, lr=1e-3, seed=0)
        with pytest.raises(ValueError, match="salun"):
            saliency_unlearn(fixture["model"], fixture["forget"], fixture["retain"], cfg)
