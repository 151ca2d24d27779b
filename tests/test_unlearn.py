"""Unlearning algorithm tests: mask thresholding, relabel policies, freeze
behavior, exact-retraining identities, and the degenerate compositions."""

import numpy as np
import pytest

from unforget.data import LabeledDataset, SyntheticSpec, generate_synthetic, split_forget_retain, split_train_val_test
from unforget.nn_core import ArchSpec, BatchNorm, Conv2D, Dense, GlobalAvgPool, ReLU, init_model
from unforget.optim import TrainConfig, train_from_scratch
from unforget.unlearn import (
    SaliencyMask,
    UnlearnConfig,
    compute_saliency_mask,
    default_relabel_policy,
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
    cfg = TrainConfig(epochs=2, batch_size=32, lr0=1e-3, loss_kind="ce")
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
        assert np.array_equal(mask.bits, [1, 0, 1])

    def test_threshold_zero_trains_everything(self):
        mask = mask_from_gradient(np.array([0.5, 0.0, -0.2]), 0.0)
        assert np.array_equal(mask.bits, [1, 1, 1])

    def test_threshold_above_max_freezes_everything(self):
        mask = mask_from_gradient(np.array([0.5, -0.05, 0.2]), 0.6)
        assert np.array_equal(mask.bits, [0, 0, 0])

    def test_strict_inequality(self):
        mask = mask_from_gradient(np.array([0.1, 0.100001]), 0.1)
        assert np.array_equal(mask.bits, [0, 1])

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError, match="bits"):
            SaliencyMask(bits=np.array([0, 2]), threshold=0.1)


class TestUnlearnConfig:
    def test_threshold_only_for_salun(self):
        with pytest.raises(ValueError, match="threshold"):
            UnlearnConfig(algorithm="relabel", threshold=0.1)
        with pytest.raises(ValueError, match="threshold"):
            UnlearnConfig(algorithm="salun")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            UnlearnConfig(algorithm="sisa")


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

    def test_default_policy(self, fixture):
        assert default_relabel_policy(fixture["forget"]) == "exclude_original"


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
        with pytest.raises(ValueError):
            exact_unlearn(
                fixture["model"],
                fixture["retain"].subset([]),
                fixture["train_cfg"],
                seed=0,
            )


class TestComputeSaliencyMask:
    def test_deterministic_and_batch_independent(self, fixture):
        a = compute_saliency_mask(fixture["model"], fixture["forget"], 1e-3, "ce")
        b = compute_saliency_mask(fixture["model"], fixture["forget"], 1e-3, "ce")
        assert np.array_equal(a.bits, b.bits)

    def test_does_not_mutate_model(self, fixture):
        model = fixture["model"]
        params_before = model.params.copy()
        stats_before = {i: (m.copy(), v.copy()) for i, (m, v) in model.batchnorm_stats.items()}
        compute_saliency_mask(model, fixture["forget"], 1e-3, "ce")
        assert np.array_equal(model.params, params_before)
        for i, (m, v) in model.batchnorm_stats.items():
            assert np.array_equal(m, stats_before[i][0])
            assert np.array_equal(v, stats_before[i][1])

    def test_monotone_in_threshold(self, fixture):
        low = compute_saliency_mask(fixture["model"], fixture["forget"], 1e-4, "ce")
        high = compute_saliency_mask(fixture["model"], fixture["forget"], 1e-2, "ce")
        assert high.n_trainable <= low.n_trainable
        assert np.all(low.bits >= high.bits)

    @pytest.mark.parametrize("threshold", [0.0, 1e-3, 2e-3])
    def test_is_the_thresholded_forget_gradient(self, fixture, threshold):
        # The sweep thresholds one forget gradient per cell; it must give the
        # masks a per-run computation gives.
        mask = compute_saliency_mask(fixture["model"], fixture["forget"], threshold, "ce")
        grad = forget_gradient(fixture["model"], fixture["forget"], "ce")
        assert np.array_equal(mask.bits, mask_from_gradient(grad, threshold).bits)

    def test_empty_forget_rejected(self, fixture):
        with pytest.raises(ValueError, match="empty"):
            compute_saliency_mask(fixture["model"], fixture["forget"].subset([]), 0.1, "ce")


class TestRelabelFinetune:
    def test_zero_epochs_identity(self, fixture):
        cfg = UnlearnConfig("relabel", epochs=0, lr=1e-3, seed=1)
        noisy = random_relabel(fixture["forget"], "exclude_original", seed=1)
        out = relabel_finetune(fixture["model"], fixture["retain"], noisy, cfg)
        assert np.array_equal(out.params, fixture["model"].params)

    def test_all_zero_mask_moves_nothing_but_bn_stats(self, fixture):
        cfg = UnlearnConfig("relabel", epochs=1, lr=1e-2, seed=2)
        noisy = random_relabel(fixture["forget"], "exclude_original", seed=2)
        mask = SaliencyMask(bits=np.zeros(fixture["model"].num_params, dtype=np.uint8), threshold=1e9)
        out = relabel_finetune(fixture["model"], fixture["retain"], noisy, cfg, mask=mask)
        assert np.array_equal(out.params, fixture["model"].params)
        moved = any(
            not np.array_equal(out.batchnorm_stats[i][0], fixture["model"].batchnorm_stats[i][0])
            for i in out.batchnorm_stats
        )
        assert moved

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
        mask = compute_saliency_mask(fixture["model"], fixture["forget"], cfg.threshold, "ce")
        assert 0 < mask.n_trainable < mask.bits.size
        out = saliency_unlearn(fixture["model"], fixture["forget"], fixture["retain"], cfg)
        frozen = mask.bits == 0
        assert np.array_equal(out.params[frozen], fixture["model"].params[frozen])
        assert not np.array_equal(out.params[~frozen], fixture["model"].params[~frozen])

    def test_wrong_config_algorithm_rejected(self, fixture):
        cfg = UnlearnConfig("relabel", epochs=1, lr=1e-3, seed=0)
        with pytest.raises(ValueError, match="salun"):
            saliency_unlearn(fixture["model"], fixture["forget"], fixture["retain"], cfg)
