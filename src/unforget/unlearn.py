"""The three unlearning algorithms.

exact: reinitialize and retrain from scratch on the retain set with the
original recipe. relabel: draw random labels for the forget set once, then
fine-tune the pretrained model on retain plus the noisy forget set. salun:
like relabel, but first threshold the magnitude of the forget-set gradient
into a per-parameter mask and freeze every mask-0 parameter during the
fine-tune.

The saliency gradient uses the forget set's original labels and eval-mode
BatchNorm, so it measures the influence of the true data and is independent
of batch composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, concat_datasets
from .nn_core import EVAL_BATCH, TASK_KINDS, ModelState, kind_of, loss_and_grad
from .optim import TrainConfig, train, train_from_scratch
from .seeding import derive_seed

__all__ = [
    "UnlearnConfig",
    "check_relabel_policy",
    "exact_unlearn",
    "random_relabel",
    "relabel_finetune",
    "noisy_forget_set",
    "forget_gradient",
    "compute_saliency_mask",
    "saliency_unlearn",
    "relabel_unlearn",
    "mask_from_gradient",
]

ALGORITHMS = ("exact", "relabel", "salun")
RELABEL_POLICIES = tuple(policy for kind in TASK_KINDS for policy in kind.relabel_policies)


def _check_threshold(threshold: float) -> None:
    """Raise ValueError unless ``threshold`` is a usable saliency threshold."""
    if not 0 <= threshold < math.inf:  # NaN fails every comparison
        raise ValueError(f"threshold must be >= 0 and finite, got {threshold}")


def mask_from_gradient(grad: np.ndarray, threshold: float) -> np.ndarray:
    """The saliency mask: a boolean vector aligned with ModelState.params,
    True (trainable) where |grad_i| exceeds the threshold (strictly).

    A threshold of exactly 0 disables masking (all True): coordinates with
    an exactly-zero forget gradient (dead ReLU paths) would otherwise stay
    frozen and the degenerate run would not reduce to plain relabel
    fine-tuning. A NaN or infinite threshold is rejected: it would freeze
    every coordinate."""
    _check_threshold(threshold)
    grad = np.asarray(grad, dtype=np.float64)
    if threshold == 0.0:
        return np.ones(grad.shape, dtype=bool)
    return np.abs(grad) > threshold


@dataclass(frozen=True)
class UnlearnConfig:
    """Settings for one unlearning run. ``threshold`` is required for salun
    and rejected otherwise; ``relabel_policy`` of None picks the task kind's
    default, the first of its ``relabel_policies`` (exclude_original for
    single-label, bitwise_flip for multi-label)."""

    algorithm: str
    epochs: int = 2
    lr: float = 1e-3
    threshold: float | None = None
    seed: int = 0
    relabel_policy: str | None = None
    batch_size: int = 32

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.lr < math.inf:  # NaN fails every comparison
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if (self.threshold is not None) != (self.algorithm == "salun"):
            raise ValueError("threshold is required for salun and only for salun")
        if self.threshold is not None:
            _check_threshold(self.threshold)
        if self.relabel_policy is not None:
            check_relabel_policy(self.relabel_policy)


def check_relabel_policy(policy: str, task_kind: str | None = None) -> None:
    """Raise ValueError unless ``policy`` is a known relabel policy and, for
    a ``task_kind``, one that fits it, as its ``TASK_KINDS`` record lists them."""
    if policy not in RELABEL_POLICIES:
        raise ValueError(f"unknown relabel_policy {policy!r}")
    if task_kind is not None and policy not in kind_of(task_kind).relabel_policies:
        owner = next(kind.name for kind in TASK_KINDS if policy in kind.relabel_policies)
        raise ValueError(f"{policy} applies to {owner.replace('_', '-')} datasets")


def exact_unlearn(
    pretrained: ModelState, retain: LabeledDataset, train_cfg: TrainConfig, seed: int
) -> ModelState:
    """Retrain from random initialization on the retain set, using the same
    recipe as the original training. The pretrained parameters contribute
    nothing but the architecture."""
    model, _ = train_from_scratch(pretrained.arch, retain, train_cfg, seed)
    return model


def random_relabel(forget: LabeledDataset, policy: str, seed: int) -> LabeledDataset:
    """The noisy forget set: labels resampled per policy, everything else
    (features, ids, patients, groups) untouched.

    exclude_original draws uniformly over the other classes, uniform over all
    classes; bitwise_flip replaces every label bit with an independent fair
    coin."""
    if len(forget) == 0:
        raise ValueError("empty forget set")
    check_relabel_policy(policy, forget.task_kind)
    k, n = forget.num_outputs, len(forget)
    rng = np.random.default_rng(seed)
    if policy == "bitwise_flip":
        new_labels = rng.integers(0, 2, size=(n, k)).astype(np.int8)
    elif policy == "exclude_original":
        new_labels = (forget.label_array() + 1 + rng.integers(k - 1, size=n)) % k
    else:
        new_labels = rng.integers(k, size=n)
    return forget.with_labels(new_labels)


def noisy_forget_set(
    forget: LabeledDataset, relabel_policy: str | None, seed: int
) -> LabeledDataset:
    """The noisy forget set a relabel or salun run with this seed fine-tunes
    on; a policy of None picks the task default. It does not depend on lr or
    threshold, so every point of a sweep shares it."""
    policy = relabel_policy or kind_of(forget.task_kind).relabel_policies[0]
    return random_relabel(forget, policy, derive_seed(seed, "relabel"))


def relabel_finetune(
    pretrained: ModelState,
    retain: LabeledDataset,
    noisy_forget: LabeledDataset,
    cfg: UnlearnConfig,
    mask: np.ndarray | None = None,
) -> ModelState:
    """Fine-tune the pretrained model on retain plus the noisy forget set.

    The cosine schedule is re-initialized over the fine-tune duration from
    cfg.lr down to 0.1 * cfg.lr. With a mask, ``train`` zeroes the gradient
    at every False coordinate from zero Adam moments, so those parameters
    stay frozen throughout (only BatchNorm running statistics may move)."""
    combined = concat_datasets(retain, noisy_forget)
    recipe = TrainConfig(cfg.epochs, cfg.batch_size, cfg.lr)
    model, _ = train(pretrained, combined, recipe, derive_seed(cfg.seed, "shuffle"), mask)
    return model


def forget_gradient(pretrained: ModelState, forget: LabeledDataset) -> np.ndarray:
    """The mean over all forget samples of d(loss)/d(params), accumulated over
    chunks with eval-mode BatchNorm (no sampling, no model mutation), so the
    result is a deterministic function of (model, forget). It does not depend
    on the saliency threshold."""
    if len(forget) == 0:
        raise ValueError("empty forget set")
    features = forget.feature_array()
    labels = forget.label_array()
    total = np.zeros_like(pretrained.params)
    n = len(forget)
    for start in range(0, n, EVAL_BATCH):
        stop = min(start + EVAL_BATCH, n)
        _, grad = loss_and_grad(
            pretrained, features[start:stop], labels[start:stop], forget.task_kind, bn_mode="eval"
        )
        total += grad * (stop - start)
    return total / n


def compute_saliency_mask(
    pretrained: ModelState, forget: LabeledDataset, threshold: float
) -> np.ndarray:
    """Threshold the forget-set gradient magnitude into a trainability mask."""
    _check_threshold(threshold)
    return mask_from_gradient(forget_gradient(pretrained, forget), threshold)


def relabel_unlearn(
    pretrained: ModelState,
    forget: LabeledDataset,
    retain: LabeledDataset,
    cfg: UnlearnConfig,
) -> ModelState:
    """Random relabeling end to end: draw the noisy forget set once, then
    fine-tune on retain plus noisy forget with all parameters trainable."""
    if cfg.algorithm != "relabel":
        raise ValueError(f"config is for {cfg.algorithm!r}, expected 'relabel'")
    noisy = noisy_forget_set(forget, cfg.relabel_policy, cfg.seed)
    return relabel_finetune(pretrained, retain, noisy, cfg, mask=None)


def saliency_unlearn(
    pretrained: ModelState,
    forget: LabeledDataset,
    retain: LabeledDataset,
    cfg: UnlearnConfig,
) -> ModelState:
    """Saliency unlearning: saliency mask from the forget-set gradient, noisy
    forget set, then masked relabel fine-tuning. Shares the relabel/shuffle
    seed streams with relabel_unlearn, so a threshold of 0 (all-True mask)
    reproduces that run exactly."""
    if cfg.algorithm != "salun":
        raise ValueError(f"config is for {cfg.algorithm!r}, expected 'salun'")
    mask = compute_saliency_mask(pretrained, forget, cfg.threshold)
    noisy = noisy_forget_set(forget, cfg.relabel_policy, cfg.seed)
    return relabel_finetune(pretrained, retain, noisy, cfg, mask=mask)
