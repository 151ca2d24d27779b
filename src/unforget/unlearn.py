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

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, concat_datasets
from .nn_core import ModelState, loss_and_grad
from .optim import TrainConfig, train, train_from_scratch
from .seeding import derive_seed

__all__ = [
    "SaliencyMask",
    "UnlearnConfig",
    "exact_unlearn",
    "random_relabel",
    "relabel_finetune",
    "noisy_forget_set",
    "forget_gradient",
    "task_loss_kind",
    "compute_saliency_mask",
    "saliency_unlearn",
    "relabel_unlearn",
    "mask_from_gradient",
    "default_relabel_policy",
]

ALGORITHMS = ("exact", "relabel", "salun")
RELABEL_POLICIES = ("exclude_original", "uniform", "bitwise_flip")


@dataclass(frozen=True)
class SaliencyMask:
    """Per-parameter trainability bits aligned with ModelState.params:
    bit 1 = update during unlearning, bit 0 = frozen."""

    bits: np.ndarray
    threshold: float
    source: str = ""

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if ((bits != 0) & (bits != 1)).any():
            raise ValueError("mask bits must be 0 or 1")
        if self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        object.__setattr__(self, "bits", bits)

    @property
    def n_trainable(self) -> int:
        return int(self.bits.sum())


def mask_from_gradient(grad: np.ndarray, threshold: float, source: str = "") -> SaliencyMask:
    """Bit i is 1 when |grad_i| exceeds the threshold (strictly).

    A threshold of exactly 0 disables masking (all bits 1): coordinates with
    an exactly-zero forget gradient (dead ReLU paths) would otherwise stay
    frozen and the degenerate run would not reduce to plain relabel
    fine-tuning."""
    grad = np.asarray(grad, dtype=np.float64)
    if threshold == 0.0:
        bits = np.ones(grad.shape, dtype=np.uint8)
    else:
        bits = (np.abs(grad) > threshold).astype(np.uint8)
    return SaliencyMask(bits=bits, threshold=float(threshold), source=source)


@dataclass(frozen=True)
class UnlearnConfig:
    """Settings for one unlearning run. ``threshold`` is required for salun
    and rejected otherwise; ``relabel_policy`` of None picks the task default
    (exclude_original for single-label, bitwise_flip for multi-label).
    epochs=0 is permitted only as an identity check in tests."""

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
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if (self.threshold is not None) != (self.algorithm == "salun"):
            raise ValueError("threshold is required for salun and only for salun")
        if self.relabel_policy is not None and self.relabel_policy not in RELABEL_POLICIES:
            raise ValueError(f"unknown relabel_policy {self.relabel_policy!r}")


def default_relabel_policy(ds: LabeledDataset) -> str:
    return "exclude_original" if ds.task_kind == "single_label" else "bitwise_flip"


def task_loss_kind(ds: LabeledDataset) -> str:
    """The loss a dataset's task trains with: "ce" or "bce"."""
    return "ce" if ds.task_kind == "single_label" else "bce"


def exact_unlearn(
    pretrained: ModelState, retain: LabeledDataset, train_cfg: TrainConfig, seed: int
) -> ModelState:
    """Retrain from random initialization on the retain set, using the same
    recipe as the original training. The pretrained parameters contribute
    nothing but the architecture."""
    if len(retain) == 0:
        raise ValueError("empty retain set")
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
    if policy not in RELABEL_POLICIES:
        raise ValueError(f"unknown relabel_policy {policy!r}")
    k, n = forget.num_outputs, len(forget)
    rng = np.random.default_rng(seed)
    if policy == "bitwise_flip":
        if forget.task_kind != "multi_label":
            raise ValueError("bitwise_flip applies to multi-label datasets")
        new_labels = rng.integers(0, 2, size=(n, k)).astype(np.int8)
    else:
        if forget.task_kind != "single_label":
            raise ValueError(f"{policy} applies to single-label datasets")
        if policy == "exclude_original" and k < 2:
            raise ValueError("exclude_original needs at least 2 classes")
        if policy == "exclude_original":
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
    policy = relabel_policy or default_relabel_policy(forget)
    return random_relabel(forget, policy, derive_seed(seed, "relabel"))


def relabel_finetune(
    pretrained: ModelState,
    retain: LabeledDataset,
    noisy_forget: LabeledDataset,
    cfg: UnlearnConfig,
    mask: SaliencyMask | None = None,
) -> ModelState:
    """Fine-tune the pretrained model on retain plus the noisy forget set.

    The cosine schedule is re-initialized over the fine-tune duration from
    cfg.lr down to 0.1 * cfg.lr. With a mask, every bit-0 parameter stays
    frozen throughout (only BatchNorm running statistics may still move)."""
    combined = concat_datasets(retain, noisy_forget)
    if len(combined) == 0:
        raise ValueError("empty combined fine-tune set")
    tc = TrainConfig(
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        lr0=cfg.lr,
        loss_kind=task_loss_kind(combined),
        seed=derive_seed(cfg.seed, "shuffle"),
        mask=mask,
    )
    model, _ = train(pretrained, combined, tc)
    return model


def forget_gradient(
    pretrained: ModelState, forget: LabeledDataset, loss_kind: str
) -> np.ndarray:
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
    chunk = 256
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        _, grad = loss_and_grad(
            pretrained,
            features[start:stop],
            labels[start:stop],
            loss_kind,
            bn_mode="eval",
            update_stats=False,
        )
        total += grad * (stop - start)
    return total / n


def compute_saliency_mask(
    pretrained: ModelState, forget: LabeledDataset, threshold: float, loss_kind: str
) -> SaliencyMask:
    """Threshold the forget-set gradient magnitude into a trainability mask."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    return mask_from_gradient(
        forget_gradient(pretrained, forget, loss_kind),
        threshold,
        source=f"forget_n={len(forget)},threshold={threshold}",
    )


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
    seed streams with relabel_unlearn, so a threshold of 0 (all-ones mask)
    reproduces that run exactly."""
    if cfg.algorithm != "salun":
        raise ValueError(f"config is for {cfg.algorithm!r}, expected 'salun'")
    mask = compute_saliency_mask(pretrained, forget, cfg.threshold, task_loss_kind(forget))
    noisy = noisy_forget_set(forget, cfg.relabel_policy, cfg.seed)
    return relabel_finetune(pretrained, retain, noisy, cfg, mask=mask)
