"""Adam with per-parameter freeze masks, plus the cosine learning-rate
schedule and the seeded mini-batch training loop.

A freeze mask zeroes the gradient at its bit-0 coordinates. Every training
run starts from zero moments, so a frozen parameter and its moments never
move: freezing a coordinate removes it from the optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .nn_core import ArchSpec, ModelState, clone_with_params, init_model, loss_and_grad
from .seeding import derive_seed

__all__ = [
    "AdamState",
    "LrSchedule",
    "TrainConfig",
    "adam_step",
    "cosine_lr",
    "task_loss_kind",
    "train",
    "train_from_scratch",
]

# Adam's moment decay rates and the denominator's stabilizer (Kingma & Ba's defaults).
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0

    @classmethod
    def fresh(cls, num_params: int) -> "AdamState":
        return cls(
            m=np.zeros(num_params),
            v=np.zeros(num_params),
        )


def _mask_bits(mask, params: np.ndarray) -> np.ndarray:
    """The trainable coordinates of ``mask`` as booleans, checked against
    the length of ``params``."""
    sel = np.asarray(getattr(mask, "bits", mask)) != 0
    if sel.shape != params.shape:
        raise ValueError(f"mask length {sel.size} != params length {params.size}")
    return sel


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    mask=None,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns (new params, new state).

    ``mask`` (a SaliencyMask or any 0/1 vector) zeroes the gradient at its
    bit-0 coordinates. Where those coordinates' moments are zero, as in every
    state ``train`` steps (it starts from ``AdamState.fresh`` with one mask),
    they keep their parameter values and zero moments bit-for-bit; nonzero
    moments there would decay and keep moving the parameter.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if any(a.shape != params.shape for a in (grads, state.m, state.v)):
        raise ValueError("params, grads, and Adam moments must share one length")
    if not np.isfinite(grads).all():
        raise FloatingPointError("non-finite gradient")
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")

    if mask is not None:  # grads are finite, so frozen coordinates become ±0.0
        grads = grads * _mask_bits(mask, params)

    t = state.step_count + 1
    # One full-vector update, identical with and without a mask. In-place
    # steps keep the operation order of
    #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
    #   params - (lr * m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps)
    # so the bits match the expression form.
    m = BETA1 * state.m
    m += (1.0 - BETA1) * grads
    v = BETA2 * state.v
    tmp = np.square(grads)
    tmp *= 1.0 - BETA2
    v += tmp
    den = np.divide(v, 1.0 - BETA2**t, out=tmp)
    np.sqrt(den, out=den)
    den += EPSILON
    step = np.divide(m, 1.0 - BETA1**t)
    step *= lr
    step /= den
    stepped = np.subtract(params, step, out=step)
    return stepped, replace(state, m=m, v=v, step_count=t)


@dataclass(frozen=True)
class LrSchedule:
    lr0: float
    eta_min: float
    total_steps: int

    def __post_init__(self):
        if not (0.0 <= self.eta_min <= self.lr0):
            raise ValueError(f"need 0 <= eta_min <= lr0, got {self.eta_min}, {self.lr0}")
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")


def cosine_lr(schedule: LrSchedule, step: int) -> float:
    """Cosine annealing from lr0 (step 0) down to eta_min (step total_steps)."""
    if not (0 <= step <= schedule.total_steps):
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    span = schedule.lr0 - schedule.eta_min
    return schedule.eta_min + 0.5 * span * (1.0 + math.cos(math.pi * step / schedule.total_steps))


@dataclass(frozen=True)
class TrainConfig:
    """Recipe for one training run. The schedule decays to ``floor``, one
    decade below the initial rate."""

    epochs: int = 6
    batch_size: int = 32
    lr0: float = 1e-3
    seed: int = 0
    mask: object = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr0 <= 0:
            raise ValueError(f"lr0 must be positive, got {self.lr0}")

    @property
    def floor(self) -> float:
        return 0.1 * self.lr0


def task_loss_kind(ds) -> str:
    """The loss a dataset's task trains with: "ce" or "bce"."""
    return "ce" if ds.task_kind == "single_label" else "bce"


def train(model: ModelState, data, cfg: TrainConfig) -> tuple[ModelState, list[float]]:
    """Seeded mini-batch training on the loss of the data's task kind;
    returns the last-epoch model and the per-epoch mean loss trace.

    Shuffling and batching come from ``default_rng(cfg.seed)``, the schedule
    advances one cosine step per optimizer step over epochs * batches_per_epoch
    steps, and the final incomplete batch is kept. Deterministic given
    (model, data, cfg).
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    mask = None if cfg.mask is None else _mask_bits(cfg.mask, model.params)
    model = clone_with_params(model, model.params)
    if cfg.epochs == 0:
        return model, []

    features = data.feature_array()
    labels = data.label_array()
    loss_kind = task_loss_kind(data)
    n = len(data)
    batches_per_epoch = -(-n // cfg.batch_size)
    schedule = LrSchedule(cfg.lr0, cfg.floor, cfg.epochs * batches_per_epoch)
    adam = AdamState.fresh(model.num_params)
    rng = np.random.default_rng(cfg.seed)

    step = 0
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for b in range(batches_per_epoch):
            idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            lr = cosine_lr(schedule, step)
            loss, grad = loss_and_grad(model, features[idx], labels[idx], loss_kind)
            model.params, adam = adam_step(model.params, grad, adam, lr, mask)
            epoch_losses.append(loss)
            step += 1
        trace.append(float(np.mean(epoch_losses)))
    return model, trace


def train_from_scratch(
    arch: ArchSpec, data, cfg: TrainConfig, seed: int
) -> tuple[ModelState, list[float]]:
    """Fresh initialization plus a full training run, with init and shuffle
    streams derived from one seed. Original pretraining and exact retraining
    both come through here, so equal seeds give bit-equal models."""
    model = init_model(arch, derive_seed(seed, "init"))
    cfg = replace(cfg, seed=derive_seed(seed, "shuffle"))
    return train(model, data, cfg)
