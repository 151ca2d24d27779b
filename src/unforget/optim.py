"""Adam with per-parameter freeze masks, plus the cosine learning-rate
schedule and the seeded mini-batch training loop.

Frozen parameters (mask bit 0) skip the parameter update *and* the moment
updates, so freezing a coordinate is equivalent to removing it from the
optimization problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .nn_core import ArchSpec, ModelState, clone_model, init_model, loss_and_grad
from .seeding import derive_seed

__all__ = [
    "AdamState",
    "LrSchedule",
    "TrainConfig",
    "adam_step",
    "cosine_lr",
    "train",
    "train_from_scratch",
]


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def fresh(cls, num_params: int, beta1=0.9, beta2=0.999, epsilon=1e-8) -> "AdamState":
        return cls(
            m=np.zeros(num_params),
            v=np.zeros(num_params),
            beta1=beta1,
            beta2=beta2,
            epsilon=epsilon,
        )


def _mask_bits(mask) -> np.ndarray | None:
    if mask is None:
        return None
    bits = np.asarray(getattr(mask, "bits", mask))
    return bits != 0


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    mask=None,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns (new params, new state).

    ``mask`` (a SaliencyMask or any 0/1 vector) restricts the update: bit-0
    coordinates keep their parameter values and moment estimates bit-for-bit.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != params.shape or state.m.shape != params.shape:
        raise ValueError("params, grads, and Adam moments must share one length")
    if not np.isfinite(grads).all():
        raise FloatingPointError("non-finite gradient")
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")

    sel = _mask_bits(mask)
    if sel is not None and sel.shape != params.shape:
        raise ValueError(f"mask length {sel.size} != params length {params.size}")

    t = state.step_count + 1
    # One full-vector update, identical with and without a mask; frozen
    # coordinates then get their old values written back verbatim. In-place
    # steps keep the operation order of
    #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
    #   params - (lr * m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps)
    # so the bits match the expression form.
    m = state.beta1 * state.m
    m += (1.0 - state.beta1) * grads
    v = state.beta2 * state.v
    tmp = np.square(grads)
    tmp *= 1.0 - state.beta2
    v += tmp
    den = np.divide(v, 1.0 - state.beta2**t, out=tmp)
    np.sqrt(den, out=den)
    den += state.epsilon
    step = np.divide(m, 1.0 - state.beta1**t)
    step *= lr
    step /= den
    stepped = np.subtract(params, step, out=step)
    if sel is not None:
        # m, v and stepped are new arrays, so the inputs stay untouched.
        frozen = np.flatnonzero(~sel)
        m[frozen] = state.m[frozen]
        v[frozen] = state.v[frozen]
        stepped[frozen] = params[frozen]
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
    """Recipe for one training run. ``eta_min`` defaults to 0.1 * lr0 (the
    schedule decays to a floor one decade below the initial rate)."""

    epochs: int = 6
    batch_size: int = 32
    lr0: float = 1e-3
    loss_kind: str = "ce"
    seed: int = 0
    mask: object = None
    eta_min: float | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr0 <= 0:
            raise ValueError(f"lr0 must be positive, got {self.lr0}")
        if self.loss_kind not in ("ce", "bce"):
            raise ValueError(f"loss_kind must be 'ce' or 'bce', got {self.loss_kind!r}")

    @property
    def floor(self) -> float:
        return 0.1 * self.lr0 if self.eta_min is None else self.eta_min


def train(model: ModelState, data, cfg: TrainConfig) -> tuple[ModelState, list[float]]:
    """Seeded mini-batch training; returns the last-epoch model and the
    per-epoch mean loss trace.

    Shuffling and batching come from ``default_rng(cfg.seed)``, the schedule
    advances one cosine step per optimizer step over epochs * batches_per_epoch
    steps, and the final incomplete batch is kept. Deterministic given
    (model, data, cfg).
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    expected_loss = "ce" if data.task_kind == "single_label" else "bce"
    if cfg.loss_kind != expected_loss:
        raise ValueError(
            f"{data.task_kind} data needs loss_kind {expected_loss!r}, got {cfg.loss_kind!r}"
        )
    model = clone_model(model)
    if cfg.epochs == 0:
        return model, []

    features = data.feature_array()
    labels = data.label_array()
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
            loss, grad = loss_and_grad(model, features[idx], labels[idx], cfg.loss_kind)
            model.params, adam = adam_step(model.params, grad, adam, lr, cfg.mask)
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
