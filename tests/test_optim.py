"""Optimizer and training-loop tests: Adam update values, freeze masks,
cosine schedule endpoints and monotonicity, deterministic training, and
convergence on a separable fixture."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unforget import optim
from unforget.data import LabeledDataset
from unforget.nn_core import (
    ArchSpec,
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    ReLU,
    UNKNOWN,
    clone_with_params,
    init_model,
    loss_and_grad,
)
from unforget.optim import (
    BETA1,
    BETA2,
    EPSILON,
    AdamState,
    TrainConfig,
    adam_step,
    cosine_lr,
    train,
)


def blob_dataset(n=200, seed=0, noise=0.05):
    """Two linearly separable clusters inside [0, 1]^2, stored as 2x1x1 images."""
    rng = np.random.default_rng(seed)
    centers = {0: 0.25, 1: 0.75}
    features = np.empty((n, 2, 1, 1))
    for i in range(n):
        features[i] = np.clip(centers[i % 2] + rng.normal(0, noise, 2), 0.0, 1.0).reshape(2, 1, 1)
    ids = np.arange(n)
    return LabeledDataset(ids, features, ids % 2, ids, ids % 2, "single_label", 2)


def multi_label_blobs(n=200):
    """The blobs with two label bits each: the cluster, and its complement."""
    ids = np.arange(n)
    bits = np.stack([ids % 2, 1 - ids % 2], axis=1)
    return LabeledDataset(ids, blob_dataset(n).feature_array(), bits, ids, ids % 2, "multi_label", 2)


def blob_arch():
    return ArchSpec((2, 1, 1), (Flatten(), Dense(2, 16), ReLU(), Dense(16, 2)), 2)


def reference_adam_step(params, grads, state, lr, mask=None):
    """Adam as one expression per quantity: the oracle the in-place update
    must match bit for bit."""
    t = state.step_count + 1
    m = BETA1 * state.m + (1.0 - BETA1) * grads
    v = BETA2 * state.v + (1.0 - BETA2) * grads**2
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    stepped = params - lr * m_hat / (np.sqrt(v_hat) + EPSILON)
    if mask is not None:
        sel = np.asarray(mask) != 0
        m = np.where(sel, m, state.m)
        v = np.where(sel, v, state.v)
        stepped = np.where(sel, stepped, params)
    return stepped, replace(state, m=m, v=v, step_count=t)


class TestAdamStep:
    @pytest.mark.parametrize("masked", [False, True])
    def test_bit_equal_to_reference(self, masked):
        rng = np.random.default_rng(5)
        n = 1000
        mask = rng.integers(0, 2, size=n) if masked else None
        params = ref_params = rng.normal(size=n)
        state = ref_state = AdamState.fresh(n)
        for _ in range(50):
            grads = rng.normal(size=n) * 10.0 ** rng.integers(-6, 3)
            lr = float(rng.uniform(1e-4, 1e-1))
            old = (params, state.m, state.v)
            kept = [a.copy() for a in old]
            params, state = adam_step(params, grads, state, lr, mask)
            ref_params, ref_state = reference_adam_step(ref_params, grads, ref_state, lr, mask)
            assert np.array_equal(params, ref_params)
            assert np.array_equal(state.m, ref_state.m) and np.array_equal(state.v, ref_state.v)
            assert state.step_count == ref_state.step_count
            # New arrays are returned; the inputs are left as they were.
            assert all(np.array_equal(a, b) for a, b in zip(old, kept))
            assert not any(np.shares_memory(a, b) for a in (params, state.m, state.v) for b in old)

    def test_first_step_hand_computed(self):
        # m_hat = g, v_hat = g^2 after bias correction, so the first step is
        # almost exactly lr in the direction of -sign(g).
        params = np.array([1.0])
        grads = np.array([0.5])
        new_params, state = adam_step(params, grads, AdamState.fresh(1), lr=1e-3)
        assert new_params[0] == pytest.approx(0.999, abs=1e-9)
        assert state.step_count == 1

    def test_zero_gradient_leaves_params(self):
        params = np.array([1.5, -2.0])
        new_params, _ = adam_step(params, np.zeros(2), AdamState.fresh(2), lr=1e-3)
        assert np.array_equal(new_params, params)

    def test_all_zero_mask_freezes_everything(self):
        rng = np.random.default_rng(0)
        params = rng.normal(size=10)
        state = AdamState.fresh(10)
        new_params, new_state = adam_step(params, rng.normal(size=10), state, 1e-2, mask=np.zeros(10))
        assert np.array_equal(new_params, params)
        assert np.array_equal(new_state.m, state.m)
        assert np.array_equal(new_state.v, state.v)

    def test_masked_coords_frozen_over_many_steps(self):
        rng = np.random.default_rng(1)
        params = rng.normal(size=24)
        original = params.copy()
        mask = rng.integers(0, 2, size=24)
        state = AdamState.fresh(24)
        for _ in range(20):
            params, state = adam_step(params, rng.normal(size=24), state, 1e-2, mask=mask)
        frozen = mask == 0
        assert np.array_equal(params[frozen], original[frozen])
        assert not np.array_equal(params[~frozen], original[~frozen])

    def test_frozen_moments_stay_zero_from_fresh_state(self):
        """The documented contract: from ``AdamState.fresh`` the moments at
        bit-0 coordinates stay exactly +0.0, whatever the gradient there."""
        rng = np.random.default_rng(6)
        n = 500
        mask = (rng.random(n) < 0.5).astype(np.uint8)
        frozen = mask == 0
        params = original = rng.normal(size=n)
        state = AdamState.fresh(n)
        for _ in range(200):
            grads = rng.normal(size=n) * 10.0 ** rng.integers(-6, 3)
            params, state = adam_step(params, grads, state, float(rng.uniform(1e-4, 1e-1)), mask)
        for moment in (state.m, state.v):
            assert np.all(moment[frozen] == 0.0) and not np.signbit(moment[frozen]).any()
            assert np.all(moment[~frozen] != 0.0)
        assert params[frozen].tobytes() == original[frozen].tobytes()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            adam_step(np.zeros(3), np.zeros(2), AdamState.fresh(3), 1e-3)

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_short_moment_rejected(self, moment):
        state = AdamState.fresh(3)
        setattr(state, moment, np.zeros(2))
        with pytest.raises(ValueError, match="must share one length"):
            adam_step(np.zeros(3), np.zeros(3), state, 1e-3)

    def test_non_finite_grad_rejected(self):
        with pytest.raises(FloatingPointError):
            adam_step(np.zeros(2), np.array([np.nan, 0.0]), AdamState.fresh(2), 1e-3)

    @pytest.mark.parametrize("lr", [0.0, -1e-3, np.nan, np.inf])
    def test_bad_lr_rejected(self, lr):
        with pytest.raises(ValueError, match=f"^lr must be positive and finite, got {lr}$"):
            adam_step(np.zeros(2), np.zeros(2), AdamState.fresh(2), lr)

    @given(g=st.floats(min_value=1e-3, max_value=1e6))
    @settings(max_examples=60, deadline=None)
    def test_first_step_magnitude_bounded_by_lr(self, g):
        lr = 1e-3
        new_params, _ = adam_step(np.array([0.0]), np.array([g]), AdamState.fresh(1), lr)
        assert abs(new_params[0]) <= lr * 1.001


class TestCosineSchedule:
    def test_initial_rate(self):
        assert cosine_lr(TrainConfig(lr0=1e-3), 0, 100) == pytest.approx(1e-3, rel=1e-12)

    def test_final_rate_is_tenth_of_initial(self):
        assert cosine_lr(TrainConfig(lr0=1e-3), 100, 100) == pytest.approx(1e-4, rel=1e-12)

    def test_midpoint(self):
        assert cosine_lr(TrainConfig(lr0=1e-3), 50, 100) == pytest.approx(0.00055, rel=1e-12)

    def test_non_increasing(self):
        cfg = TrainConfig(lr0=1e-3)
        values = [cosine_lr(cfg, s, 137) for s in range(138)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_step_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            cosine_lr(TrainConfig(lr0=1e-3), 11, 10)
        with pytest.raises(ValueError, match="outside"):
            cosine_lr(TrainConfig(lr0=1e-3), -1, 10)

    def test_invalid_schedule(self):
        with pytest.raises(ValueError, match="^total_steps must be >= 1, got 0$"):
            cosine_lr(TrainConfig(lr0=1e-3), 0, 0)

    def test_train_config_floor_defaults_to_tenth(self):
        assert TrainConfig(lr0=0.002).floor == pytest.approx(0.0002)

    def test_train_config_holds_only_the_recipe(self):
        # Seed and mask are per-run arguments of ``train``, so equal recipes
        # compare and hash equal.
        assert [f.name for f in fields(TrainConfig)] == ["epochs", "batch_size", "lr0"]
        assert TrainConfig(lr0=2e-3) == TrainConfig(lr0=2e-3)
        assert hash(TrainConfig(lr0=2e-3)) == hash(TrainConfig(lr0=2e-3))


class TestTrain:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs must be >= 1, got 0"):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("lr0", [0.0, -1e-3, np.nan, np.inf])
    def test_bad_lr0_rejected(self, lr0):
        with pytest.raises(ValueError, match=f"^lr0 must be positive and finite, got {lr0}$"):
            TrainConfig(lr0=lr0)

    def test_unknown_labels_rejected_before_the_first_step(self, monkeypatch):
        ds = multi_label_blobs()
        labels = ds.label_array().astype(np.int8)
        labels[3, 0] = UNKNOWN

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(optim, "loss_and_grad", no_step)
        with pytest.raises(ValueError, match="^unknown label entries remain; apply the u-one policy first$"):
            train(init_model(blob_arch(), 0), ds.with_labels(labels), TrainConfig(epochs=1), 0)

    def test_deterministic(self):
        model = init_model(blob_arch(), 0)
        cfg = TrainConfig(epochs=2, batch_size=16, lr0=1e-2)
        a, trace_a = train(model, blob_dataset(), cfg, 5)
        b, trace_b = train(model, blob_dataset(), cfg, 5)
        assert np.array_equal(a.params, b.params)
        assert trace_a == trace_b

    def test_input_model_not_mutated(self):
        model = init_model(blob_arch(), 0)
        before = model.params.copy()
        train(model, blob_dataset(), TrainConfig(epochs=1, lr0=1e-2), 0)
        assert np.array_equal(model.params, before)

    def test_converges_on_separable_blobs(self):
        model = init_model(blob_arch(), 1)
        cfg = TrainConfig(epochs=6, batch_size=32, lr0=0.05)
        _, trace = train(model, blob_dataset(), cfg, 2)
        assert trace[-1] < 0.1

    def test_loss_decreases_epoch_one_to_six(self):
        model = init_model(blob_arch(), 1)
        cfg = TrainConfig(epochs=6, batch_size=32, lr0=0.05)
        _, trace = train(model, blob_dataset(), cfg, 2)
        assert trace[5] < trace[0]

    def test_empty_dataset_rejected(self):
        model = init_model(blob_arch(), 0)
        with pytest.raises(ValueError, match="num_outputs|empty"):
            train(model, blob_dataset().subset([]), TrainConfig(), 0)

    @pytest.mark.parametrize("data,task_kind", [
        (blob_dataset, "single_label"), (multi_label_blobs, "multi_label"),
    ], ids=["single_label", "multi_label"])
    def test_loss_follows_the_task_kind(self, data, task_kind):
        """One epoch in one batch traces the loss of the data's task kind
        (cross-entropy, or binary cross-entropy for multi-label data) over
        that batch, in the order the shuffle seed draws it."""
        ds = data()
        cfg = TrainConfig(epochs=1, batch_size=len(ds))
        _, trace = train(init_model(blob_arch(), 0), ds, cfg, 3)
        idx = np.random.default_rng(3).permutation(len(ds))
        loss, _ = loss_and_grad(
            init_model(blob_arch(), 0), ds.feature_array()[idx], ds.label_array()[idx], task_kind
        )
        assert trace == [loss]

    def test_mask_length_rejected_before_the_first_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(optim, "loss_and_grad", no_step)
        model = init_model(blob_arch(), 0)
        with pytest.raises(ValueError, match="mask length"):
            train(model, blob_dataset(), TrainConfig(epochs=1), 0, np.ones(model.num_params - 1))

    @pytest.mark.parametrize("epochs", [2, 3])
    def test_masked_train_equals_the_write_back_oracle(self, epochs, monkeypatch):
        """``train`` with a ~50% mask on an arch with BatchNorm equals, bit
        for bit, its loop driven by ``reference_adam_step``, which writes
        the frozen coordinates' old values back: params, both Adam moments
        and the running statistics."""
        arch = ArchSpec(
            (2, 1, 1), (Conv2D(2, 8, 1), BatchNorm(8), ReLU(), Flatten(), Dense(8, 2)), 2
        )
        pretrained = init_model(arch, 3)
        data = blob_dataset(n=90)
        mask = (np.random.default_rng(4).random(pretrained.num_params) < 0.5).astype(np.uint8)
        cfg = TrainConfig(epochs=epochs, batch_size=16, lr0=1e-2)

        states = []

        def recording_adam_step(*args):
            params, state = adam_step(*args)
            states.append(state)
            return params, state

        monkeypatch.setattr(optim, "adam_step", recording_adam_step)
        trained, _ = train(pretrained, data, cfg, 7, mask)

        model = clone_with_params(pretrained, pretrained.params)
        features, labels, n = data.feature_array(), data.label_array(), len(data)
        batches = -(-n // cfg.batch_size)
        state, rng, step = AdamState.fresh(model.num_params), np.random.default_rng(7), 0
        for _ in range(epochs):
            order = rng.permutation(n)
            for b in range(batches):
                idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                _, grad = loss_and_grad(model, features[idx], labels[idx], "single_label")
                model.params, state = reference_adam_step(
                    model.params, grad, state, cosine_lr(cfg, step, epochs * batches), mask
                )
                step += 1

        assert len(states) == step
        assert trained.params.tobytes() == model.params.tobytes()
        assert states[-1].m.tobytes() == state.m.tobytes()
        assert states[-1].v.tobytes() == state.v.tobytes()
        for i, (mu, var) in model.batchnorm_stats.items():
            assert trained.batchnorm_stats[i][0].tobytes() == mu.tobytes()
            assert trained.batchnorm_stats[i][1].tobytes() == var.tobytes()
        frozen = mask == 0
        assert trained.params[frozen].tobytes() == pretrained.params[frozen].tobytes()
        assert not np.array_equal(trained.params[~frozen], pretrained.params[~frozen])
