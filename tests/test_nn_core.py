"""Engine tests: parameter layout, initialization, forward/backward
correctness against finite differences, losses, and the model file format.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from unforget.nn_core import (
    ArchSpec,
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool,
    ModelState,
    ReLU,
    Tensor,
    arch_from_json,
    arch_to_json,
    clone_with_params,
    forward,
    init_model,
    load_model,
    loss_and_grad,
    param_layout,
    save_model,
)
from unforget.harness import default_arch


def dense_arch(widths=(5, 4, 3), with_bn=False):
    layers = []
    for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
        layers.append(Dense(a, b))
        if i < len(widths) - 2:
            if with_bn:
                layers.append(BatchNorm(b))
            layers.append(ReLU())
    return ArchSpec((widths[0],), tuple(layers), widths[-1])


def conv_arch():
    return ArchSpec(
        (1, 8, 8),
        (
            Conv2D(1, 3, kernel=3, stride=2),
            BatchNorm(3),
            ReLU(),
            GlobalAvgPool(),
            Dense(3, 4),
        ),
        4,
    )


def numerical_gradient(model, x, y, loss_kind, h=1e-5):
    num = np.zeros_like(model.params)
    for i in range(model.params.size):
        orig = model.params[i]
        model.params[i] = orig + h
        lp, _ = loss_and_grad(model, x, y, loss_kind, update_stats=False)
        model.params[i] = orig - h
        lm, _ = loss_and_grad(model, x, y, loss_kind, update_stats=False)
        model.params[i] = orig
        num[i] = (lp - lm) / (2 * h)
    return num


def assert_gradients_close(analytic, numeric, rtol=1e-4, atol=1e-8):
    # Relative error with an absolute floor for exactly-zero gradients
    # (e.g. conv biases feeding BatchNorm), where finite differences only
    # return truncation noise.
    err = np.abs(analytic - numeric)
    bound = rtol * np.maximum(np.abs(analytic), np.abs(numeric)) + atol
    worst = np.argmax(err - bound)
    assert (err <= bound).all(), (
        f"gradient mismatch at {worst}: analytic {analytic[worst]}, numeric {numeric[worst]}"
    )


def engine_digest(model, batches, loss_kind):
    """SHA-256 over, per (x, y) batch, the train- and eval-mode loss and
    gradient and the eval logits, then the BatchNorm running statistics the
    train-mode passes leave behind."""
    digest = hashlib.sha256()
    for x, y in batches:
        for mode in ("train", "eval"):
            loss, grad = loss_and_grad(model, x, y, loss_kind, bn_mode=mode)
            digest.update(np.float64(loss).tobytes())
            digest.update(grad.tobytes())
        digest.update(forward(model, x).array.tobytes())
    for i in sorted(model.batchnorm_stats):
        mean, var = model.batchnorm_stats[i]
        digest.update(mean.tobytes())
        digest.update(var.tobytes())
    return digest.hexdigest()


# SHA-256 of the engine's outputs on default_arch (see test_engine_pin).
# Any change to a float operation or its order moves it; refactors must not.
ENGINE_PIN = "eb9fa80b00bc156b588e952020a568c23ebd477b3924a671de12b73361a4d923"


def test_engine_pin():
    """Train- and eval-mode loss and gradient, eval logits and the BatchNorm
    running statistics they leave behind are bit-identical to the pin."""
    model = init_model(default_arch(), 0)
    rng = np.random.default_rng(0)
    x = rng.random((32, 1, 16, 16))
    y = rng.integers(3, size=32)
    assert engine_digest(model, [(x, y)], "ce") == ENGINE_PIN


# The same digest on shapes default_arch lacks: stride-1 convolutions (whose
# col2im windows overlap), a 2x2 kernel, Flatten, a BatchNorm over flat
# features, bce loss, and batches of 1 and 33.
OTHER_SHAPES_PIN = "34e7e92ba1109b98ffb97e4085efd644622c083601556d602dfdfe99ec057aab"


def test_engine_pin_other_shapes():
    arch = ArchSpec(
        (2, 7, 7),
        (
            Conv2D(2, 5, kernel=2, stride=1),
            BatchNorm(5),
            ReLU(),
            Conv2D(5, 4, kernel=3, stride=1),
            BatchNorm(4),
            ReLU(),
            Flatten(),
            Dense(64, 8),
            BatchNorm(8),
            ReLU(),
            Dense(8, 3),
        ),
        3,
    )
    model = init_model(arch, 1)
    rng = np.random.default_rng(1)
    batches = [
        (rng.random((n, 2, 7, 7)), rng.integers(2, size=(n, 3)).astype(np.float64))
        for n in (1, 33)
    ]
    assert engine_digest(model, batches, "bce") == OTHER_SHAPES_PIN


class TestTensor:
    def test_shape_value_consistency(self):
        t = Tensor((2, 3), np.arange(6.0))
        assert t.array.shape == (2, 3)

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError, match="values"):
            Tensor((2, 3), np.arange(5.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Tensor((2,), np.array([1.0, np.nan]))


class TestArchAndLayout:
    def test_dense_layer_parameter_count(self):
        arch = ArchSpec((4,), (Dense(4, 3),), 3)
        records = [r for r in param_layout(arch) if r.layer_index == 0]
        assert sum(r.length for r in records) == 4 * 3 + 3

    def test_layout_offsets_cover_params_exactly(self):
        arch = conv_arch()
        layout = param_layout(arch)
        offset = 0
        for rec in layout:
            assert rec.offset == offset
            offset += rec.length
        assert offset == init_model(arch, 0).num_params

    def test_layout_stable_across_instances(self):
        assert param_layout(conv_arch()) == param_layout(conv_arch())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="Dense"):
            ArchSpec((5,), (Dense(4, 3),), 3).validate()
        with pytest.raises(ValueError, match="BatchNorm"):
            ArchSpec((4,), (Dense(4, 3), BatchNorm(7)), 3).validate()
        with pytest.raises(ValueError, match="output_dim"):
            ArchSpec((4,), (Dense(4, 3),), 2).validate()

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            ArchSpec((1, 2, 2), (Conv2D(1, 1, kernel=3), Flatten(), Dense(1, 2)), 2).validate()

    def test_arch_json_round_trip(self):
        arch = conv_arch()
        assert arch_from_json(arch_to_json(arch)) == arch

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda doc: doc.pop("output_dim"), "missing key 'output_dim'"),
            (lambda doc: doc["layers"][0].pop("kernel"), "missing key 'kernel'"),
            (lambda doc: doc["layers"][0].update(hn_ch=1), "unknown key 'hn_ch'"),
            (lambda doc: doc.update(extra=1), "unknown key 'extra'"),
            (lambda doc: doc["layers"].__setitem__(2, "relu"), "JSON object"),
            (lambda doc: doc["layers"][0].update(kernel="3"), "kernel must be int"),
            (lambda doc: doc.update(input_shape=8), "input_shape"),
        ],
    )
    def test_malformed_arch_json_rejected(self, edit, message):
        doc = json.loads(arch_to_json(conv_arch()))
        edit(doc)
        with pytest.raises(ValueError, match=message):
            arch_from_json(json.dumps(doc))


class TestInitModel:
    def test_deterministic(self):
        a = init_model(conv_arch(), seed=7)
        b = init_model(conv_arch(), seed=7)
        assert np.array_equal(a.params, b.params)

    def test_seed_changes_weights(self):
        a = init_model(conv_arch(), seed=7)
        b = init_model(conv_arch(), seed=8)
        assert not np.array_equal(a.params, b.params)

    def test_batchnorm_identity_init(self):
        arch = ArchSpec((16,), (Dense(16, 16), BatchNorm(16), ReLU(), Dense(16, 2)), 2)
        model = init_model(arch, seed=0)
        assert np.array_equal(model.slice(1, "scale"), np.ones(16))
        assert np.array_equal(model.slice(1, "shift"), np.zeros(16))
        mu, var = model.batchnorm_stats[1]
        assert np.array_equal(mu, np.zeros(16))
        assert np.array_equal(var, np.ones(16))

    def test_biases_zero(self):
        model = init_model(conv_arch(), seed=3)
        assert np.array_equal(model.slice(0, "bias"), np.zeros(3))

    def test_invalid_arch_rejected(self):
        with pytest.raises(ValueError):
            init_model(ArchSpec((3,), (Dense(4, 2),), 2), seed=0)


class TestForward:
    def test_zero_weight_dense_net_outputs_zero(self):
        arch = dense_arch((5, 4, 3))
        model = init_model(arch, 0)
        model = clone_with_params(model, np.zeros(model.num_params))
        logits = forward(model, np.random.default_rng(0).random((6, 5)))
        assert np.array_equal(logits.array, np.zeros((6, 3)))

    def test_logits_shape_batch_32(self):
        arch = ArchSpec((6,), (Dense(6, 8),), 8)
        model = init_model(arch, 1)
        x = np.random.default_rng(1).random((32, 6))
        assert forward(model, x).shape == (32, 8)

    def test_eval_mode_pure(self):
        model = init_model(conv_arch(), 2)
        x = np.random.default_rng(2).random((5, 1, 8, 8))
        a = forward(model, x, "eval").array
        b = forward(model, x, "eval").array
        assert np.array_equal(a, b)

    def test_eval_independent_of_batch_composition(self):
        model = init_model(conv_arch(), 2)
        x = np.random.default_rng(3).random((5, 1, 8, 8))
        full = forward(model, x, "eval").array
        alone = forward(model, x[2:3], "eval").array
        np.testing.assert_allclose(full[2:3], alone, rtol=0, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        model = init_model(conv_arch(), 2)
        with pytest.raises(ValueError, match="batch shape"):
            forward(model, np.zeros((4, 1, 9, 9)))

    def test_train_mode_updates_running_stats(self):
        model = init_model(conv_arch(), 2)
        before = model.batchnorm_stats[1][0].copy()
        forward(model, np.random.default_rng(4).random((8, 1, 8, 8)), "train")
        assert not np.array_equal(before, model.batchnorm_stats[1][0])

    def test_batchnorm_train_normalizes_batch(self):
        # Per-feature batch mean ends at shift, variance at scale^2. Tiny
        # epsilon so the var/(var+eps) bias stays below the tolerance.
        arch = ArchSpec((6,), (Dense(6, 5), BatchNorm(5, epsilon=1e-10)), 5)
        model = init_model(arch, 5)
        rng = np.random.default_rng(5)
        model = clone_with_params(model, rng.normal(0, 0.5, model.num_params))
        shift = model.slice(1, "shift")
        scale = model.slice(1, "scale")
        out = forward(model, rng.random((64, 6)), "train").array
        np.testing.assert_allclose(out.mean(axis=0), shift, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=0), scale**2, atol=1e-6)


class TestLosses:
    def test_uniform_softmax_loss_is_log_k(self):
        arch = ArchSpec((6,), (Dense(6, 8),), 8)
        model = init_model(arch, 0)
        model = clone_with_params(model, np.zeros(model.num_params))
        x = np.random.default_rng(0).random((10, 6))
        y = np.random.default_rng(1).integers(8, size=10)
        loss, _ = loss_and_grad(model, x, y, "ce")
        assert loss == pytest.approx(math.log(8), rel=1e-12)

    def test_zero_logits_bce_loss_is_log_two(self):
        arch = ArchSpec((6,), (Dense(6, 5),), 5)
        model = init_model(arch, 0)
        model = clone_with_params(model, np.zeros(model.num_params))
        x = np.random.default_rng(2).random((7, 6))
        y = np.random.default_rng(3).integers(0, 2, size=(7, 5)).astype(float)
        loss, _ = loss_and_grad(model, x, y, "bce")
        assert loss == pytest.approx(math.log(2), rel=1e-12)

    def test_label_out_of_range_rejected(self):
        arch = ArchSpec((4,), (Dense(4, 3),), 3)
        model = init_model(arch, 0)
        with pytest.raises(ValueError, match="range"):
            loss_and_grad(model, np.zeros((2, 4)), np.array([0, 3]), "ce")

    def test_non_binary_bce_targets_rejected(self):
        arch = ArchSpec((4,), (Dense(4, 3),), 3)
        model = init_model(arch, 0)
        with pytest.raises(ValueError, match="0/1"):
            loss_and_grad(model, np.zeros((1, 4)), np.array([[0.0, -1.0, 1.0]]), "bce")


class TestGradients:
    @pytest.mark.parametrize(
        "arch,loss_kind",
        [
            (dense_arch((5, 4, 3)), "ce"),
            (dense_arch((4, 6, 3), with_bn=True), "ce"),
            (conv_arch(), "ce"),
            (
                ArchSpec(
                    (2, 5, 5),
                    (Conv2D(2, 2, kernel=2), ReLU(), Flatten(), Dense(32, 4)),
                    4,
                ),
                "bce",
            ),
            (
                ArchSpec(
                    (1, 7, 7),
                    (Conv2D(1, 2, kernel=3, stride=2), BatchNorm(2), ReLU(), Flatten(), Dense(18, 2)),
                    2,
                ),
                "bce",
            ),
        ],
    )
    def test_matches_finite_differences(self, arch, loss_kind):
        rng = np.random.default_rng(42)
        model = init_model(arch, 42)
        model.params += rng.normal(0, 0.3, model.params.shape)
        x = rng.random((4,) + arch.input_shape)
        if loss_kind == "ce":
            y = rng.integers(arch.output_dim, size=4)
        else:
            y = rng.integers(0, 2, size=(4, arch.output_dim)).astype(float)
        _, analytic = loss_and_grad(model, x, y, loss_kind, update_stats=False)
        numeric = numerical_gradient(model, x, y, loss_kind)
        assert_gradients_close(analytic, numeric)

    def test_eval_mode_batchnorm_gradient(self):
        rng = np.random.default_rng(9)
        arch = conv_arch()
        model = init_model(arch, 9)
        model.params += rng.normal(0, 0.3, model.params.shape)
        for mu, var in model.batchnorm_stats.values():
            mu += rng.normal(0, 0.2, mu.shape)
            var += rng.random(var.shape) * 0.5
        x = rng.random((4,) + arch.input_shape)
        y = rng.integers(arch.output_dim, size=4)
        _, analytic = loss_and_grad(model, x, y, "ce", bn_mode="eval", update_stats=False)
        num = np.zeros_like(analytic)
        h = 1e-5
        for i in range(model.params.size):
            orig = model.params[i]
            model.params[i] = orig + h
            lp, _ = loss_and_grad(model, x, y, "ce", bn_mode="eval", update_stats=False)
            model.params[i] = orig - h
            lm, _ = loss_and_grad(model, x, y, "ce", bn_mode="eval", update_stats=False)
            model.params[i] = orig
            num[i] = (lp - lm) / (2 * h)
        assert_gradients_close(analytic, num)


class TestCloneWithParams:
    def test_identical_params_same_outputs(self):
        model = init_model(conv_arch(), 11)
        clone = clone_with_params(model, model.params)
        x = np.random.default_rng(11).random((3, 1, 8, 8))
        assert np.array_equal(forward(model, x).array, forward(clone, x).array)

    def test_zeroed_params_zero_dense_outputs(self):
        arch = dense_arch((5, 4, 2))
        model = init_model(arch, 0)
        clone = clone_with_params(model, np.zeros(model.num_params))
        assert np.array_equal(forward(clone, np.ones((2, 5))).array, np.zeros((2, 2)))

    def test_wrong_length_rejected(self):
        model = init_model(conv_arch(), 0)
        with pytest.raises(ValueError, match="parameters"):
            clone_with_params(model, np.zeros(model.num_params + 1))

    def test_stats_are_copies(self):
        model = init_model(conv_arch(), 0)
        clone = clone_with_params(model, model.params)
        clone.batchnorm_stats[1][0][:] = 99.0
        assert model.batchnorm_stats[1][0][0] == 0.0


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = init_model(conv_arch(), 13)
        forward(model, np.random.default_rng(0).random((16, 1, 8, 8)), "train")
        path = tmp_path / "model.unfg"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.arch == model.arch
        assert np.array_equal(loaded.params, model.params)
        for i in model.batchnorm_stats:
            assert np.array_equal(loaded.batchnorm_stats[i][0], model.batchnorm_stats[i][0])
            assert np.array_equal(loaded.batchnorm_stats[i][1], model.batchnorm_stats[i][1])

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.unfg"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_every_byte_flip_and_truncation_loads_or_raises_value_error(self, tmp_path):
        model = init_model(conv_arch(), 13)
        path = tmp_path / "model.unfg"
        save_model(model, path)
        blob = path.read_bytes()
        corrupt = [blob[:n] for n in range(len(blob))]
        # Flip bytes of the header, the arch JSON and the parameter count;
        # every payload byte pattern is some float and loads.
        arch_len = int.from_bytes(blob[8:16], "little")
        for i in range(16 + arch_len + 8):
            for mask in (0x01, 0x20, 0x80):
                flipped = bytearray(blob)
                flipped[i] ^= mask
                corrupt.append(bytes(flipped))
        for data in corrupt:
            path.write_bytes(data)
            try:
                load_model(path)
            except ValueError:
                pass

    def test_non_finite_parameter_rejected(self, tmp_path):
        model = init_model(conv_arch(), 13)
        model.params[0] = np.nan
        path = tmp_path / "model.unfg"
        save_model(model, path)
        with pytest.raises(ValueError, match="non-finite"):
            load_model(path)

    def test_truncated_rejected(self, tmp_path):
        model = init_model(conv_arch(), 13)
        path = tmp_path / "model.unfg"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)
