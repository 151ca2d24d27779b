"""Engine tests: parameter layout, initialization, forward/backward
correctness against finite differences, losses, and the model file format.
"""

import hashlib
import json
import math
import os
import threading

import numpy as np
import pytest

from unforget import nn_core
from unforget.nn_core import (
    ArchSpec,
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool,
    ModelState,
    ReLU,
    _im2col,
    _im2col_index,
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
        digest.update(forward(model, x).tobytes())
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


def strided_im2col(x, k, s):
    """The engine's former im2col, kept frozen as the oracle: a strided
    window view of the batch, transposed to (b, oy, ox, c, ki, kj) and
    copied into the patch matrix."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    windows = windows[:, :, ::s, ::s]
    bsz, _, h_out, w_out = windows.shape[:4]
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(bsz * h_out * w_out, -1)


def batch_in_layout(rng, shape, layout):
    """A (B, C, H, W) batch stored C-contiguous, as the NCHW view of
    channels-last memory, or as a slice that is neither."""
    b, c, h, w = shape
    if layout == "c_contiguous":
        return rng.random(shape)
    if layout == "channels_last":
        return rng.random((b, h, w, c)).transpose(0, 3, 1, 2)
    return rng.random((b, c, h, 2 * w))[..., ::2]


class TestIm2col:
    @pytest.mark.parametrize("layout", ["c_contiguous", "channels_last", "sliced"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [2, 3])
    @pytest.mark.parametrize("channels", [1, 24])
    @pytest.mark.parametrize("batch", [1, 32, 33])
    def test_gather_equals_strided_copy_bit_for_bit(self, layout, stride, kernel, channels, batch):
        rng = np.random.default_rng(batch * 100 + channels)
        x = batch_in_layout(rng, (batch, channels, 9, 8), layout)
        oracle = strided_im2col(x, kernel, stride)
        cols, h_out, w_out = _im2col(x, kernel, stride)
        assert (h_out, w_out) == ((9 - kernel) // stride + 1, (8 - kernel) // stride + 1)
        assert cols.shape == oracle.shape and cols.dtype == oracle.dtype
        assert cols.flags.c_contiguous
        assert cols.tobytes() == oracle.tobytes()

    def test_batch_layouts_reach_all_three_im2col_branches(self):
        rng = np.random.default_rng(0)
        shape = (4, 3, 9, 8)
        assert batch_in_layout(rng, shape, "c_contiguous").flags.c_contiguous
        assert batch_in_layout(rng, shape, "channels_last").transpose(0, 2, 3, 1).flags.c_contiguous
        sliced = batch_in_layout(rng, shape, "sliced")
        assert not sliced.flags.c_contiguous
        assert not sliced.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_cached_index_is_per_sample_and_shared_across_batch_sizes(self):
        _im2col_index.cache_clear()
        rng = np.random.default_rng(0)
        _im2col(batch_in_layout(rng, (32, 24, 7, 7), "channels_last"), 3, 2)
        idx = _im2col_index(24, 7, 7, True, 3, 2)
        cached = _im2col_index.cache_info().currsize
        _im2col(batch_in_layout(rng, (256, 24, 7, 7), "channels_last"), 3, 2)
        assert _im2col_index(24, 7, 7, True, 3, 2) is idx
        assert _im2col_index.cache_info().currsize == cached == 1
        assert idx.shape == (3 * 3, 24 * 3 * 3)
        assert idx.nbytes == 3 * 3 * 24 * 3 * 3 * 8
        assert not idx.flags.writeable


def frozen_batchnorm(layer, x, params, mode, stats):
    """BatchNorm's forward before cache-free passes wrote in place and laid
    their per-channel operands out like the activation, kept frozen as the
    oracle: returns (out, xhat, inv_std)."""
    scale, shift = params
    axes = (0,) if x.ndim == 2 else (0, 2, 3)

    def expand(v):
        return v if x.ndim == 2 else v[:, None, None]

    if mode == "train":
        mu = x.mean(axis=axes)
        centred = x - expand(mu)
        var = (centred * centred).sum(axis=axes) / (x.size // layer.num_features)
        run_mu, run_var = stats
        run_mu *= 1.0 - layer.momentum
        run_mu += layer.momentum * mu
        run_var *= 1.0 - layer.momentum
        run_var += layer.momentum * var
    else:
        mu, var = stats
        centred = x - expand(mu)
    inv_std = 1.0 / np.sqrt(var + layer.epsilon)
    xhat = centred
    xhat *= expand(inv_std)
    out = xhat * expand(scale)
    out += expand(shift)
    return out, xhat, inv_std


def frozen_batchnorm_backward(d, scale, xhat, inv_std, mode):
    """BatchNorm's backward before every pass laid its per-channel operands
    out like one sample, kept frozen as the oracle: returns (dx, dscale,
    dshift)."""
    axes = (0,) if d.ndim == 2 else (0, 2, 3)

    def expand(v):
        return v if d.ndim == 2 else v[:, None, None]

    if d.flags.c_contiguous:
        xhat = np.ascontiguousarray(xhat)
    dscale = (d * xhat).sum(axis=axes)
    dshift = d.sum(axis=axes)
    dxhat = d * expand(scale)
    inv_std = expand(inv_std)
    if mode == "eval":
        dxhat *= inv_std
        return dxhat, dscale, dshift
    mean_dxhat = expand(dxhat.mean(axis=axes))
    mean_dxhat_xhat = expand((dxhat * xhat).mean(axis=axes))
    dxhat -= mean_dxhat
    dxhat -= xhat * mean_dxhat_xhat
    dxhat *= inv_std
    return dxhat, dscale, dshift


def frozen_conv2d(layer, x, params):
    """Conv2D's forward before cache-free passes added the bias over whole
    sample rows, kept frozen as the oracle: returns (out, cols)."""
    w, b = params
    cols, h_out, w_out = _im2col(x, layer.kernel, layer.stride)
    out = cols @ w.T
    out += b
    return out.reshape(x.shape[0], h_out, w_out, layer.out_ch).transpose(0, 3, 1, 2), cols


def same_bits(a, b):
    """Equal shape and bit-for-bit equal values (so -0.0 differs from 0.0)."""
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def input_in_layout(rng, layout, batch=33):
    if layout == "flat":
        return rng.standard_normal((batch, 6))
    x = batch_in_layout(rng, (batch, 6, 5, 4), layout)
    x -= 0.5  # in place, which keeps the layout
    return x


def reference_logits(model, batch, mode):
    """Logits from a pass with a cache, which writes into no input."""
    model = clone_with_params(model, model.params)
    return nn_core._forward_raw(model, batch.copy(), mode, cache=[])


class TestCacheFreePass:
    """Without a cache the forward pass owns its activations: it copies the
    batch once, then BatchNorm and ReLU write into their input and the
    per-channel operands run along whole samples. Every number stays
    bit-identical to the layers' former code."""

    @pytest.mark.parametrize(
        "arch",
        [
            ArchSpec((6,), (ReLU(), Dense(6, 3)), 3),
            ArchSpec((6,), (BatchNorm(6), ReLU(), Dense(6, 3)), 3),
            ArchSpec((2, 3, 3), (Flatten(), BatchNorm(18), ReLU(), Dense(18, 3)), 3),
            ArchSpec((2, 3, 3), (BatchNorm(2), ReLU(), GlobalAvgPool(), Dense(2, 3)), 3),
        ],
        ids=["relu_first", "flat_batchnorm_first", "flatten_then_batchnorm", "image_batchnorm_first"],
    )
    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_forward_leaves_the_batch_unchanged(self, arch, mode):
        model = init_model(arch, 0)
        batch = np.random.default_rng(0).standard_normal((9, *arch.input_shape))
        assert batch.dtype == np.float64 and batch.flags.c_contiguous
        before = batch.copy()
        reference = reference_logits(model, batch, mode)
        assert same_bits(forward(model, batch, mode), reference)
        assert batch.tobytes() == before.tobytes()

    @pytest.mark.parametrize("layout", ["c_contiguous", "channels_last", "sliced", "flat"])
    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("owned", [False, True])
    def test_batchnorm_equals_frozen_code(self, layout, mode, owned):
        def make():  # the same values in the same layout on every call
            return input_in_layout(np.random.default_rng(1), layout)

        rng = np.random.default_rng(2)
        layer = BatchNorm(6)
        params = (rng.standard_normal(6), rng.standard_normal(6))
        stats = (rng.standard_normal(6), rng.random(6) + 0.5)
        frozen_stats = tuple(s.copy() for s in stats)
        want, want_xhat, want_inv_std = frozen_batchnorm(layer, make(), params, mode, frozen_stats)
        x, x_in = make(), make()
        assert x_in.flags.c_contiguous == (layout in ("c_contiguous", "flat"))
        out, cache = layer.forward(x_in, params, mode, stats, owned)
        assert same_bits(out, want)
        assert all(same_bits(s, f) for s, f in zip(stats, frozen_stats))
        if owned:
            assert np.shares_memory(out, x_in) and cache is None
        else:
            assert same_bits(x_in, x)
            assert out.strides == want.strides
            xhat, inv_std, cached_mode = cache
            assert same_bits(xhat, want_xhat) and xhat.strides == want_xhat.strides
            assert same_bits(inv_std, want_inv_std) and cached_mode == mode

    @pytest.mark.parametrize("layout", ["c_contiguous", "channels_last", "sliced"])
    @pytest.mark.parametrize("owned", [False, True])
    def test_conv2d_equals_frozen_code(self, layout, owned):
        rng = np.random.default_rng(3)
        x = input_in_layout(rng, layout)
        assert x.flags.c_contiguous == (layout == "c_contiguous")
        layer = Conv2D(6, 7, kernel=2, stride=1)
        params = (rng.standard_normal((7, layer.fan_in)), rng.standard_normal(7))
        want, want_cols = frozen_conv2d(layer, x, params)
        out, (shape, cols) = layer.forward(x, params, "eval", None, owned)
        assert same_bits(out, want) and out.strides == want.strides
        assert shape == x.shape and same_bits(cols, want_cols)

    def test_relu_owned_writes_into_its_input(self):
        x = np.random.default_rng(3).standard_normal((4, 6))
        want = np.maximum(x, 0.0)
        out, _ = ReLU().forward(x, (), "eval", None, True)
        assert out is x and same_bits(x, want)


class TestOneOperandLayout:
    """Every pass, with a cache or without, lays BatchNorm's per-channel
    operands out like one sample and adds Conv2D's bias as one tiled row per
    sample. Values and strides stay those of the short per-channel loops
    every pass with a cache used before."""

    @pytest.mark.parametrize("layout", ["channels_last", "c_contiguous", "flat"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("batch", [32, 256])
    @pytest.mark.parametrize("d_layout", ["c_contiguous", "like_x"])
    def test_batchnorm_pass_equals_frozen_code(self, layout, mode, batch, d_layout):
        def make():  # the same values in the same layout on every call
            return input_in_layout(np.random.default_rng(batch), layout, batch)

        rng = np.random.default_rng(4)
        layer = BatchNorm(6)
        params = (rng.standard_normal(6), rng.standard_normal(6))
        stats = (rng.standard_normal(6), rng.random(6) + 0.5)
        frozen_stats = tuple(s.copy() for s in stats)
        want, want_xhat, want_inv_std = frozen_batchnorm(layer, make(), params, mode, frozen_stats)
        out, cache = layer.forward(make(), params, mode, stats, False)
        xhat, inv_std, _ = cache
        for got, ref in ((out, want), (xhat, want_xhat), (inv_std, want_inv_std)):
            assert same_bits(got, ref) and got.strides == ref.strides
        assert all(same_bits(s, f) for s, f in zip(stats, frozen_stats))
        owned_stats = tuple(s.copy() for s in stats)
        owned_out, _ = layer.forward(make(), params, mode, owned_stats, True)
        assert same_bits(owned_out, want) and owned_out.strides == want.strides

        x = make()
        d = np.empty_like(x) if d_layout == "like_x" else np.empty(x.shape)
        d[...] = rng.standard_normal(x.shape)
        grads = (np.zeros(6), np.zeros(6))
        dx = layer.backward(d, params, cache, grads, True)
        want_dx, want_dscale, want_dshift = frozen_batchnorm_backward(
            d, params[0], want_xhat, want_inv_std, mode
        )
        assert same_bits(dx, want_dx) and dx.strides == want_dx.strides
        assert same_bits(grads[0], want_dscale) and same_bits(grads[1], want_dshift)

    @pytest.mark.parametrize("layout", ["channels_last", "c_contiguous"])
    @pytest.mark.parametrize("batch", [32, 256])
    def test_conv2d_bias_equals_frozen_code(self, layout, batch):
        rng = np.random.default_rng(batch)
        x = input_in_layout(rng, layout, batch)
        layer = Conv2D(6, 7, kernel=3, stride=2)
        params = (rng.standard_normal((7, layer.fan_in)), rng.standard_normal(7))
        want, _ = frozen_conv2d(layer, x, params)
        for owned in (False, True):
            out, _ = layer.forward(x, params, "train", None, owned)
            assert same_bits(out, want) and out.strides == want.strides


class TestFiniteGuard:
    """The forward pass names the first layer whose output is non-finite;
    layers that keep a finite input finite (ReLU, Flatten) are not
    re-checked."""

    @staticmethod
    def run(model, x, mode):
        with np.errstate(over="ignore", invalid="ignore"):
            if mode == "eval":
                forward(model, x)
            else:
                loss_and_grad(model, x, np.zeros(x.shape[0], dtype=int), "ce", bn_mode=mode)

    def test_only_relu_and_flatten_skip_the_check(self):
        declared = {cls.__name__ for cls in nn_core._LAYER_BY_TAG.values() if cls.keeps_finite}
        assert declared == {"ReLU", "Flatten"}

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_overflowing_dense_is_named(self, mode):
        model = init_model(dense_arch((4, 3, 2)), 0)
        model.slice(0, "weight")[:] = 1e308
        with pytest.raises(FloatingPointError, match=r"after layer 0 \(Dense\)$"):
            self.run(model, np.full((5, 4), 10.0), mode)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_overflowing_conv_is_named(self, mode):
        arch = ArchSpec((1, 6, 6), (Conv2D(1, 2, 3, 1), ReLU(), Flatten(), Dense(32, 2)), 2)
        model = init_model(arch, 0)
        model.slice(0, "weight")[:] = 1e308
        with pytest.raises(FloatingPointError, match=r"after layer 0 \(Conv2D\)$"):
            self.run(model, np.full((3, 1, 6, 6), 10.0), mode)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_overflow_before_relu_and_flatten_names_the_layer_that_overflowed(self, mode):
        arch = ArchSpec(
            (1, 6, 6), (Conv2D(1, 2, 3, 1), Flatten(), Dense(32, 4), ReLU(), Dense(4, 2)), 2
        )
        model = init_model(arch, 0)
        model.slice(2, "weight")[:] = 1e308
        with pytest.raises(FloatingPointError, match=r"after layer 2 \(Dense\)$"):
            self.run(model, np.full((3, 1, 6, 6), 10.0), mode)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_overflowing_mean_in_global_avg_pool_is_named(self, mode):
        model = init_model(ArchSpec((2, 2, 2), (GlobalAvgPool(), Dense(2, 2)), 2), 0)
        with pytest.raises(FloatingPointError, match=r"after layer 0 \(GlobalAvgPool\)$"):
            self.run(model, np.full((3, 2, 2, 2), 1e308), mode)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_minus_inf_input_fails_at_input(self, mode):
        model = init_model(conv_arch(), 0)
        x = np.random.default_rng(0).random((4, 1, 8, 8))
        x[2, 0, 3, 3] = -np.inf
        with pytest.raises(FloatingPointError, match="after input$"):
            self.run(model, x, mode)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_every_layer_but_relu_and_flatten_is_checked(self, mode, monkeypatch):
        checked = []
        original = nn_core._check_finite

        def record(arr, where):
            checked.append(where)
            original(arr, where)

        monkeypatch.setattr(nn_core, "_check_finite", record)
        arch = ArchSpec(
            (1, 8, 8),
            (Conv2D(1, 3, 3, 2), BatchNorm(3), ReLU(), Flatten(), Dense(27, 4), ReLU(),
             Dense(4, 3)),
            3,
        )
        model = init_model(arch, 0)
        self.run(model, np.random.default_rng(0).random((4, 1, 8, 8)), mode)
        layer_checks = [w for w in checked if w.startswith("layer")]
        assert layer_checks == [
            "layer 0 (Conv2D)", "layer 1 (BatchNorm)", "layer 4 (Dense)", "layer 6 (Dense)"
        ]
        assert checked[0] == "input"


class TestArchAndLayout:
    def test_dense_layer_parameter_count(self):
        arch = ArchSpec((4,), (Dense(4, 3),), 3)
        spans = param_layout(arch)[0]
        assert sum(stop - start for _, start, stop, _ in spans) == 4 * 3 + 3

    def test_layout_offsets_cover_params_exactly(self):
        arch = conv_arch()
        layout = param_layout(arch)
        offset = 0
        for layer, spans in zip(arch.layers, layout, strict=True):
            assert [role for role, *_ in spans] == list(layer.param_shapes())
            for _, start, stop, shape in spans:
                assert start == offset
                assert stop - start == math.prod(shape)
                offset = stop
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
            (lambda doc: doc["layers"][0].update(kernel="3"), "'kernel' must be int"),
            (lambda doc: doc.update(input_shape=8), "input_shape"),
            (lambda doc: doc.update(input_shape=[True, 8, 8]),
             "arch key 'input_shape' item 0 must be int, got True"),
            (lambda doc: doc.update(output_dim=True), "arch key 'output_dim' must be int, got True"),
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
        assert np.array_equal(logits, np.zeros((6, 3)))

    def test_logits_shape_batch_32(self):
        arch = ArchSpec((6,), (Dense(6, 8),), 8)
        model = init_model(arch, 1)
        x = np.random.default_rng(1).random((32, 6))
        assert forward(model, x).shape == (32, 8)

    def test_eval_mode_pure(self):
        model = init_model(conv_arch(), 2)
        x = np.random.default_rng(2).random((5, 1, 8, 8))
        a = forward(model, x, "eval")
        b = forward(model, x, "eval")
        assert np.array_equal(a, b)

    def test_eval_independent_of_batch_composition(self):
        model = init_model(conv_arch(), 2)
        x = np.random.default_rng(3).random((5, 1, 8, 8))
        full = forward(model, x, "eval")
        alone = forward(model, x[2:3], "eval")
        np.testing.assert_allclose(full[2:3], alone, rtol=0, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        model = init_model(conv_arch(), 2)
        with pytest.raises(ValueError, match="batch shape"):
            forward(model, np.zeros((4, 1, 9, 9)))

    def test_empty_batch_rejected(self):
        model = init_model(conv_arch(), 2)
        with pytest.raises(ValueError, match="empty batch"):
            forward(model, np.zeros((0, 1, 8, 8)))

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
        out = forward(model, rng.random((64, 6)), "train")
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

    @pytest.mark.parametrize(
        "targets,loss_kind,message",
        [
            (np.array([0, 1, 2, 0]), "xx", "loss_kind"),
            (np.array([0, 1, 2]), "ce", "expected 4 class indices"),
            (np.array([0, 1, 5, 0]), "ce", "range"),
            (np.array([0, -1, 2, 0]), "ce", "range"),
            (np.array([0.0, 1.0, 2.0, 0.0]), "ce", "integers, got dtype float64"),
            (np.array([True, False, True, False]), "ce", "integers, got dtype bool"),
            (np.zeros((4, 2)), "bce", "targets shape"),
            (np.full((4, 4), 0.5), "bce", "0/1"),
        ],
        ids=["loss_kind", "ce_count", "ce_above_range", "ce_below_range", "ce_float", "ce_bool",
             "bce_shape", "bce_values"],
    )
    def test_rejected_call_leaves_the_model_as_it_was(self, targets, loss_kind, message):
        """Bad targets and loss kinds are rejected before the forward pass,
        so a train-mode call moves no running statistic."""
        model = init_model(conv_arch(), 0)
        before = clone_with_params(model, model.params)
        x = np.random.default_rng(0).random((4, 1, 8, 8))
        with pytest.raises(ValueError, match=message):
            loss_and_grad(model, x, targets, loss_kind)
        assert same_bits(model.params, before.params)
        for i, (mu, var) in before.batchnorm_stats.items():
            assert same_bits(model.batchnorm_stats[i][0], mu)
            assert same_bits(model.batchnorm_stats[i][1], var)


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
        assert np.array_equal(forward(model, x), forward(clone, x))

    def test_zeroed_params_zero_dense_outputs(self):
        arch = dense_arch((5, 4, 2))
        model = init_model(arch, 0)
        clone = clone_with_params(model, np.zeros(model.num_params))
        assert np.array_equal(forward(clone, np.ones((2, 5))), np.zeros((2, 2)))

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

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("cut,error", [
        (0, None),
        (-1, r"^truncated model file while reading bn1 var: needs 24 bytes, 23 read$"),
        (+1, r"^trailing bytes after model payload$"),
    ], ids=["whole", "short", "long"])
    def test_pipe_loads_like_the_file_it_carries(self, tmp_path, cut, error):
        """A pipe has no size to check up front: a short one is named as
        truncated where the read comes up short."""
        model = init_model(conv_arch(), 13)
        path = tmp_path / "model.unfg"
        save_model(model, path)
        data = path.read_bytes()
        data = data[:cut] if cut < 0 else data + b"\0" * cut
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)

        def feed():
            try:
                with open(fifo, "wb") as fh:
                    fh.write(data)
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            if error is None:
                loaded = load_model(fifo)
                assert np.array_equal(loaded.params, model.params)
                assert loaded.arch == model.arch
            else:
                with pytest.raises(ValueError, match=error):
                    load_model(fifo)
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
