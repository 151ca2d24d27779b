"""Minimal differentiable network engine.

Supports a fixed layer set (Dense, Conv2D, ReLU, BatchNorm, GlobalAvgPool,
Flatten) over 64-bit floats, with analytic backprop and a stable flat
parameter layout: a model's parameters live in one 1-D array whose index ->
(layer, role, position) mapping is a pure function of the architecture, so
optimizer states, gradient vectors, and freeze masks can all share indices.

Gradient vectors are plain 1-D float64 ndarrays aligned with
``ModelState.params`` (same length, same layout).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import ClassVar, Union, get_args

import numpy as np

__all__ = [
    "Tensor",
    "Dense",
    "Conv2D",
    "ReLU",
    "BatchNorm",
    "GlobalAvgPool",
    "Flatten",
    "ArchSpec",
    "LayoutRecord",
    "ModelState",
    "param_layout",
    "init_model",
    "forward",
    "loss_and_grad",
    "clone_with_params",
    "save_model",
    "load_model",
    "arch_to_json",
    "arch_from_json",
]

MODEL_MAGIC = b"UNFG"
MODEL_FORMAT_VERSION = 1


class Tensor:
    """Dense array of float64 values with an explicit shape.

    Values are stored flat in row-major order; ``array`` exposes the shaped
    view. Construction rejects non-finite entries.
    """

    __slots__ = ("shape", "values")

    def __init__(self, shape: tuple[int, ...], values: np.ndarray):
        shape = tuple(int(d) for d in shape)
        if any(d <= 0 for d in shape):
            raise ValueError(f"tensor dimensions must be positive, got {shape}")
        values = np.ascontiguousarray(values, dtype=np.float64).ravel()
        if values.size != int(np.prod(shape)):
            raise ValueError(
                f"shape {shape} needs {int(np.prod(shape))} values, got {values.size}"
            )
        if not np.isfinite(values).all():
            raise ValueError("tensor contains non-finite values")
        self.shape = shape
        self.values = values

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Tensor":
        arr = np.asarray(arr, dtype=np.float64)
        return cls(arr.shape, arr.ravel())

    @property
    def array(self) -> np.ndarray:
        return self.values.reshape(self.shape)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


# --------------------------------------------------------------------------
# Layers
#
# Each layer type is one frozen dataclass that owns everything the engine
# knows about it:
#   tag                          name in the arch JSON (a ClassVar, not a field)
#   out_shape(shape)             per-sample output shape; ValueError on mismatch
#   param_shapes()               {role: shape} of its parameters, in layout order
#   fan_in                       inputs per output unit (layers with weights)
#   forward(x, params, mode, stats) -> (out, cache)
#   backward(d, params, cache, grads, need_dx) -> dx
# ``params`` and ``grads`` are tuples of shaped views into the flat parameter
# and gradient vectors, one per role; backward writes its parameter gradients
# into ``grads``. A layer may return None for dx when ``need_dx`` is False.
# ``stats`` is a BatchNorm layer's running (mean, var), read in eval mode and
# smoothed in place in train mode; None when train mode must not update it.
#
# Layout rule: numpy's pairwise summation follows memory order, so the same
# values summed in another layout can differ in the last bit. Conv2D outputs
# are NCHW views of channels-last memory and gradients flow C-contiguous.
# Elementwise operations may write into any buffer or layout; every
# reduction and matrix product must see the layout it always has.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int
    tag: ClassVar[str] = "dense"

    @property
    def fan_in(self) -> int:
        return self.in_dim

    def out_shape(self, shape):
        if shape != (self.in_dim,):
            raise ValueError(f"Dense expects ({self.in_dim},), got {shape}")
        return (self.out_dim,)

    def param_shapes(self):
        return {"weight": (self.in_dim, self.out_dim), "bias": (self.out_dim,)}

    def forward(self, x, params, mode, stats):
        w, b = params
        out = x @ w
        out += b
        return out, x

    def backward(self, d, params, x, grads, need_dx):
        grads[0][...] = x.T @ d
        grads[1][...] = d.sum(axis=0)
        return d @ params[0].T if need_dx else None


@dataclass(frozen=True)
class Conv2D:
    """Valid (unpadded), strided convolution, computed as one product of the
    im2col patch matrix with the weight matrix."""

    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    tag: ClassVar[str] = "conv2d"

    @property
    def fan_in(self) -> int:
        return self.in_ch * self.kernel * self.kernel

    def out_shape(self, shape):
        if len(shape) != 3 or shape[0] != self.in_ch:
            raise ValueError(f"Conv2D expects (={self.in_ch}, H, W), got {shape}")
        if self.kernel < 1 or self.stride < 1:
            raise ValueError("Conv2D kernel/stride must be >= 1")
        _, h, w = shape
        if h < self.kernel or w < self.kernel:
            raise ValueError(f"Conv2D kernel {self.kernel} exceeds input {h}x{w}")
        k, s = self.kernel, self.stride
        return (self.out_ch, (h - k) // s + 1, (w - k) // s + 1)

    def param_shapes(self):
        # The (out_ch, in_ch, k, k) kernel, stored row-major as the matrix the
        # patch product uses.
        return {"weight": (self.out_ch, self.fan_in), "bias": (self.out_ch,)}

    def forward(self, x, params, mode, stats):
        w, b = params
        k, s = self.kernel, self.stride
        windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
        windows = windows[:, :, ::s, ::s]  # (B, C, H_out, W_out, k, k)
        bsz, _, h_out, w_out = windows.shape[:4]
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(bsz * h_out * w_out, -1)
        out = cols @ w.T
        out += b
        # An NCHW view of channels-last memory, as the layout rule says.
        out = out.reshape(bsz, h_out, w_out, self.out_ch).transpose(0, 3, 1, 2)
        return out, (x.shape, cols)

    def backward(self, d, params, cache, grads, need_dx):
        x_shape, cols = cache
        d2 = d.transpose(0, 2, 3, 1).reshape(-1, self.out_ch)
        grads[0][...] = d2.T @ cols
        grads[1][...] = d.sum(axis=(0, 2, 3))
        if not need_dx:
            return None
        k, s = self.kernel, self.stride
        bsz, _, h_out, w_out = d.shape
        dcols = (d2 @ params[0]).reshape(bsz, h_out, w_out, self.in_ch, k, k)
        # col2im: scatter-add each kernel offset's patch gradients back, into
        # channels-last memory, which matches dcols' order; every element
        # still sums its terms in (ki, kj) order.
        dx = np.zeros((x_shape[0], x_shape[2], x_shape[3], x_shape[1]))
        for ki in range(k):
            for kj in range(k):
                dx[:, ki : ki + s * h_out : s, kj : kj + s * w_out : s] += dcols[..., ki, kj]
        del dcols  # the copy below may take its memory
        return np.ascontiguousarray(dx.transpose(0, 3, 1, 2))


@dataclass(frozen=True)
class ReLU:
    tag: ClassVar[str] = "relu"

    def out_shape(self, shape):
        return shape

    def param_shapes(self):
        return {}

    def forward(self, x, params, mode, stats):
        out = np.maximum(x, 0.0)
        return out, out

    def backward(self, d, params, out, grads, need_dx):
        # The mask takes d's layout, so the product reads one layout.
        return d * np.greater(out, 0.0, out=np.empty_like(d, dtype=bool))


@dataclass(frozen=True)
class BatchNorm:
    num_features: int
    momentum: float = 0.1
    epsilon: float = 1e-5
    tag: ClassVar[str] = "batchnorm"

    def out_shape(self, shape):
        if shape[0] != self.num_features:
            raise ValueError(
                f"BatchNorm({self.num_features}) mismatches feature dim {shape[0]}"
            )
        return shape

    def param_shapes(self):
        return {"scale": (self.num_features,), "shift": (self.num_features,)}

    def forward(self, x, params, mode, stats):
        scale, shift = params
        axes = _bn_axes(x)
        if mode == "train":
            mu = x.mean(axis=axes)
            # The operations ndarray.var performs, keeping the centred values.
            centred = x - _bn_expand(mu, x.ndim)
            var = (centred * centred).sum(axis=axes) / (x.size // self.num_features)
            if stats is not None:
                run_mu, run_var = stats
                m = self.momentum
                run_mu *= 1.0 - m
                run_mu += m * mu
                run_var *= 1.0 - m
                run_var += m * var
        else:
            mu, var = stats
            centred = x - _bn_expand(mu, x.ndim)
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        xhat = centred
        xhat *= _bn_expand(inv_std, x.ndim)
        out = xhat * _bn_expand(scale, x.ndim)
        out += _bn_expand(shift, x.ndim)
        return out, (xhat, inv_std, mode)

    def backward(self, d, params, cache, grads, need_dx):
        xhat, inv_std, mode = cache
        axes = _bn_axes(xhat)
        if d.flags.c_contiguous:
            # One copy, so every product below reads a single layout; a
            # product with a C-contiguous d is C-ordered either way, so the
            # sums see the same memory order.
            xhat = np.ascontiguousarray(xhat)
        grads[0][...] = (d * xhat).sum(axis=axes)
        grads[1][...] = d.sum(axis=axes)
        dxhat = d * _bn_expand(params[0], d.ndim)
        inv_std = _bn_expand(inv_std, d.ndim)
        if mode == "eval":
            dxhat *= inv_std
            return dxhat
        mean_dxhat = _bn_expand(dxhat.mean(axis=axes), d.ndim)
        mean_dxhat_xhat = _bn_expand((dxhat * xhat).mean(axis=axes), d.ndim)
        dxhat -= mean_dxhat
        dxhat -= xhat * mean_dxhat_xhat
        dxhat *= inv_std
        return dxhat


def _bn_axes(x: np.ndarray) -> tuple[int, ...]:
    return (0,) if x.ndim == 2 else (0, 2, 3)


def _bn_expand(v: np.ndarray, ndim: int) -> np.ndarray:
    return v if ndim == 2 else v[:, None, None]


@dataclass(frozen=True)
class GlobalAvgPool:
    tag: ClassVar[str] = "global_avg_pool"

    def out_shape(self, shape):
        if len(shape) != 3:
            raise ValueError(f"GlobalAvgPool expects (C, H, W), got {shape}")
        return (shape[0],)

    def param_shapes(self):
        return {}

    def forward(self, x, params, mode, stats):
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, d, params, shape, grads, need_dx):
        return np.broadcast_to(d[:, :, None, None], shape) / (shape[2] * shape[3])


@dataclass(frozen=True)
class Flatten:
    tag: ClassVar[str] = "flatten"

    def out_shape(self, shape):
        return (int(np.prod(shape)),)

    def param_shapes(self):
        return {}

    def forward(self, x, params, mode, stats):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, d, params, shape, grads, need_dx):
        return d.reshape(shape)


Layer = Union[Dense, Conv2D, ReLU, BatchNorm, GlobalAvgPool, Flatten]
_LAYER_BY_TAG = {cls.tag: cls for cls in get_args(Layer)}


# --------------------------------------------------------------------------
# Architecture description
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ArchSpec:
    """Ordered layer stack plus the input shape it consumes.

    ``input_shape`` is (C, H, W) for image inputs or (features,) for flat
    inputs; ``output_dim`` is the number of classes (single-label) or labels
    (multi-label) the final layer must emit.
    """

    input_shape: tuple[int, ...]
    layers: tuple[Layer, ...]
    output_dim: int

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))

    def validate(self) -> list[tuple[int, ...]]:
        """Shape-check every layer transition; returns per-layer output shapes."""
        if self.output_dim < 1:
            raise ValueError(f"output_dim must be >= 1, got {self.output_dim}")
        if len(self.input_shape) not in (1, 3) or any(d <= 0 for d in self.input_shape):
            raise ValueError(f"input_shape must be (features,) or (C, H, W), got {self.input_shape}")
        shapes = []
        shape = self.input_shape
        for i, layer in enumerate(self.layers):
            try:
                shape = layer.out_shape(shape)
            except ValueError as e:
                raise ValueError(f"layer {i} {e}") from None
            shapes.append(shape)
        if shape != (self.output_dim,):
            raise ValueError(
                f"network emits shape {shape} but output_dim is {self.output_dim}"
            )
        return shapes


def arch_to_json(arch: ArchSpec) -> str:
    """Canonical JSON encoding (sorted keys, no whitespace); stable across runs."""
    doc = {
        "input_shape": list(arch.input_shape),
        "layers": [{"type": layer.tag, **asdict(layer)} for layer in arch.layers],
        "output_dim": arch.output_dim,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def check_keys(doc, where: str, required=(), optional=()) -> None:
    """Raise ValueError unless ``doc`` is a JSON object holding every key in
    ``required`` and no key outside ``required`` and ``optional``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ValueError(f"{where} is missing key {missing[0]!r}")
    unknown = sorted(set(doc) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{where} has unknown key {unknown[0]!r}")


# JSON value types a layer field of each annotated type accepts.
_FIELD_TYPES = {"int": int, "float": (int, float)}


def arch_from_json(text: str) -> ArchSpec:
    doc = json.loads(text)
    check_keys(doc, "arch", required=("input_shape", "layers", "output_dim"))
    if not isinstance(doc["layers"], list):
        raise ValueError("arch layers must be a JSON list")
    layers = []
    for i, entry in enumerate(doc["layers"]):
        where = f"arch layer {i}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be a JSON object, got {entry!r}")
        cls = _LAYER_BY_TAG.get(str(entry.get("type")))
        if cls is None:
            raise ValueError(f"unknown layer type {entry.get('type')!r}")
        kwargs = {k: v for k, v in entry.items() if k != "type"}
        check_keys(
            kwargs,
            where,
            required=[f.name for f in fields(cls) if f.default is MISSING],
            optional=[f.name for f in fields(cls)],
        )
        for f in fields(cls):
            if not isinstance(kwargs.get(f.name, f.default), _FIELD_TYPES[f.type]):
                raise ValueError(f"{where} {f.name} must be {f.type}, got {kwargs[f.name]!r}")
        layers.append(cls(**kwargs))
    shape, out = doc["input_shape"], doc["output_dim"]
    if not isinstance(shape, list) or not all(isinstance(d, int) for d in shape + [out]):
        raise ValueError("arch input_shape must be a list of ints and output_dim an int")
    arch = ArchSpec(input_shape=tuple(shape), layers=tuple(layers), output_dim=out)
    arch.validate()
    return arch


# --------------------------------------------------------------------------
# Parameter layout and model state
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LayoutRecord:
    layer_index: int
    role: str  # weight | bias | scale | shift
    offset: int
    length: int


def param_layout(arch: ArchSpec) -> tuple[LayoutRecord, ...]:
    """Deterministic flat layout: layers in order, weight before bias,
    scale before shift; offsets are cumulative and non-overlapping."""
    records = []
    offset = 0
    for i, layer in enumerate(arch.layers):
        for role, shape in layer.param_shapes().items():
            length = math.prod(shape)
            records.append(LayoutRecord(i, role, offset, length))
            offset += length
    return tuple(records)


@dataclass
class ModelState:
    """Architecture plus one flat float64 parameter vector.

    BatchNorm running statistics ride along per BatchNorm layer but are not
    parameters: they are excluded from ``params``, gradient vectors, and
    freeze masks. A ModelState is exclusively owned by whoever trains it;
    train-mode forward updates the running statistics in place.
    """

    arch: ArchSpec
    params: np.ndarray
    layout: tuple[LayoutRecord, ...]
    batchnorm_stats: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @property
    def num_params(self) -> int:
        return self.params.size

    def slice(self, layer_index: int, role: str) -> np.ndarray:
        for rec in self.layout:
            if rec.layer_index == layer_index and rec.role == role:
                return self.params[rec.offset : rec.offset + rec.length]
        raise KeyError(f"no parameter ({layer_index}, {role}) in layout")


def _layer_views(model: ModelState, flat: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Per layer, the shaped views of ``flat`` (parameters or a gradient
    vector) in ``param_shapes`` order, located by one pass over the layout."""
    views = [[] for _ in model.arch.layers]
    for rec in model.layout:
        views[rec.layer_index].append(flat[rec.offset : rec.offset + rec.length])
    return [
        tuple(v.reshape(shape) for v, shape in zip(vs, layer.param_shapes().values()))
        for vs, layer in zip(views, model.arch.layers)
    ]


def _kaiming_bound(fan_in: int) -> float:
    # He-uniform for ReLU nets: U(-sqrt(6/fan_in), +sqrt(6/fan_in)).
    return float(np.sqrt(6.0 / fan_in))


def init_model(arch: ArchSpec, seed: int) -> ModelState:
    """Deterministically initialize a model: Kaiming-uniform weights, zero
    biases, identity BatchNorm (scale 1, shift 0, running mean 0 / var 1)."""
    arch.validate()
    layout = param_layout(arch)
    total = sum(r.length for r in layout)
    params = np.zeros(total, dtype=np.float64)
    rng = np.random.default_rng(seed)
    for rec in layout:
        view = params[rec.offset : rec.offset + rec.length]
        if rec.role == "weight":
            bound = _kaiming_bound(arch.layers[rec.layer_index].fan_in)
            view[:] = rng.uniform(-bound, bound, size=rec.length)
        elif rec.role == "scale":
            view[:] = 1.0
        # bias and shift stay zero
    stats = {
        i: (np.zeros(l.num_features), np.ones(l.num_features))
        for i, l in enumerate(arch.layers)
        if isinstance(l, BatchNorm)
    }
    return ModelState(arch=arch, params=params, layout=layout, batchnorm_stats=stats)


def clone_with_params(model: ModelState, new_params: np.ndarray) -> ModelState:
    """Same architecture and layout, replaced parameters, copied BN stats."""
    new_params = np.asarray(new_params, dtype=np.float64).ravel()
    if new_params.size != model.params.size:
        raise ValueError(
            f"expected {model.params.size} parameters, got {new_params.size}"
        )
    stats = {i: (m.copy(), v.copy()) for i, (m, v) in model.batchnorm_stats.items()}
    return ModelState(
        arch=model.arch,
        params=new_params.copy(),
        layout=model.layout,
        batchnorm_stats=stats,
    )


def clone_model(model: ModelState) -> ModelState:
    return clone_with_params(model, model.params)


# --------------------------------------------------------------------------
# Forward / backward
# --------------------------------------------------------------------------

def _check_finite(arr: np.ndarray, where: str):
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values after {where}")


def _forward_raw(
    model: ModelState,
    x: np.ndarray,
    mode: str,
    cache: list | None = None,
    update_stats: bool = True,
) -> np.ndarray:
    """Run the stack on a (batch, *input_shape) array; returns logits.

    ``cache`` collects per-layer context for the backward pass. In train mode
    BatchNorm normalizes with batch statistics and (if ``update_stats``)
    smooths the model's running statistics in place; eval mode reads running
    statistics only and never mutates the model.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    expected = model.arch.input_shape
    if x.ndim != len(expected) + 1 or x.shape[1:] != expected:
        raise ValueError(f"batch shape {x.shape} does not match input {expected}")
    _check_finite(x, "input")

    params = _layer_views(model, model.params)
    stats = model.batchnorm_stats if mode == "eval" or update_stats else {}
    for i, layer in enumerate(model.arch.layers):
        x, layer_cache = layer.forward(x, params[i], mode, stats.get(i))
        _check_finite(x, f"layer {i} ({type(layer).__name__})")
        if cache is not None:
            cache.append(layer_cache)
    return x


def _backward_raw(model: ModelState, cache: list, dlogits: np.ndarray) -> np.ndarray:
    """Walk the cached stack in reverse, producing the flat gradient vector.
    The input gradient of layer 0 is never needed, so it is not computed."""
    grad = np.zeros_like(model.params)
    params = _layer_views(model, model.params)
    grads = _layer_views(model, grad)
    d = dlogits
    for i in range(len(model.arch.layers) - 1, -1, -1):
        d = model.arch.layers[i].backward(d, params[i], cache[i], grads[i], i > 0)
    return grad


def forward(model: ModelState, batch: Tensor | np.ndarray, mode: str = "eval") -> Tensor:
    """Logits for a batch; (batch_size, output_dim).

    Eval mode is a pure function of (model, batch); train mode uses batch
    statistics in BatchNorm layers and updates their running statistics.
    """
    arr = batch.array if isinstance(batch, Tensor) else np.asarray(batch)
    out = _forward_raw(model, arr, mode)
    return Tensor.from_array(out)


# --------------------------------------------------------------------------
# Losses
# --------------------------------------------------------------------------

def _softmax_ce(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    n, k = logits.shape
    targets = np.asarray(targets)
    if targets.shape != (n,):
        raise ValueError(f"expected {n} class indices, got shape {targets.shape}")
    if targets.min() < 0 or targets.max() >= k:
        raise ValueError(f"class index out of range [0, {k})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logsumexp
    loss = -logp[np.arange(n), targets].mean()
    probs = np.exp(logp)
    dlogits = probs
    dlogits[np.arange(n), targets] -= 1.0
    return float(loss), dlogits / n


def _bce_logits(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.shape:
        raise ValueError(f"targets shape {targets.shape} != logits shape {logits.shape}")
    if ((targets != 0.0) & (targets != 1.0)).any():
        raise ValueError("bce targets must be 0/1 (apply the unknown-label policy first)")
    z = logits
    # max(z,0) - z*y + log1p(exp(-|z|)) is the stable elementwise form.
    loss = (np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))).mean()
    sig = 1.0 / (1.0 + np.exp(-z))
    return float(loss), (sig - targets) / z.size


def loss_and_grad(
    model: ModelState,
    batch: Tensor | np.ndarray,
    targets: np.ndarray,
    loss_kind: str,
    bn_mode: str = "train",
    update_stats: bool = True,
) -> tuple[float, np.ndarray]:
    """Mean batch loss and its gradient in ModelState layout.

    ``loss_kind`` is "ce" (softmax cross-entropy over class indices) or "bce"
    (elementwise binary cross-entropy with logits over 0/1 label matrices).
    BatchNorm runs in ``bn_mode``; the training path uses "train".
    """
    arr = batch.array if isinstance(batch, Tensor) else np.asarray(batch, dtype=np.float64)
    if arr.shape[0] == 0:
        raise ValueError("empty batch")
    cache: list = []
    logits = _forward_raw(model, arr, bn_mode, cache=cache, update_stats=update_stats)
    if loss_kind == "ce":
        loss, dlogits = _softmax_ce(logits, targets)
    elif loss_kind == "bce":
        loss, dlogits = _bce_logits(logits, targets)
    else:
        raise ValueError(f"loss_kind must be 'ce' or 'bce', got {loss_kind!r}")
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss")
    grad = _backward_raw(model, cache, dlogits)
    _check_finite(grad, "backward pass")
    return loss, grad


# --------------------------------------------------------------------------
# Model file format
# --------------------------------------------------------------------------

def _write_array(fh, arr: np.ndarray):
    data = np.ascontiguousarray(arr, dtype="<f8")
    fh.write(struct.pack("<Q", data.size))
    fh.write(data.tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    # Check a declared length against the file before reading, so a corrupt
    # length fails here instead of asking for an absurd allocation.
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise ValueError(f"truncated model file while reading {what}: needs {n} bytes, {left} left")
    return fh.read(n)


def _read_array(fh, what: str) -> np.ndarray:
    (n,) = struct.unpack("<Q", _read_exact(fh, 8, f"{what} length"))
    arr = np.frombuffer(_read_exact(fh, 8 * n, what), dtype="<f8").astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"model file has non-finite values in {what}")
    return arr


def save_model(model: ModelState, path) -> None:
    """Single binary file: magic, version, arch JSON, params, BN stats."""
    arch_json = arch_to_json(model.arch).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(arch_json)))
        fh.write(arch_json)
        _write_array(fh, model.params)
        for i in sorted(model.batchnorm_stats):
            mu, var = model.batchnorm_stats[i]
            _write_array(fh, mu)
            _write_array(fh, var)


def load_model(path) -> ModelState:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != MODEL_MAGIC:
            raise ValueError(f"not a model file (magic {magic!r})")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        (arch_len,) = struct.unpack("<Q", _read_exact(fh, 8, "arch length"))
        arch = arch_from_json(_read_exact(fh, arch_len, "arch").decode("utf-8"))
        layout = param_layout(arch)
        params = _read_array(fh, "params")
        expected = sum(r.length for r in layout)
        if params.size != expected:
            raise ValueError(f"model file has {params.size} params, arch needs {expected}")
        stats = {}
        for i, layer in enumerate(arch.layers):
            if isinstance(layer, BatchNorm):
                mu = _read_array(fh, f"bn{i} mean")
                var = _read_array(fh, f"bn{i} var")
                if mu.size != layer.num_features or var.size != layer.num_features:
                    raise ValueError(f"BatchNorm stats size mismatch at layer {i}")
                stats[i] = (mu, var)
        if fh.read(1):
            raise ValueError("trailing bytes after model payload")
    return ModelState(arch=arch, params=params, layout=layout, batchnorm_stats=stats)
