"""Minimal differentiable network engine.

Supports a fixed layer set (Dense, Conv2D, ReLU, BatchNorm, GlobalAvgPool,
Flatten) over 64-bit floats, with analytic backprop and a stable flat
parameter layout: a model's parameters live in one 1-D array, and
``param_layout(arch)`` gives, per layer, the (role, start, stop, shape) span
of each of its parameters. The layout is a pure function of the
architecture, so optimizer states, gradient vectors, and freeze masks can
all share indices.

Gradient vectors are plain 1-D float64 ndarrays aligned with
``ModelState.params`` (same length, same layout).
"""

from __future__ import annotations

import functools
import json
import math
import os
import stat
import struct
from dataclasses import MISSING, dataclass, field, fields
from types import NoneType, UnionType
from typing import ClassVar, Union, get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "Dense",
    "Conv2D",
    "ReLU",
    "BatchNorm",
    "GlobalAvgPool",
    "Flatten",
    "ArchSpec",
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
    "fields_from_json",
    "fields_to_json",
]

MODEL_MAGIC = b"UNFG"
MODEL_FORMAT_VERSION = 1
_READ_CHUNK = 1 << 20

# Rows per eval-mode pass when a whole dataset is scored or its gradient is
# summed. The chunking is part of the computed numbers (summation and BLAS
# blocking follow it), so every such loop uses this one value.
EVAL_BATCH = 256


# --------------------------------------------------------------------------
# Layers
#
# Each layer type is one frozen dataclass that owns everything the engine
# knows about it:
#   tag                          name in the arch JSON (a ClassVar, not a field)
#   out_shape(shape)             per-sample output shape; ValueError on mismatch
#   param_shapes()               {role: shape} of its parameters, in layout order
#   fan_in                       inputs per output unit (layers with weights)
#   forward(x, params, mode, stats, owned) -> (out, cache)
#   backward(d, params, cache, grads, need_dx) -> dx
#   keeps_finite                 True when a finite input always gives a
#                                finite output, so the forward pass need not
#                                re-check it (a ClassVar, not a field)
# ``params`` and ``grads`` are tuples of shaped views into the flat parameter
# and gradient vectors, one per role; backward writes its parameter gradients
# into ``grads``. A layer may return None for dx when ``need_dx`` is False.
# ``stats`` is a BatchNorm layer's running (mean, var), read in eval mode and
# smoothed in place in train mode; None when train mode must not update it.
# ``owned`` is True only in a cache-free pass, which owns every activation
# after its batch copy: the layer may write its output into ``x``, and its
# cache is dropped before the next layer runs.
#
# Layout rule: numpy's pairwise summation follows memory order, so the same
# values summed in another layout can differ in the last bit. Conv2D outputs
# are NCHW views of channels-last memory and gradients flow C-contiguous.
# Elementwise operations may write into any buffer or layout; every
# reduction and matrix product must see the layout it always has. In every
# pass, with or without a cache, a per-channel operand of an elementwise
# operation is laid out like one sample of the activation (``_like_sample``,
# Conv2D's bias as one tiled row), so the operation runs one long loop per
# sample, not one short loop per channel or pixel.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int
    tag: ClassVar[str] = "dense"
    keeps_finite: ClassVar[bool] = False

    @property
    def fan_in(self) -> int:
        return self.in_dim

    def out_shape(self, shape):
        if shape != (self.in_dim,):
            raise ValueError(f"Dense expects ({self.in_dim},), got {shape}")
        return (self.out_dim,)

    def param_shapes(self):
        return {"weight": (self.in_dim, self.out_dim), "bias": (self.out_dim,)}

    def forward(self, x, params, mode, stats, owned=False):
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
    keeps_finite: ClassVar[bool] = False

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

    def forward(self, x, params, mode, stats, owned=False):
        w, b = params
        cols, h_out, w_out = _im2col(x, self.kernel, self.stride)
        out = cols @ w.T
        rows = out.reshape(x.shape[0], -1)  # the bias over each sample's whole row
        rows += np.tile(b, h_out * w_out)
        # An NCHW view of channels-last memory, as the layout rule says.
        out = out.reshape(x.shape[0], h_out, w_out, self.out_ch).transpose(0, 3, 1, 2)
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


def _im2col(x: np.ndarray, k: int, s: int) -> tuple[np.ndarray, int, int]:
    """The (B*H_out*W_out, C*k*k) patch matrix of a (B, C, H, W) batch, rows
    in (b, oy, ox) order and columns in (c, ki, kj) order, C-contiguous.

    One gather from the input's own memory: a C-contiguous batch is read as
    is, the NCHW view of channels-last memory that Conv2D emits is read
    through its channels-last transpose, and any other layout is copied
    once first."""
    bsz, c, h, w = x.shape
    flat, channels_last = x, False
    if not x.flags.c_contiguous:
        flat = x.transpose(0, 2, 3, 1)
        channels_last = flat.flags.c_contiguous
        if not channels_last:
            flat = np.ascontiguousarray(x)
    idx = _im2col_index(c, h, w, channels_last, k, s)
    h_out, w_out = (h - k) // s + 1, (w - k) // s + 1
    cols = flat.reshape(bsz, -1).take(idx, axis=1).reshape(bsz * h_out * w_out, -1)
    return cols, h_out, w_out


@functools.lru_cache(maxsize=None)
def _im2col_index(c: int, h: int, w: int, channels_last: bool, k: int, s: int) -> np.ndarray:
    """Per-sample gather index of ``_im2col``: entry (oy*W_out + ox,
    (ci*k + ki)*k + kj) is the position of pixel (ci, oy*s + ki, ox*s + kj)
    in one sample's C*H*W values, stored CHW or, if ``channels_last``, HWC.
    It does not depend on the batch size, so one cached copy serves all."""
    h_out, w_out = (h - k) // s + 1, (w - k) // s + 1
    ci = np.arange(c)[:, None, None]
    ki = np.arange(k)[None, :, None]
    kj = np.arange(k)[None, None, :]
    row = (np.arange(h_out) * s)[:, None, None, None, None] + ki
    col = (np.arange(w_out) * s)[None, :, None, None, None] + kj
    idx = (row * w + col) * c + ci if channels_last else (ci * h + row) * w + col
    idx = np.ascontiguousarray(idx.reshape(h_out * w_out, c * k * k), dtype=np.intp)
    idx.flags.writeable = False
    return idx


@dataclass(frozen=True)
class ReLU:
    tag: ClassVar[str] = "relu"
    keeps_finite: ClassVar[bool] = True

    def out_shape(self, shape):
        return shape

    def param_shapes(self):
        return {}

    def forward(self, x, params, mode, stats, owned=False):
        out = np.maximum(x, 0.0, out=x if owned else None)
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
    keeps_finite: ClassVar[bool] = False

    def out_shape(self, shape):
        if shape[0] != self.num_features:
            raise ValueError(
                f"BatchNorm({self.num_features}) mismatches feature dim {shape[0]}"
            )
        return shape

    def param_shapes(self):
        return {"scale": (self.num_features,), "shift": (self.num_features,)}

    def forward(self, x, params, mode, stats, owned=False):
        scale, shift = params
        axes = _bn_axes(x)
        expand = functools.partial(_like_sample, x)
        if mode == "train":
            mu = x.mean(axis=axes)
            # The operations ndarray.var performs, keeping the centred values.
            centred = np.subtract(x, expand(mu), out=x if owned else None)
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
            centred = np.subtract(x, expand(mu), out=x if owned else None)
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        xhat = centred
        xhat *= expand(inv_std)
        out = np.multiply(xhat, expand(scale), out=xhat if owned else None)
        out += expand(shift)
        return out, None if owned else (xhat, inv_std, mode)

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
        expand = functools.partial(_like_sample, d)  # dxhat takes d's layout
        dxhat = d * expand(params[0])
        inv_std = expand(inv_std)
        if mode == "eval":
            dxhat *= inv_std
            return dxhat
        mean_dxhat = expand(dxhat.mean(axis=axes))
        mean_dxhat_xhat = expand((dxhat * xhat).mean(axis=axes))
        dxhat -= mean_dxhat
        dxhat -= xhat * mean_dxhat_xhat
        dxhat *= inv_std
        return dxhat


def _bn_axes(x: np.ndarray) -> tuple[int, ...]:
    return (0,) if x.ndim == 2 else (0, 2, 3)


def _like_sample(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The per-channel values ``v`` spread over one sample of the batch
    ``x`` and laid out in that sample's memory order (``v`` itself for 2-D
    ``x``): HWC for the NCHW view of channels-last memory that Conv2D
    emits, CHW for a C-contiguous batch. An elementwise operation of ``x``
    with it then runs one loop per sample, not one per channel."""
    if x.ndim == 2:
        return v
    out = np.empty_like(x[0])  # order "K": x's memory order
    out[...] = v[:, None, None]
    return out


@dataclass(frozen=True)
class GlobalAvgPool:
    tag: ClassVar[str] = "global_avg_pool"
    # A mean can overflow.
    keeps_finite: ClassVar[bool] = False

    def out_shape(self, shape):
        if len(shape) != 3:
            raise ValueError(f"GlobalAvgPool expects (C, H, W), got {shape}")
        return (shape[0],)

    def param_shapes(self):
        return {}

    def forward(self, x, params, mode, stats, owned=False):
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, d, params, shape, grads, need_dx):
        return np.broadcast_to(d[:, :, None, None], shape) / (shape[2] * shape[3])


@dataclass(frozen=True)
class Flatten:
    tag: ClassVar[str] = "flatten"
    keeps_finite: ClassVar[bool] = True

    def out_shape(self, shape):
        return (int(np.prod(shape)),)

    def param_shapes(self):
        return {}

    def forward(self, x, params, mode, stats, owned=False):
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

    def validate(self) -> None:
        """Shape-check every layer transition."""
        if self.output_dim < 1:
            raise ValueError(f"output_dim must be >= 1, got {self.output_dim}")
        if len(self.input_shape) not in (1, 3) or any(d <= 0 for d in self.input_shape):
            raise ValueError(f"input_shape must be (features,) or (C, H, W), got {self.input_shape}")
        shape = self.input_shape
        for i, layer in enumerate(self.layers):
            try:
                shape = layer.out_shape(shape)
            except ValueError as e:
                raise ValueError(f"layer {i} {e}") from None
        if shape != (self.output_dim,):
            raise ValueError(
                f"network emits shape {shape} but output_dim is {self.output_dim}"
            )


def arch_to_json(arch: ArchSpec) -> str:
    """Canonical JSON encoding (sorted keys, no whitespace); stable across runs."""
    doc = {
        "input_shape": list(arch.input_shape),
        "layers": [{"type": layer.tag, **fields_to_json(layer)} for layer in arch.layers],
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


def fields_from_json(cls, doc, where: str, section: str = "", keys=None) -> dict:
    """Keyword arguments for the dataclass ``cls`` from the JSON object
    ``doc``, read by the field annotations.

    ``doc`` may set the fields in ``keys`` (default: all); those without a
    default are required. A list reads as a tuple where the annotation
    allows ``tuple[T, ...]``, each item read as ``T``; a whole float reads as
    an int and an int as a float where the annotation allows that type, and
    null only where it allows None. JSON true and false are never numbers.
    An unknown key or a value of any other type raises ValueError naming the
    key (``section.key`` inside ``section``).
    """
    names = [f.name for f in fields(cls)] if keys is None else keys
    required = [
        f.name for f in fields(cls)
        if f.name in names and f.default is MISSING and f.default_factory is MISSING
    ]
    check_keys(doc, f"{where} {section}".rstrip(), required, names)
    kinds = _field_kinds(cls)
    out = {}
    for key, value in doc.items():
        try:
            out[key] = _json_value(value, *kinds[key])
        except (TypeError, OverflowError) as exc:  # OverflowError: an int beyond float
            name = f"{section}.{key}" if section else key
            raise ValueError(f"{where} key {name!r} {exc}") from None
    return out


@functools.lru_cache(maxsize=None)
def _field_kinds(cls) -> dict[str, tuple[tuple, type | None]]:
    """Per field of ``cls``, the types its annotation allows (the members of
    a union, a generic such as ``list[int]`` taken as its origin) and the
    item type ``T`` of its ``tuple[T, ...]`` member, or None. Cached, as
    resolving annotations costs far more than reading a layer."""
    kinds = {}
    for name, hint in get_type_hints(cls).items():
        members = get_args(hint) if get_origin(hint) in (Union, UnionType) else (hint,)
        items = [get_args(m)[0] for m in members if get_origin(m) is tuple]
        kinds[name] = (tuple(get_origin(m) or m for m in members), items[0] if items else None)
    return kinds


def _json_value(value, kinds: tuple, item: type | None = None):
    """``value`` as a type among ``kinds``, a list as a tuple of ``item``;
    TypeError when it fits none."""
    if isinstance(value, list) and item is not None:
        out = []
        for i, v in enumerate(value):
            try:
                out.append(_json_value(v, (item,)))
            except TypeError as exc:
                raise TypeError(f"item {i} {exc}") from None
        return tuple(out)
    if not isinstance(value, bool):  # JSON true and false are never numbers
        if int in kinds and isinstance(value, float) and value.is_integer():
            return int(value)
        if float in kinds and isinstance(value, int):
            return float(value)
        if isinstance(value, kinds):
            return value
    allowed = " | ".join({tuple: "list", NoneType: "null"}.get(k, k.__name__) for k in kinds)
    raise TypeError(f"must be {allowed}, got {value!r}")


def fields_to_json(obj, keys=None) -> dict:
    """The named fields of the dataclass ``obj`` (default: all, in order),
    with tuples as lists: the inverse of ``fields_from_json``."""
    out = {}
    for name in [f.name for f in fields(obj)] if keys is None else keys:
        value = getattr(obj, name)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


def arch_from_json(text: str) -> ArchSpec:
    doc = json.loads(text)
    check_keys(doc, "arch", required=("input_shape", "layers", "output_dim"))
    entries = doc.pop("layers")
    if not isinstance(entries, list):
        raise ValueError("arch layers must be a JSON list")
    layers = []
    for i, entry in enumerate(entries):
        where = f"arch layer {i}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be a JSON object, got {entry!r}")
        cls = _LAYER_BY_TAG.get(str(entry.get("type")))
        if cls is None:
            raise ValueError(f"unknown layer type {entry.get('type')!r}")
        kwargs = {k: v for k, v in entry.items() if k != "type"}
        layers.append(cls(**fields_from_json(cls, kwargs, where)))
    top = fields_from_json(ArchSpec, doc, "arch", keys=("input_shape", "output_dim"))
    arch = ArchSpec(layers=tuple(layers), **top)
    arch.validate()
    return arch


# --------------------------------------------------------------------------
# Parameter layout and model state
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def param_layout(arch: ArchSpec) -> tuple[tuple[tuple[str, int, int, tuple], ...], ...]:
    """Deterministic flat layout: per layer, in order, the (role, start,
    stop, shape) of each parameter in ``param_shapes`` order (weight before
    bias, scale before shift); the spans are cumulative and non-overlapping."""
    layout = []
    offset = 0
    for layer in arch.layers:
        spans = []
        for role, shape in layer.param_shapes().items():
            stop = offset + math.prod(shape)
            spans.append((role, offset, stop, shape))
            offset = stop
        layout.append(tuple(spans))
    return tuple(layout)


def _num_params(arch: ArchSpec) -> int:
    return sum(stop - start for spans in param_layout(arch) for _, start, stop, _ in spans)


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
    batchnorm_stats: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @property
    def num_params(self) -> int:
        return self.params.size

    def slice(self, layer_index: int, role: str) -> np.ndarray:
        for name, start, stop, _ in param_layout(self.arch)[layer_index]:
            if name == role:
                return self.params[start:stop]
        raise KeyError(f"no parameter ({layer_index}, {role}) in layout")


def _layer_views(model: ModelState, flat: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Per layer, the shaped views of ``flat`` (parameters or a gradient
    vector) in ``param_shapes`` order."""
    return [
        tuple(flat[start:stop].reshape(shape) for _, start, stop, shape in spans)
        for spans in param_layout(model.arch)
    ]


def _kaiming_bound(fan_in: int) -> float:
    # He-uniform for ReLU nets: U(-sqrt(6/fan_in), +sqrt(6/fan_in)).
    return float(np.sqrt(6.0 / fan_in))


def init_model(arch: ArchSpec, seed: int) -> ModelState:
    """Deterministically initialize a model: Kaiming-uniform weights, zero
    biases, identity BatchNorm (scale 1, shift 0, running mean 0 / var 1)."""
    arch.validate()
    params = np.zeros(_num_params(arch), dtype=np.float64)
    rng = np.random.default_rng(seed)
    for layer, spans in zip(arch.layers, param_layout(arch)):
        for role, start, stop, _ in spans:
            if role == "weight":
                bound = _kaiming_bound(layer.fan_in)
                params[start:stop] = rng.uniform(-bound, bound, size=stop - start)
            elif role == "scale":
                params[start:stop] = 1.0
            # bias and shift stay zero
    stats = {
        i: (np.zeros(l.num_features), np.ones(l.num_features))
        for i, l in enumerate(arch.layers)
        if isinstance(l, BatchNorm)
    }
    return ModelState(arch=arch, params=params, batchnorm_stats=stats)


def clone_with_params(model: ModelState, new_params: np.ndarray) -> ModelState:
    """Same architecture, replaced parameters, copied BN stats."""
    new_params = np.asarray(new_params, dtype=np.float64).ravel()
    if new_params.size != model.params.size:
        raise ValueError(
            f"expected {model.params.size} parameters, got {new_params.size}"
        )
    stats = {i: (m.copy(), v.copy()) for i, (m, v) in model.batchnorm_stats.items()}
    return ModelState(
        arch=model.arch,
        params=new_params.copy(),
        batchnorm_stats=stats,
    )


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
    statistics only and never mutates the model. Without a cache the pass
    copies the batch once and owns every activation from there on, so the
    layers may write into their input; the caller's array is never written.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    owned = cache is None
    x = np.array(x, dtype=np.float64) if owned else np.asarray(x, dtype=np.float64)
    expected = model.arch.input_shape
    if x.ndim != len(expected) + 1 or x.shape[1:] != expected:
        raise ValueError(f"batch shape {x.shape} does not match input {expected}")
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    _check_finite(x, "input")

    params = _layer_views(model, model.params)
    stats = model.batchnorm_stats if mode == "eval" or update_stats else {}
    for i, layer in enumerate(model.arch.layers):
        x, layer_cache = layer.forward(x, params[i], mode, stats.get(i), owned)
        if not owned:
            cache.append(layer_cache)
        del layer_cache  # without a cache, freed before the next layer runs
        if not layer.keeps_finite:
            _check_finite(x, f"layer {i} ({type(layer).__name__})")
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


def forward(model: ModelState, batch: np.ndarray, mode: str = "eval") -> np.ndarray:
    """Logits for a batch; (batch_size, output_dim).

    Eval mode is a pure function of (model, batch); train mode uses batch
    statistics in BatchNorm layers and updates their running statistics.
    """
    return _forward_raw(model, batch, mode)


# --------------------------------------------------------------------------
# Losses
# --------------------------------------------------------------------------

def _check_targets(targets, loss_kind: str, n: int, k: int) -> np.ndarray:
    """``targets`` as an array, checked against n rows of k logits: n class
    indices in [0, k) for "ce", an (n, k) 0/1 matrix for "bce"."""
    if loss_kind == "ce":
        targets = np.asarray(targets)
        if targets.shape != (n,):
            raise ValueError(f"expected {n} class indices, got shape {targets.shape}")
        if targets.dtype.kind not in "iu":  # a float or bool index would fail in the loss
            raise ValueError(f"class indices must be integers, got dtype {targets.dtype}")
        if n and (targets.min() < 0 or targets.max() >= k):
            raise ValueError(f"class index out of range [0, {k})")
    elif loss_kind == "bce":
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != (n, k):
            raise ValueError(f"targets shape {targets.shape} != logits shape {(n, k)}")
        if ((targets != 0.0) & (targets != 1.0)).any():
            raise ValueError("bce targets must be 0/1 (apply the unknown-label policy first)")
    else:
        raise ValueError(f"loss_kind must be 'ce' or 'bce', got {loss_kind!r}")
    return targets


def _softmax_ce(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logsumexp
    loss = -logp[np.arange(n), targets].mean()
    dlogits = np.exp(logp)
    dlogits[np.arange(n), targets] -= 1.0
    return float(loss), dlogits / n


def _bce_logits(z: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    # max(z,0) - z*y + log1p(exp(-|z|)) is the stable elementwise form.
    loss = (np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))).mean()
    sig = 1.0 / (1.0 + np.exp(-z))
    return float(loss), (sig - targets) / z.size


def loss_and_grad(
    model: ModelState,
    batch: np.ndarray,
    targets: np.ndarray,
    loss_kind: str,
    bn_mode: str = "train",
    update_stats: bool = True,
) -> tuple[float, np.ndarray]:
    """Mean batch loss and its gradient in ModelState layout.

    ``loss_kind`` is "ce" (softmax cross-entropy over class indices) or "bce"
    (elementwise binary cross-entropy with logits over 0/1 label matrices).
    BatchNorm runs in ``bn_mode``; the training path uses "train". The loss
    kind and the targets are checked before the forward pass, so a rejected
    call leaves the model's running statistics as they were.
    """
    n = np.shape(batch)[0] if np.ndim(batch) else 0  # the pass rejects a scalar
    targets = _check_targets(targets, loss_kind, n, model.arch.output_dim)
    cache: list = []
    logits = _forward_raw(model, batch, bn_mode, cache=cache, update_stats=update_stats)
    loss, dlogits = (_softmax_ce if loss_kind == "ce" else _bce_logits)(logits, targets)
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
    # Check a declared length against a regular file before reading, so a
    # corrupt length fails here instead of asking for an absurd allocation.
    # Other input (a pipe) has no size up front: it is read in bounded
    # chunks, and a short read is the truncation.
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode):
        left = st.st_size - fh.tell()
        if n > left:
            raise ValueError(f"truncated model file while reading {what}: needs {n} bytes, {left} left")
        return fh.read(n)
    parts, got = [], 0
    while got < n:
        part = fh.read(min(n - got, _READ_CHUNK))
        if not part:
            raise ValueError(f"truncated model file while reading {what}: needs {n} bytes, {got} read")
        parts.append(part)
        got += len(part)
    return b"".join(parts)


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
        params = _read_array(fh, "params")
        expected = _num_params(arch)
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
    return ModelState(arch=arch, params=params, batchnorm_stats=stats)
