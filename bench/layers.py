"""Per-layer forward and backward times of the default network.

Times each layer of ``unforget.harness.default_arch()`` in the two settings
the lab runs: train mode at batch 32 (pretraining and fine-tuning) and eval
mode at batch ``EVAL_BATCH`` = 256 (scoring a dataset and the saliency
gradient), two ways:

- isolated: the layer's ``forward`` and ``backward`` called directly, on the
  input and the incoming gradient one pass through the whole stack hands it;
  an eval-mode ``forward`` runs as in the cache-free pass, owning its input
  (a copy in the input's layout, made before the timer starts);
- in-pass: the layer methods wrapped with timers inside real passes, a
  ``loss_and_grad`` step at batch 32 and an eval ``_forward_raw`` at 256,
  with the step's own time and its minor page faults (``ru_minflt``); the
  train setting also times the step's ``adam_step``, unmasked and with half
  the parameters frozen.

BLAS runs on one thread, pinned before numpy loads, as in the repository
benchmark (``perfbench/``), and glibc's malloc thresholds are settled as the
command-line entry point settles them.

    python bench/layers.py [--repeats N] [--json PATH]

Prints the numpy and BLAS build, the BLAS thread count, one row per layer
and setting for each table (the median milliseconds of N timed calls or
passes, after one untimed one, with their 25th and 75th percentiles in
brackets) and, per in-pass setting, the step time (median and quartiles),
the median of the layers' summed time in a step, the minor faults per step
and, in train mode, the ``adam_step`` milliseconds (median and quartiles).
``--json`` also writes all of it to PATH, each quartile beside its median
as ``<name>_p25_ms`` and ``<name>_p75_ms``.

The quartiles show the spread within one process only. Host speed also
drifts between processes, so comparing two versions of the code still
needs several runs of each, alternating which one runs first.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import fields  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from run import environment  # noqa: E402  (perfbench/run.py: build provenance)

from unforget.cli import _settle_malloc  # noqa: E402
from unforget.harness import default_arch  # noqa: E402
from unforget.nn_core import (  # noqa: E402
    EVAL_BATCH,
    _forward_raw,
    _layer_views,
    init_model,
    loss_and_grad,
)
from unforget.optim import AdamState, adam_step  # noqa: E402

TRAIN_BATCH = 32
SETTINGS = (("train", TRAIN_BATCH), ("eval", EVAL_BATCH))


def blas_threads() -> str:
    """The thread count the loaded OpenBLAS reports, read through its own
    ``*get_num_threads*`` entry point; "unknown" where there is none."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return str(fn())
    return "unknown"


def layer_name(layer) -> str:
    """``Conv2D(1,24,3,2)``: the type and its field values, in field order."""
    return f"{type(layer).__name__}({','.join(str(getattr(layer, f.name)) for f in fields(layer))})"


def _quartiles_ms(seconds) -> tuple[float, float, float] | None:
    """(p25, median, p75) of timings in seconds, as ms; None for no timings."""
    if not seconds:
        return None
    return tuple(float(q) for q in 1e3 * np.percentile(seconds, [25, 50, 75]))


def _timed_ms(call, repeats: int, prepare=tuple) -> tuple[float, float, float]:
    """``_quartiles_ms`` of ``repeats`` timed ``call(*prepare())``, after one
    untimed one; ``prepare`` runs outside the timer."""
    call(*prepare())
    times = []
    for _ in range(repeats):
        args = prepare()
        start = time.perf_counter()
        call(*args)
        times.append(time.perf_counter() - start)
    return _quartiles_ms(times)


def _spread(name: str, quartiles) -> dict:
    """``{name}_ms`` (the median) with ``{name}_p25_ms`` and ``{name}_p75_ms``."""
    p25, median, p75 = quartiles or (None, None, None)
    return {f"{name}_ms": median, f"{name}_p25_ms": p25, f"{name}_p75_ms": p75}


def _row(i, layer, forward, backward) -> dict:
    return {"index": i, "layer": layer_name(layer), **_spread("forward", forward),
            **_spread("backward", backward)}


def layer_times(mode: str, batch: int, repeats: int, seed: int = 0) -> list[dict]:
    """The isolated forward and backward ms of each layer in one setting."""
    model = init_model(default_arch(), seed)
    layers = model.arch.layers
    params = _layer_views(model, model.params)
    grads = _layer_views(model, np.zeros_like(model.params))
    stats = model.batchnorm_stats
    rng = np.random.default_rng(seed)
    x = rng.random((batch, *model.arch.input_shape))
    inputs, caches = [], []
    for i, layer in enumerate(layers):
        inputs.append(x)
        x, cache = layer.forward(x, params[i], mode, stats.get(i))
        caches.append(cache)
    d = rng.standard_normal(x.shape) / batch
    incoming = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        incoming[i] = d
        d = layers[i].backward(d, params[i], caches[i], grads[i], i > 0)
    rows = []
    owned = mode == "eval"  # as in the cache-free pass, which may write into x
    for i, layer in enumerate(layers):
        fwd = _timed_ms(
            lambda x: layer.forward(x, params[i], mode, stats.get(i), owned), repeats,
            lambda: (inputs[i].copy(order="K") if owned else inputs[i],),
        )
        bwd = _timed_ms(
            lambda: layer.backward(incoming[i], params[i], caches[i], grads[i], i > 0), repeats
        )
        rows.append(_row(i, layer, fwd, bwd))
    return rows


@contextmanager
def timed_layers(layers, spent):
    """Wrap ``forward`` and ``backward`` of every layer type in ``layers``,
    adding each call's seconds to ``spent[(index, "forward"|"backward")]``;
    the classes get their own methods back on exit."""
    index = {id(layer): i for i, layer in enumerate(layers)}
    patched = []

    def timer(original, direction):
        def wrapper(self, *args, **kwargs):
            start = time.perf_counter()
            try:
                return original(self, *args, **kwargs)
            finally:
                spent[index[id(self)], direction] += time.perf_counter() - start
        return wrapper

    try:
        for cls in {type(layer) for layer in layers}:
            for direction in ("forward", "backward"):
                original = vars(cls)[direction]
                setattr(cls, direction, timer(original, direction))
                patched.append((cls, direction, original))
        yield
    finally:
        for cls, direction, original in patched:
            setattr(cls, direction, original)


def in_pass_times(mode: str, batch: int, repeats: int, seed: int = 0) -> dict:
    """Per-layer medians measured inside ``repeats`` real passes (after one
    untimed pass): a train ``loss_and_grad`` step, or an eval forward pass.
    A train step's ``adam_step`` is timed on its gradient, without a mask
    and with a mask whose bits are 1 for half the parameters."""
    model = init_model(default_arch(), seed)
    layers = model.arch.layers
    rng = np.random.default_rng(seed)
    x = rng.random((batch, *model.arch.input_shape))
    y = rng.integers(model.arch.output_dim, size=batch)
    if mode == "train":
        name, step = "loss_and_grad", lambda: loss_and_grad(model, x, y, "ce")
    else:
        name, step = "_forward_raw", lambda: _forward_raw(model, x, "eval")
    spent = defaultdict(float)
    samples, step_s, faults = defaultdict(list), [], []
    with timed_layers(layers, spent):
        step()
        for _ in range(repeats):
            spent.clear()
            faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            step()
            step_s.append(time.perf_counter() - start)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0)
            for key, seconds in spent.items():
                samples[key].append(seconds)

    table = {
        "batch": batch,
        "pass": name,
        "layers": [
            _row(i, layer, _quartiles_ms(samples.get((i, "forward"))),
                 _quartiles_ms(samples.get((i, "backward"))))
            for i, layer in enumerate(layers)
        ],
        **_spread("step", _quartiles_ms(step_s)),
        "layers_ms": 1e3 * statistics.median(map(sum, zip(*samples.values()))),
        "minflt_per_step": sum(faults) / repeats,
        "minflt_max": max(faults),
    }
    if mode == "train":
        _, grad = step()
        state = AdamState.fresh(model.num_params)
        half = (rng.random(model.num_params) < 0.5).astype(np.uint8)  # a SaliencyMask's bits
        for key, mask in (("adam_step", None), ("adam_step_masked", half)):
            table.update(_spread(key, _timed_ms(
                lambda: adam_step(model.params, grad, state, 1e-3, mask), repeats)))
    return table


def _ms(value) -> str:
    return "-" if value is None else f"{value:.3f}"


def _with_quartiles(row: dict, name: str) -> str:
    """``median [p25 p75]`` of one timed quantity, as the table prints it."""
    return f"{_ms(row[name + '_ms'])} [{_ms(row[name + '_p25_ms'])} {_ms(row[name + '_p75_ms'])}]"


def _print_row(prefix, mode, batch, row):
    print(f"{prefix}{mode:<6}{batch:>6}  {row['index']:>2}  {row['layer']:<28}"
          f"{_with_quartiles(row, 'forward'):>27}{_with_quartiles(row, 'backward'):>28}")


def main(argv=None) -> int:
    _settle_malloc()  # time the layers under the allocator settings the CLI runs with
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=200,
                        help="timed calls per layer and direction, and timed passes per setting")
    parser.add_argument("--json", metavar="PATH", help="also write every table to this JSON file")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    env, threads = environment(), blas_threads()
    for key, value in env.items():
        print(f"env {key}: {value}")
    print(f"BLAS threads {threads} (as the library reports), repeats {args.repeats}")
    print(f"{'mode':<6}{'batch':>6}  {'#':>2}  {'layer':<28}{'forward_ms [p25 p75]':>27}"
          f"{'backward_ms [p25 p75]':>28}")
    isolated, in_pass = {}, {}
    for mode, batch in SETTINGS:
        rows = layer_times(mode, batch, args.repeats)
        for row in rows:
            _print_row("", mode, batch, row)
        print(f"{mode:<6}{batch:>6}  {'':>2}  {'total':<28}"
              f"{_ms(sum(r['forward_ms'] for r in rows)):>27}{_ms(sum(r['backward_ms'] for r in rows)):>28}")
        isolated[mode] = {"batch": batch, "layers": rows}
    for mode, batch in SETTINGS:
        table = in_pass[mode] = in_pass_times(mode, batch, args.repeats)
        for row in table["layers"]:
            _print_row("in-pass ", mode, batch, row)
        print(f"in-pass {mode:<6}{batch:>6}  step {table['pass']}: "
              f"{_with_quartiles(table, 'step')} ms (layers {table['layers_ms']:.3f} ms), "
              f"{table['minflt_per_step']:.1f} minor faults per step (max {table['minflt_max']})")
        if mode == "train":
            print(f"in-pass {mode:<6}{batch:>6}  adam_step: {_with_quartiles(table, 'adam_step')} ms, "
                  f"half masked {_with_quartiles(table, 'adam_step_masked')} ms")
    if args.json:
        doc = {"environment": env, "blas_threads_reported": threads, "repeats": args.repeats,
               "isolated": isolated, "in_pass": in_pass}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
