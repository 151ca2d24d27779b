"""Per-layer forward and backward times of the default network.

Calls the ``forward`` and ``backward`` methods of each layer of
``unforget.harness.default_arch()`` directly, on the input and the incoming
gradient that one pass through the whole stack hands that layer, in the two
settings the lab runs: train mode at batch 32 (pretraining and fine-tuning)
and eval mode at batch ``EVAL_BATCH`` = 256 (scoring a dataset and the
saliency gradient). BLAS runs on one thread, pinned before numpy loads, as
in the repository benchmark (``perfbench/``).

    python bench/layers.py [--repeats N]

Prints the numpy and BLAS build, the BLAS thread count, and one row per
layer and setting: the median milliseconds of N timed calls, each direction
timed after one untimed call.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import fields  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from run import environment  # noqa: E402  (perfbench/run.py: build provenance)

from unforget.harness import default_arch  # noqa: E402
from unforget.nn_core import EVAL_BATCH, _layer_views, init_model  # noqa: E402

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


def _median_ms(call, repeats: int) -> float:
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def layer_times(mode: str, batch: int, repeats: int, seed: int = 0) -> list[tuple]:
    """(index, layer, forward ms, backward ms) for each layer in one setting."""
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
    for i, layer in enumerate(layers):
        fwd = _median_ms(lambda: layer.forward(inputs[i], params[i], mode, stats.get(i)), repeats)
        bwd = _median_ms(
            lambda: layer.backward(incoming[i], params[i], caches[i], grads[i], i > 0), repeats
        )
        rows.append((i, layer, fwd, bwd))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=200, help="timed calls per layer and direction")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    for key, value in environment().items():
        print(f"env {key}: {value}")
    print(f"BLAS threads {blas_threads()} (as the library reports), repeats {args.repeats}")
    print(f"{'mode':<6}{'batch':>6}  {'#':>2}  {'layer':<28}{'forward_ms':>11}{'backward_ms':>12}")
    for mode, batch in SETTINGS:
        rows = layer_times(mode, batch, args.repeats)
        for i, layer, fwd, bwd in rows:
            print(f"{mode:<6}{batch:>6}  {i:>2}  {layer_name(layer):<28}{fwd:>11.3f}{bwd:>12.3f}")
        print(f"{mode:<6}{batch:>6}  {'':>2}  {'total':<28}"
              f"{sum(r[2] for r in rows):>11.3f}{sum(r[3] for r in rows):>12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
