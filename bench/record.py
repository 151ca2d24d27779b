"""One benchmark record: fresh-process readings, a stage breakdown and per-layer times.

    python bench/record.py [--repeats N] [--json PATH]

The steps run in this order, so that each measurement stays valid:

1. Fresh readings: N new processes per command, alternating, eval first.
   Each imports the package, then times one command alone through
   ``unforget.cli.main``: ``eval`` of an untrained ``default_arch()`` model
   on a generated corpus of ``CORPUS_PATIENTS`` patients (20,000 samples),
   or ``run`` of the default config cut to ``RUN_PATIENTS`` patients and one
   repeat. A fresh process is what a user's one-shot command is: its
   allocator has no history. Linux counts the spawning process's resident
   set in a child's ``ru_maxrss``, so until the last child this process
   imports neither numpy nor the package, and a child writes the inputs.
   The script exits 1 when two readings of one command give different
   answers: the stdout of ``eval``, the ``report.json`` of ``run`` with
   ``strip_timing`` applied (its stdout names the temporary directory).
2. Stages: one more child runs the same ``run`` with perfbench's spans
   installed (``perfbench/tracing.py``); its wall time is not a reading.
3. Layers: this process imports numpy, settles glibc's malloc thresholds as
   the command-line entry point does, and times each layer of
   ``default_arch()`` inside the engine's own passes, ``LAYER_CALLS`` × N
   passes after one untimed pass, with the layer methods wrapped with
   timers. Three settings: ``train``, a train-mode ``loss_and_grad`` step at
   batch 32; ``saliency``, a ``loss_and_grad`` with BatchNorm in eval mode
   at batch ``EVAL_BATCH`` = 256 (a chunk of the saliency gradient); and
   ``eval``, an eval ``forward`` pass at batch 256 (a layer's time adds up
   over the pass's ``EVAL_TILE``-row tiles). Each setting records its
   pass's time and minor page faults, and ``train`` the step's
   ``adam_step``, unmasked and with half the parameters frozen.
4. Allocation peaks: after the timed calls, the ``tracemalloc`` peak of one
   untimed call each of a train-32 ``loss_and_grad``, a batch-256
   ``loss_and_grad`` with BatchNorm in eval mode (a chunk of the saliency
   gradient) and an eval-256 ``forward``.

BLAS runs on one thread here and in every child, pinned before numpy loads,
as in the repository benchmark (``perfbench/``). The script prints all of
it; ``--json PATH`` also writes one record:

- ``environment`` (``perfbench/run.py``), ``blas_threads_reported`` (by the
  loaded OpenBLAS), ``repeats`` (N) and ``layer_calls`` (``LAYER_CALLS`` × N);
- ``code``: the code measured, read before the first reading: ``sha256``
  (``code_digest``, over the ``*.py`` files under ``src/`` and ``bench/``)
  and ``dirty`` (whether ``git status`` lists changes there; None outside
  a git checkout);
- ``fresh``: ``corpus_samples``, ``run_patients``, and for ``eval`` and
  ``run`` the N ``readings`` (``code``, ``wall_s``, ``cpu_s`` as the child's
  ``process_time``, ``minflt`` during the command, ``minflt_total`` in the
  whole child, ``maxrss_mb``, ``answer_sha256``, and two read-only signs of
  a slow spell over the command: ``run_delay_s``, the seconds the child
  waited for a CPU, from ``/proc/self/schedstat``, and ``steal_ticks``, the
  host's steal clock ticks, from the ``cpu`` line of ``/proc/stat``; each is
  None where its file cannot be read) and the ``quartiles`` (``p25``,
  ``median``, ``p75``) of each numeric column, None for a column with no
  value;
- ``stages``: the seconds of ``harness.stage.{datagen,split,pretrain,exact,
  relabel_sweep,salun_sweep,eval,emit}_s``, as perfbench names them;
- ``in_pass``: per setting (``train``, ``saliency``, ``eval``), ``batch``,
  ``pass``, ``layers`` rows (``index``, ``layer``, ``forward_ms``,
  ``backward_ms``, None for an eval pass), ``step_ms``, ``layers_ms``
  (median summed layer time per step), ``minflt_per_step``, ``minflt_max``
  and, for ``train``, ``adam_step_ms`` and ``adam_step_masked_ms``. Each
  ``<name>_ms`` has its quartiles beside it as ``<name>_p25_ms`` and
  ``<name>_p75_ms``;
- ``peak_alloc_mib``: the MiB of each allocation peak, keyed
  ``train_loss_and_grad_32``, ``saliency_loss_and_grad_256`` and
  ``eval_forward_256``.

The quartiles show the spread within one run; host speed also drifts
between runs, so comparing two versions still needs alternating runs of each.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

# numpy and the package are imported inside the functions that use them (step 3).

ROOT = Path(__file__).resolve().parents[1]
CORPUS_PATIENTS = 1000  # 20 samples each
RUN_PATIENTS = 20
LAYER_CALLS = 40  # timed passes per setting, per repeat
TRAIN_BATCH = 32
COLUMNS = ("wall_s", "cpu_s", "minflt", "minflt_total", "maxrss_mb", "run_delay_s", "steal_ticks")
CODE_DIRS = ("src", "bench")  # the code a record measures

PREPARE = """
import json, sys
from dataclasses import replace
from pathlib import Path
from unforget.cli import _settle_malloc
_settle_malloc()
from unforget.data import generate_synthetic, save_dataset
from unforget.harness import config_to_dict, default_arch, default_config
from unforget.nn_core import init_model, save_model
workdir, corpus_patients, run_patients = Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
cfg = default_config()
corpus = generate_synthetic(replace(cfg.dataset, num_patients=corpus_patients, seed=1))
save_dataset(corpus, workdir / "corpus.unds")
save_model(init_model(default_arch(), 1), workdir / "model.unfg")
run_cfg = replace(cfg, dataset=replace(cfg.dataset, num_patients=run_patients), repeats=1)
(workdir / "config.json").write_text(json.dumps(config_to_dict(run_cfg)))
print(len(corpus))
"""
# ``python -c CHILD REPORT_PATH TRACE ARG...`` runs ``unforget.cli.main(ARG...)``,
# writes its own measurements to REPORT_PATH and exits with the command's
# code. A non-empty TRACE is the directory of perfbench's ``tracing.py``: the
# child then installs its spans and adds the stage times.
CHILD = """
import hashlib, json, resource, sys, time
report, trace, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
import unforget.cli  # imported before the clock starts
def slow_spell():  # [ns this process waited for a CPU, the host's steal ticks]; None where unreadable
    values = []
    for path, field in (("/proc/self/schedstat", 1), ("/proc/stat", 8)):  # /proc/stat's first line is "cpu ..."
        try:
            with open(path) as fh:
                values.append(int(fh.readline().split()[field]))
        except (OSError, IndexError, ValueError):
            values.append(None)
    return values
if trace:
    sys.path.insert(0, trace)
    from tracing import Tracer, install_sites, layer_metrics
    tracer = Tracer()
    install_sites(tracer)
before, spell0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, slow_spell()
cpu0, started = time.process_time(), time.perf_counter()
code = unforget.cli.main(argv)
wall, cpu = time.perf_counter() - started, time.process_time() - cpu0
usage = resource.getrusage(resource.RUSAGE_SELF)
delay, steal = (None if a is None or b is None else b - a for a, b in zip(spell0, slow_spell()))
reading = {"code": code, "wall_s": wall, "cpu_s": cpu, "minflt": usage.ru_minflt - before,
           "minflt_total": usage.ru_minflt, "maxrss_mb": usage.ru_maxrss / 1024.0,
           "run_delay_s": None if delay is None else delay / 1e9, "steal_ticks": steal}
if trace:
    reading["stages"] = {name: value for name, (value, _) in layer_metrics(tracer.spans, 0.0).items()
                         if name.startswith("harness.stage.")}
if argv[0] == "run":  # its answer is the report it wrote, without the clock readings
    from unforget.harness import strip_timing
    with open(f"{argv[argv.index('--out') + 1]}/report.json") as fh:
        answer = json.dumps(strip_timing(json.load(fh)), sort_keys=True)
    reading["answer_sha256"] = hashlib.sha256(answer.encode()).hexdigest()
with open(report, "w") as fh:
    json.dump(reading, fh)
sys.exit(code)
"""


def child(code: str, *args: str) -> bytes:
    """Run ``python -c code args...`` against this checkout's ``src/`` and
    return its standard output; a child that fails raises with its stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"child {' '.join(args)} exited {done.returncode}:\n"
                           f"{done.stderr.decode(errors='replace')}")
    return done.stdout


def prepare(workdir: Path) -> tuple[dict, int]:
    """Write the corpus, the model and the run config; return the argv of
    each command and the corpus size."""
    corpus_samples = int(child(PREPARE, str(workdir), str(CORPUS_PATIENTS), str(RUN_PATIENTS)))
    return {
        "eval": ["eval", "--model", str(workdir / "model.unfg"),
                 "--data", str(workdir / "corpus.unds")],
        "run": ["run", "--config", str(workdir / "config.json"), "--out", str(workdir / "out")],
    }, corpus_samples


def one_shot(argv: list[str], workdir: Path, trace: str = "") -> dict:
    """One fresh child running the command; its own report, with the
    SHA-256 of the command's answer: of ``run``'s stripped report as the
    child read it, else of the standard output."""
    report = workdir / "child.json"
    stdout = child(CHILD, str(report), trace, *argv)
    reading = json.loads(report.read_text())
    reading.setdefault("answer_sha256", hashlib.sha256(stdout).hexdigest())
    return reading


def output_mismatches(readings: dict[str, list[dict]]) -> list[str]:
    """One message per command whose readings gave different answers,
    naming each reading's digest."""
    return [
        f"{name}: readings gave different answers: "
        + ", ".join(f"#{k} {r['answer_sha256']}" for k, r in enumerate(rows))
        for name, rows in readings.items()
        if len({r["answer_sha256"] for r in rows}) > 1
    ]


def code_digest(root: Path) -> str:
    """SHA-256 over the ``*.py`` files under ``CODE_DIRS`` of ``root``, in
    order of relative path: each file's path, its length and its bytes."""
    h = hashlib.sha256()
    files = {p.relative_to(root).as_posix(): p for d in CODE_DIRS for p in (root / d).rglob("*.py")}
    for rel in sorted(files):
        data = files[rel].read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def code_dirty(root: Path) -> bool | None:
    """Whether ``git status --porcelain`` lists changes under ``CODE_DIRS``
    of ``root``; None where ``root`` is not a git checkout or git fails."""
    if not (root / ".git").exists():
        return None
    try:
        listed = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain", "--", *CODE_DIRS],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(listed.strip())


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


def _quartiles(values, scale: float = 1.0) -> tuple[float, float, float] | None:
    """(p25, median, p75) of ``values`` times ``scale``; None for no values."""
    import numpy as np

    if not values:
        return None
    return tuple(float(q) for q in scale * np.percentile(values, [25, 50, 75]))


def _timed_ms(call, repeats: int) -> tuple[float, float, float]:
    """Quartile ms of ``repeats`` timed calls, after one untimed one."""
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return _quartiles(times, 1e3)


def _spread(name: str, quartiles) -> dict:
    """``{name}_ms`` (the median) with ``{name}_p25_ms`` and ``{name}_p75_ms``."""
    p25, median, p75 = quartiles or (None, None, None)
    return {f"{name}_ms": median, f"{name}_p25_ms": p25, f"{name}_p75_ms": p75}


def _row(i, layer, forward, backward) -> dict:
    return {"index": i, "layer": layer_name(layer), **_spread("forward", forward),
            **_spread("backward", backward)}


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


def in_pass_times(setting: str, batch: int, repeats: int, seed: int = 0) -> dict:
    """Per-layer medians measured inside ``repeats`` real passes (after one
    untimed pass) of one setting: a train-mode ``loss_and_grad`` step
    (``train``), an eval-BatchNorm ``loss_and_grad`` (``saliency``) or an
    eval forward pass (``eval``). A train step's ``adam_step`` is timed on
    its gradient, without a mask and with a mask whose bits are 1 for half
    the parameters."""
    import numpy as np

    from unforget.harness import default_arch
    from unforget.nn_core import forward, init_model, loss_and_grad
    from unforget.optim import AdamState, adam_step

    model = init_model(default_arch(), seed)
    layers = model.arch.layers
    rng = np.random.default_rng(seed)
    x = rng.random((batch, *model.arch.input_shape))
    y = rng.integers(model.arch.output_dim, size=batch)
    if setting == "eval":
        name, step = "forward", lambda: forward(model, x, "eval")
    else:
        bn_mode = "eval" if setting == "saliency" else "train"
        name, step = "loss_and_grad", lambda: loss_and_grad(model, x, y, "single_label", bn_mode=bn_mode)
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
            _row(i, layer, _quartiles(samples.get((i, "forward")), 1e3),
                 _quartiles(samples.get((i, "backward")), 1e3))
            for i, layer in enumerate(layers)
        ],
        **_spread("step", _quartiles(step_s, 1e3)),
        "layers_ms": 1e3 * statistics.median(map(sum, zip(*samples.values()))),
        "minflt_per_step": sum(faults) / repeats,
        "minflt_max": max(faults),
    }
    if setting == "train":
        _, grad = step()
        state = AdamState.fresh(model.num_params)
        half = (rng.random(model.num_params) < 0.5).astype(np.uint8)  # a 0/1 saliency mask
        for key, mask in (("adam_step", None), ("adam_step_masked", half)):
            table.update(_spread(key, _timed_ms(
                lambda: adam_step(model.params, grad, state, 1e-3, mask), repeats)))
    return table


def alloc_peaks(seed: int = 0) -> dict:
    """The ``tracemalloc`` peak, in MiB, of one call each of a train-32
    ``loss_and_grad``, a batch-256 eval-BatchNorm ``loss_and_grad`` (a
    saliency chunk) and an eval-256 ``forward``. Run after the timed calls,
    so the engine's cached im2col indices are not counted."""
    import numpy as np

    from unforget.harness import default_arch
    from unforget.nn_core import EVAL_BATCH, forward, init_model, loss_and_grad

    model = init_model(default_arch(), seed)
    rng = np.random.default_rng(seed)
    x32, x256 = (rng.random((n, *model.arch.input_shape)) for n in (TRAIN_BATCH, EVAL_BATCH))
    y32, y256 = (rng.integers(model.arch.output_dim, size=n) for n in (TRAIN_BATCH, EVAL_BATCH))
    calls = {
        "train_loss_and_grad_32": lambda: loss_and_grad(model, x32, y32, "single_label"),
        "saliency_loss_and_grad_256": lambda: loss_and_grad(model, x256, y256, "single_label", bn_mode="eval"),
        "eval_forward_256": lambda: forward(model, x256, "eval"),
    }
    peaks = {}
    for name, call in calls.items():
        tracemalloc.start()  # traces only what is allocated from here on
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks[name] = peak / 2**20
    return peaks


def _ms(value) -> str:
    return "-" if value is None else f"{value:.3f}"


def _with_quartiles(row: dict, name: str) -> str:
    """``median [p25 p75]`` of one timed quantity, as the table prints it."""
    return f"{_ms(row[name + '_ms'])} [{_ms(row[name + '_p25_ms'])} {_ms(row[name + '_p75_ms'])}]"


def _print_row(setting, batch, row):
    print(f"in-pass {setting:<9}{batch:>6}  {row['index']:>2}  {row['layer']:<28}"
          f"{_with_quartiles(row, 'forward'):>27}{_with_quartiles(row, 'backward'):>28}")


def _print_fresh(name: str, label, row: dict) -> None:
    delay = "-" if row["run_delay_s"] is None else f"{row['run_delay_s']:.3f}"
    steal = "-" if row["steal_ticks"] is None else f"{row['steal_ticks']:.0f}"
    print(f"fresh {name:<5}{label:>4}{row['wall_s']:>9.3f}{row['cpu_s']:>9.3f}{row['minflt']:>9.0f}"
          f"{row['minflt_total']:>9.0f}{row['maxrss_mb']:>11.1f}{delay:>9}{steal:>7}")


def layer_tables(repeats: int) -> dict:
    """Print and return the in-pass tables, per setting."""
    from unforget.cli import _settle_malloc
    from unforget.nn_core import EVAL_BATCH

    _settle_malloc()  # time the layers under the allocator settings the CLI runs with
    print(f"{'table':<8}{'setting':<9}{'batch':>6}  {'#':>2}  {'layer':<28}"
          f"{'forward_ms [p25 p75]':>27}{'backward_ms [p25 p75]':>28}")
    in_pass = {}
    for setting, batch in (("train", TRAIN_BATCH), ("saliency", EVAL_BATCH), ("eval", EVAL_BATCH)):
        table = in_pass[setting] = in_pass_times(setting, batch, repeats)
        for row in table["layers"]:
            _print_row(setting, batch, row)
        print(f"in-pass {setting:<9}{batch:>6}  step {table['pass']}: "
              f"{_with_quartiles(table, 'step')} ms (layers {table['layers_ms']:.3f} ms), "
              f"{table['minflt_per_step']:.1f} minor faults per step (max {table['minflt_max']})")
        if setting == "train":
            print(f"in-pass {setting:<9}{batch:>6}  adam_step: {_with_quartiles(table, 'adam_step')} ms, "
                  f"half masked {_with_quartiles(table, 'adam_step_masked')} ms")
    return in_pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help=f"fresh readings per command; the layer tables time {LAYER_CALLS}× "
                             "as many passes per setting")
    parser.add_argument("--json", metavar="PATH", help="also write the record to this JSON file")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from run import BLAS_THREAD_VARS, BLAS_THREADS, environment  # perfbench/run.py

    # Read when BLAS loads, so before numpy is first imported; children inherit it.
    os.environ.update({var: BLAS_THREADS for var in BLAS_THREAD_VARS})

    code = {"sha256": code_digest(ROOT), "dirty": code_dirty(ROOT)}
    readings = {"eval": [], "run": []}
    with tempfile.TemporaryDirectory(prefix="record-") as tmp:
        commands, corpus_samples = prepare(Path(tmp))
        print(f"eval corpus {corpus_samples} samples; run {RUN_PATIENTS} patients, 1 repeat")
        print(f"fresh {'cmd':<5}{'#':>4}{'wall_s':>9}{'cpu_s':>9}{'minflt':>9}{'total':>9}"
              f"{'maxrss_mb':>11}{'delay_s':>9}{'steal':>7}")
        for k in range(args.repeats):
            for name, command in commands.items():
                reading = one_shot(command, Path(tmp))
                readings[name].append(reading)
                _print_fresh(name, k, reading)
        mismatches = output_mismatches(readings)
        if mismatches:
            print("\n".join(f"error: {m}" for m in mismatches), file=sys.stderr)
            return 1
        stages = one_shot(commands["run"], Path(tmp), str(ROOT / "perfbench"))["stages"]

    fresh = {"corpus_samples": corpus_samples, "run_patients": RUN_PATIENTS}
    for name, rows in readings.items():
        quartiles = {col: dict(zip(("p25", "median", "p75"),
                                   _quartiles([r[col] for r in rows if r[col] is not None])
                                   or (None, None, None)))
                     for col in COLUMNS}
        fresh[name] = {"readings": rows, "quartiles": quartiles}
        for label in ("p25", "median", "p75"):
            _print_fresh(name, label[:3], {col: q[label] for col, q in quartiles.items()})
    for stage, seconds in stages.items():
        print(f"stage {stage} {seconds:.3f}")
    env, threads = environment(), blas_threads()
    for key, value in env.items():
        print(f"env {key}: {value}")
    print(f"code sha256 {code['sha256']} dirty {code['dirty']}")
    layer_calls = LAYER_CALLS * args.repeats
    print(f"BLAS threads {threads} (as the library reports), layer calls {layer_calls}")
    in_pass = layer_tables(layer_calls)
    peaks = alloc_peaks()
    for name, mib in peaks.items():
        print(f"peak_alloc_mib {name} {mib:.3f}")
    if args.json:
        doc = {"environment": env, "blas_threads_reported": threads, "code": code,
               "repeats": args.repeats, "layer_calls": layer_calls, "fresh": fresh,
               "stages": stages, "in_pass": in_pass, "peak_alloc_mib": peaks}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
