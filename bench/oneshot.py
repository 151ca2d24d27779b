"""Fresh-process timings of the two one-shot commands.

Each reading is a new Python process running ``python -m unforget.cli``:

- eval: ``unforget eval`` of an untrained ``default_arch()`` model on a
  generated corpus of ``CORPUS_PATIENTS`` patients (20,000 samples);
- run: ``unforget run`` on the default config cut to ``RUN_PATIENTS``
  patients and one repeat.

A fresh process is what a user's one-shot command is, and it is the case an
in-process benchmark never sees: its allocator has no history, so a
temporary that a warm process reuses may be faulted in again on every call.
Each child imports the package first, then times the command alone and
reports its own wall seconds, minor page faults (``ru_minflt``, during the
command and in the whole process) and peak RSS (``ru_maxrss``). BLAS runs
on one thread, pinned before numpy loads, as in the repository benchmark
(``perfbench/``).

    python bench/oneshot.py [--repeats N] [--json PATH]

Prints one line per reading (the commands alternate, eval first), the
median of each column per command, and the numpy and BLAS build.
``--json`` also writes every reading, the environment and the sizes to
PATH. The SHA-256 of each command's standard output shows that every
reading computed the same answer.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
CORPUS_PATIENTS = 1000  # 20 samples each
RUN_PATIENTS = 20
sys.path[:0] = [str(ROOT / "perfbench")]

# Linux counts the spawning process's resident set in a child's ru_maxrss
# (the high-water mark of the memory image that exec replaces), so this
# process stays small until every reading is taken: it imports neither
# numpy nor the package, and the inputs are written by a child of their own.
PREPARE = """
import json, sys
from dataclasses import replace
from pathlib import Path
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
# ``python -c CHILD REPORT_PATH ARG...`` runs ``python -m unforget.cli
# ARG...`` and writes its own measurements to REPORT_PATH.
CHILD = """
import json, resource, runpy, sys, time
report = sys.argv.pop(1)
import unforget.cli  # imported before the clock starts
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
started = time.perf_counter()
try:
    runpy.run_module("unforget.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
wall = time.perf_counter() - started
usage = resource.getrusage(resource.RUSAGE_SELF)
with open(report, "w") as fh:
    json.dump({"code": code, "wall_s": wall, "minflt": usage.ru_minflt - before,
               "minflt_total": usage.ru_minflt, "maxrss_mb": usage.ru_maxrss / 1024.0}, fh)
"""
COLUMNS = ("wall_s", "minflt", "minflt_total", "maxrss_mb")


def child(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``python -c code args...`` against this checkout's ``src/``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, timeout=600, check=True)


def prepare(workdir: Path) -> tuple[dict, int]:
    """Write the corpus, the model and the run config; return the argv of
    each command and the corpus size."""
    done = child(PREPARE, str(workdir), str(CORPUS_PATIENTS), str(RUN_PATIENTS))
    return {
        "eval": ["eval", "--model", str(workdir / "model.unfg"),
                 "--data", str(workdir / "corpus.unds")],
        "run": ["run", "--config", str(workdir / "config.json"), "--out", str(workdir / "out")],
    }, int(done.stdout)


def one_shot(argv: list[str], workdir: Path) -> dict:
    """One fresh child process running the command; its own report, plus
    the SHA-256 of its standard output."""
    report = workdir / "child.json"
    done = child(CHILD, str(report), *argv)
    reading = json.loads(report.read_text())
    if reading["code"] != 0:
        raise RuntimeError(f"{argv[0]} exited {reading['code']}: {done.stderr.decode()}")
    reading["stdout_sha256"] = hashlib.sha256(done.stdout).hexdigest()
    return reading


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="readings per command")
    parser.add_argument("--json", metavar="PATH", help="also write every reading to this JSON file")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    readings = {"eval": [], "run": []}
    with tempfile.TemporaryDirectory(prefix="oneshot-") as tmp:
        commands, corpus_samples = prepare(Path(tmp))
        print(f"eval corpus {corpus_samples} samples; run {RUN_PATIENTS} patients, 1 repeat")
        print(f"{'command':<8}{'#':>3}{'wall_s':>9}{'minflt':>9}{'total':>9}{'maxrss_mb':>11}")
        for k in range(args.repeats):
            for name, command in commands.items():
                reading = one_shot(command, Path(tmp))
                readings[name].append(reading)
                print(f"{name:<8}{k:>3}{reading['wall_s']:>9.3f}{reading['minflt']:>9}"
                      f"{reading['minflt_total']:>9}{reading['maxrss_mb']:>11.1f}")
    medians = {
        name: {col: statistics.median(r[col] for r in rows) for col in COLUMNS}
        for name, rows in readings.items()
    }
    for name, row in medians.items():
        print(f"{name:<8}{'med':>3}{row['wall_s']:>9.3f}{row['minflt']:>9.0f}"
              f"{row['minflt_total']:>9.0f}{row['maxrss_mb']:>11.1f}")
    from run import environment  # perfbench/run.py; imports numpy, so only now

    env = environment()
    for key, value in env.items():
        print(f"env {key}: {value}")
    if args.json:
        doc = {"environment": env, "repeats": args.repeats, "corpus_samples": corpus_samples,
               "run_patients": RUN_PATIENTS, "readings": readings, "medians": medians}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
