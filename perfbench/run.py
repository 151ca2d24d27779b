"""Benchmark entry point.

    python3 perfbench/run.py --workload protocol|audit --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload against the package under ``src/`` of the checkout this
file sits in. With ``--trace 0`` it measures the end-to-end metrics
untraced; with ``--trace 1`` it also runs one traced round and reports the
per-layer metrics instead. Every metric, the environment and any failed
correctness gate are printed first; the last line of standard output is the
result as one JSON object. A full record (environment, every metric,
digest) goes to ``.bench_build/perfbench/``, and the traced run's spans next
to it.

BLAS runs one thread. On a host whose few cores are shared, a second BLAS
thread makes the timings follow the neighbours' load: one busy neighbour
on a 2-core host slowed a protocol round 2.4x and an audit corpus request
1.75x at the default thread count, and neither at one thread, while the
second thread bought no wall time on a quiet host.

Exit codes: 0 when every correctness gate passed, 1 when one failed (the
result is still printed, with "correct": false), 2 when the package cannot
be found or imported (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def environment() -> dict:
    """Provenance of a result: interpreter, numpy and BLAS builds, BLAS
    thread settings, cores, and the commit when the checkout is a git one."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build,
        "blas_threads": {
            var: os.environ.get(var, "default")
            for var in BLAS_THREAD_VARS
        },
        "cpu_count": os.cpu_count(),
        "commit": commit,
    }


def import_package():
    """Import the workloads against this checkout's ``src/``; returns the
    module and the import seconds. Never falls back to an installed copy."""
    src = ROOT / "src"
    if not (src / "unforget" / "__init__.py").is_file():
        raise ImportError(f"no unforget package under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    started = time.perf_counter()
    import unforget
    import workloads

    seconds = time.perf_counter() - started
    if Path(unforget.__file__).resolve().parent != (src / "unforget").resolve():
        raise ImportError(f"imported unforget from {unforget.__file__}, not {src}")
    return workloads, seconds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("protocol", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every code path end to end in seconds")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Read when BLAS loads, so before numpy is first imported; the audit's
    # set-up children inherit it.
    os.environ.update({var: BLAS_THREADS for var in BLAS_THREAD_VARS})
    try:
        workloads, import_s = import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    workdir = BUILD_DIR / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), args.smoke, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if "setup_s" in outcome.metrics:
        # The import is part of set-up; it happens once per process.
        setup_s, unit = outcome.metrics["setup_s"]
        outcome.metrics["setup_s"] = (setup_s + import_s, unit)

    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        "import_s": import_s,
        "notes": outcome.notes,
        "problems": outcome.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }
    (BUILD_DIR / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if outcome.tracer is not None:
        outcome.tracer.write(BUILD_DIR / f"{tag}.spans.jsonl")

    print(f"perfbench {tag}")
    for key, value in env.items():
        print(f"  env {key}: {value}")
    for key, value in outcome.notes.items():
        print(f"  {key}: {value}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<45} {value:>14.6g} {unit}")
    for problem in outcome.problems:
        print(f"  FAILED {problem}")

    # The last line carries only the metrics BENCHMARK.json lists for this mode.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]}
            for name in listed
        },
    }
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
