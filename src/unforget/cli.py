"""Command-line interface.

Subcommands: ``run`` (full experiment from a JSON config), ``gen-data``
(synthetic dataset file from a JSON spec), ``eval`` (AUROC of a saved model
on a dataset file), ``report`` (re-emit or print a finished report).
Exits 0 on success, 1 with the first error printed to stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path

from .data import DatasetStream, generate_synthetic, save_dataset
from .harness import (
    spec_from_dict,
    config_from_dict,
    emit_report,
    load_report,
    run_experiment,
)
from .metrics import evaluate
from .nn_core import load_model


# glibc's mallopt parameters, and the values its dynamic rule raises them to
# once a large block has been freed: the largest mmap threshold on 64-bit
# builds, and twice that as the trim threshold.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


def _settle_malloc() -> None:
    """Fix glibc's mmap and trim thresholds where its dynamic rule would
    end up, so that a fresh process does not hand every large temporary back
    to the kernel and fault it in again until some large free raises them.
    Does nothing on other C libraries."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _cmd_run(args) -> int:
    cfg = config_from_dict(json.loads(Path(args.config).read_text()))
    if args.repeats is not None:
        cfg = replace(cfg, repeats=args.repeats)
    if args.base_seed is not None:
        cfg = replace(cfg, base_seed=args.base_seed)
    report = run_experiment(cfg)
    paths = emit_report(report, args.out)
    for path in paths:
        print(path)
    if report.incomplete:
        print(f"warning: {len(report.incomplete)} incomplete cell(s); see report.json", file=sys.stderr)
    return 0


def _cmd_gen_data(args) -> int:
    spec = spec_from_dict(json.loads(Path(args.spec).read_text()))
    ds = generate_synthetic(spec)
    save_dataset(ds, args.out)
    print(f"{args.out}: {len(ds)} samples, {ds.task_kind}({ds.num_outputs})")
    return 0


def load_dataset(path) -> DatasetStream:
    """The eval command's dataset: the file opened as a stream, its header
    checked, for ``evaluate`` to score while it reads the records, so the
    features are never held. Its two stages keep the names under which
    perfbench traces them in this module, ``load_dataset`` and
    ``evaluate``."""
    return DatasetStream(path)


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    ds = load_dataset(args.data)
    result = evaluate(model, ds, set_name=Path(args.data).stem)
    print(json.dumps(result.to_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_report(args) -> int:
    report = load_report(args.in_dir)
    if args.format == "json":
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        for path in emit_report(report, args.in_dir):
            if path.suffix == ".csv":
                print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unforget", description="Machine-unlearning benchmark harness."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a full experiment from a JSON config")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--out", required=True, help="output directory for report files")
    p.add_argument("--repeats", type=int, default=None, help="override config repeats")
    p.add_argument("--base-seed", type=int, default=None, help="override config base seed")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    p.add_argument("--spec", required=True, help="synthetic spec JSON file")
    p.add_argument("--out", required=True, help="output dataset file")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset file")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--data", required=True, help="dataset file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="print or re-emit a finished report")
    p.add_argument("--in", dest="in_dir", required=True, help="report directory")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    # Here and not at import, so a program that only imports the package
    # keeps its allocator. The settings last for the whole process, so an
    # in-process caller of main (perfbench's workloads, pytest after
    # its first CLI test) runs with them from its first call on.
    _settle_malloc()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 — CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
