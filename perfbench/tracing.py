"""Per-module spans for the traced run, recorded from outside the package.

Each public function is wrapped at the module attribute through which its
caller reaches it (``unforget.optim.loss_and_grad``, not
``unforget.nn_core.loss_and_grad``, which no caller looks up), so the package
itself is never edited. Spans live in memory and are written out when the
run ends; the per-layer metrics are computed from them afterwards.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "union_length",
    "self_times",
    "install_sites",
    "layer_metrics",
]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    cpu: float | None = None  # process CPU seconds over all threads, where recorded
    key: str | None = None  # identity of the inputs, for distinct ratios
    attrs: dict = field(default_factory=dict)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover.

    Children may overlap each other (or stick out of the parent); only their
    union inside the parent's interval is subtracted."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id]
            if c.end > s.start and c.start < s.end
        )
        out[s.id] = (s.end - s.start) - covered
    return out


class Tracer:
    """Records one span per call of each wrapped function.

    Single-threaded: the parent of a span is whatever wrapped call is open
    when it starts. ``run_id`` tags every span with the request or round it
    belongs to. ``restore`` puts every wrapped attribute back."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr, name, *, cpu=False, key=None, before=None, after=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``key(args)`` and ``before(args)`` see the call's bound arguments by
        name; ``after(result)`` sees the return value. They give the span its
        input key and attributes."""
        original = vars(owner)[attr]
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(len(tracer.spans), name, 0.0, 0.0,
                        tracer._stack[-1] if tracer._stack else None, tracer.run_id)
            if key or before:
                bound = signature.bind(*args, **kwargs).arguments
                if key:
                    span.key = key(bound)
                if before:
                    span.attrs.update(before(bound))
            tracer.spans.append(span)
            tracer._stack.append(span.id)
            cpu0 = time.process_time() if cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                raise
            finally:
                span.end = time.perf_counter()
                if cpu:
                    span.cpu = time.process_time() - cpu0
                tracer._stack.pop()
            if after:
                span.attrs.update(after(result))
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# Wrap sites
# --------------------------------------------------------------------------

def _digest(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _model_data_key(a):
    return _digest(a["model"].params.tobytes(), a["ds"].ids())


def _rows(arg):
    return lambda a: {"rows": len(a[arg])}


# (module or "module:Class", attribute, span name, wrap options). The module
# is the one the caller looks the function up in.
SITES = [
    ("unforget.optim", "loss_and_grad", "nn_core.loss_and_grad.train",
     dict(cpu=True, before=_rows("batch"))),
    ("unforget.unlearn", "loss_and_grad", "nn_core.loss_and_grad.saliency", {}),
    ("unforget.cli", "load_model", "nn_core.load_model", {}),
    ("unforget.optim", "adam_step", "optim.adam_step", {}),
    ("unforget.optim", "train", "optim.train", {}),
    ("unforget.unlearn", "train", "optim.train", {}),
    ("unforget.harness", "train_from_scratch", "optim.train_from_scratch", {}),
    ("unforget.unlearn", "train_from_scratch", "optim.train_from_scratch", {}),
    ("unforget.harness", "generate_synthetic", "data.generate_synthetic", {}),
    ("unforget.harness", "split_train_val_test", "data.split_train_val_test", {}),
    ("unforget.harness", "split_forget_retain", "data.split_forget_retain", {}),
    ("unforget.unlearn", "concat_datasets", "data.concat_datasets", {}),
    ("unforget.data:LabeledDataset", "subset", "data.LabeledDataset.subset", {}),
    ("unforget.data:LabeledDataset", "feature_array", "data.LabeledDataset.feature_array", {}),
    ("unforget.cli", "load_dataset", "data.load_dataset",
     dict(after=lambda ds: {"rows": len(ds)})),
    ("unforget.harness", "exact_unlearn", "unlearn.exact_unlearn", {}),
    ("unforget.harness", "relabel_unlearn", "unlearn.relabel_unlearn", {}),
    ("unforget.harness", "saliency_unlearn", "unlearn.saliency_unlearn", {}),
    ("unforget.unlearn", "compute_saliency_mask", "unlearn.compute_saliency_mask",
     dict(key=lambda a: _digest(a["pretrained"].params.tobytes(), a["forget"].ids()))),
    ("unforget.unlearn", "random_relabel", "unlearn.random_relabel",
     dict(key=lambda a: _digest(a["forget"].ids(), a["policy"], a["seed"]))),
    ("unforget.unlearn", "relabel_finetune", "unlearn.relabel_finetune", {}),
    ("unforget.harness", "evaluate", "metrics.evaluate", dict(key=_model_data_key)),
    ("unforget.metrics", "evaluate", "metrics.evaluate", dict(key=_model_data_key)),
    ("unforget.cli", "evaluate", "metrics.evaluate", dict(key=_model_data_key)),
    ("unforget.harness", "rank_difficulty", "metrics.rank_difficulty", {}),
    ("unforget.metrics", "predict_scores", "metrics.predict_scores",
     dict(cpu=True, before=_rows("ds"))),
    ("unforget.metrics", "auroc_binary", "metrics.auroc_binary", {}),
    ("unforget.cli", "run_experiment", "harness.run_experiment",
     dict(after=lambda report: {"incomplete": len(report.incomplete)})),
    ("unforget.harness", "sweep_hparams", "harness.sweep_hparams",
     dict(before=lambda a: {"algorithm": a["algorithm"], "grid": len(a["grid"])},
          after=lambda result: {"rows": len(result[2])})),
    ("unforget.cli", "emit_report", "harness.emit_report", {}),
    ("unforget.cli", "_cmd_eval", "cli.eval", {}),
]


def install_sites(tracer: Tracer) -> None:
    for target, attr, name, options in SITES:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        tracer.wrap(owner, attr, name, **options)


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

# Stage -> (span names, whether the span must be called directly from
# run_experiment). Sweeps are told apart by their algorithm argument.
_STAGES = {
    "datagen": (("data.generate_synthetic",), True),
    "split": (("data.split_train_val_test", "data.split_forget_retain",
               "data.LabeledDataset.subset"), True),
    "pretrain": (("optim.train_from_scratch",), True),
    "exact": (("unlearn.exact_unlearn",), False),
    "eval": (("metrics.evaluate", "metrics.rank_difficulty"), True),
    "emit": (("harness.emit_report",), False),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _unit(name: str) -> str:
    """A per-layer metric's name ends in its unit."""
    if name.endswith("_per_s"):
        return "samples/s"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def layer_metrics(spans, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from one traced phase, as name -> (value,
    unit); absent layers read 0."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)
    names = {s.id: s.name for s in spans}

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return union_length((s.start, s.end) for s in by_name[name])

    def self_s(name):
        return sum(selfs[s.id] for s in by_name[name])

    def cpu(name):
        return sum(s.cpu for s in by_name[name])

    def rows(name):
        return sum(s.attrs.get("rows", 0) for s in by_name[name])

    def distinct(name):
        return _ratio(len({s.key for s in by_name[name]}), calls(name))

    def stage(span_names, from_harness, where=lambda s: True):
        picked = [
            s for n in span_names for s in by_name[n]
            if where(s) and (not from_harness or names.get(s.parent) == "harness.run_experiment")
        ]
        return union_length((s.start, s.end) for s in picked)

    sweeps = by_name["harness.sweep_hparams"]
    train = "nn_core.loss_and_grad.train"
    out = {
        f"{train}.calls": calls(train),
        f"{train}.busy_s": busy(train),
        f"{train}.cpu_s": cpu(train),
        "nn_core.train_samples_per_s": _ratio(rows(train), busy(train)),
        "nn_core.loss_and_grad.saliency.busy_s": busy("nn_core.loss_and_grad.saliency"),
        "nn_core.load_model.busy_s": busy("nn_core.load_model"),
        "optim.adam_step.calls": calls("optim.adam_step"),
        "optim.adam_step.busy_s": busy("optim.adam_step"),
        "optim.train.self_s": self_s("optim.train"),
        "data.generate_synthetic.busy_s": busy("data.generate_synthetic"),
        "data.concat_datasets.calls": calls("data.concat_datasets"),
        "data.concat_datasets.busy_s": busy("data.concat_datasets"),
        "data.LabeledDataset.subset.busy_s": busy("data.LabeledDataset.subset"),
        "data.LabeledDataset.feature_array.busy_s": busy("data.LabeledDataset.feature_array"),
        "data.load_dataset.busy_s": busy("data.load_dataset"),
        "data.load_samples_per_s": _ratio(rows("data.load_dataset"), busy("data.load_dataset")),
        "unlearn.compute_saliency_mask.calls": calls("unlearn.compute_saliency_mask"),
        "unlearn.compute_saliency_mask.busy_s": busy("unlearn.compute_saliency_mask"),
        "unlearn.compute_saliency_mask.distinct_ratio": distinct("unlearn.compute_saliency_mask"),
        "unlearn.random_relabel.calls": calls("unlearn.random_relabel"),
        "unlearn.random_relabel.distinct_ratio": distinct("unlearn.random_relabel"),
        "unlearn.relabel_finetune.self_s": self_s("unlearn.relabel_finetune"),
        "metrics.evaluate.calls": calls("metrics.evaluate"),
        "metrics.evaluate.busy_s": busy("metrics.evaluate"),
        "metrics.evaluate.distinct_ratio": distinct("metrics.evaluate"),
        "metrics.predict_scores.busy_s": busy("metrics.predict_scores"),
        "metrics.predict_scores.cpu_s": cpu("metrics.predict_scores"),
        "metrics.eval_samples_per_s": _ratio(
            rows("metrics.predict_scores"), busy("metrics.predict_scores")
        ),
        "metrics.auroc_binary.calls": calls("metrics.auroc_binary"),
        "metrics.auroc_binary.busy_s": busy("metrics.auroc_binary"),
        "harness.run_experiment.self_s": self_s("harness.run_experiment"),
        "harness.sweep_hparams.self_s": self_s("harness.sweep_hparams"),
        "harness.emit_report.busy_s": busy("harness.emit_report"),
        # A sweep that raised (every point failed) returned no table.
        "harness.sweep.failed_points": sum(
            s.attrs["grid"] - s.attrs.get("rows", 0) for s in sweeps
        ),
        "harness.incomplete_cells": sum(
            s.attrs.get("incomplete", 0) for s in by_name["harness.run_experiment"]
        ),
        "cli.eval.self_s": self_s("cli.eval"),
    }
    for stage_name, (span_names, from_harness) in _STAGES.items():
        out[f"harness.stage.{stage_name}_s"] = stage(span_names, from_harness)
    for algorithm in ("relabel", "salun"):
        out[f"harness.stage.{algorithm}_sweep_s"] = stage(
            ("harness.sweep_hparams",), False,
            where=lambda s, a=algorithm: s.attrs["algorithm"] == a,
        )
    out["trace.overhead_s"] = overhead_s
    return {name: (value, _unit(name)) for name, value in out.items()}
