"""Experiment orchestration: seeded repeats of the full unlearning protocol
(pretrain, forget/retain splits at several sizes, exact unlearning, tuned
approximate unlearning), evaluation on retain/forget/test with per-class and
per-group breakdowns, and report emission as JSON plus CSV tables.

Seed discipline: every stage draws from a seed derived as
``derive_seed(base_seed, "repeat", r, <stage>, ...)``, so each (repeat,
stage, algorithm, fraction) owns an independent stream and changing one
cell's path never perturbs another.

Wall-clock measurements live exclusively under dict keys named "timing",
"seconds", or "*_seconds"; ``strip_timing`` removes them all, and the
stripped report is byte-reproducible for a fixed (config, base_seed).
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    LabeledDataset,
    SyntheticSpec,
    apply_u_one_dataset,
    check_grouping,
    check_split_fractions,
    generate_synthetic,
    load_dataset,
    split_forget_retain,
    split_train_val_test,
)
from .metrics import EvalResult, evaluate, rank_difficulty
from .nn_core import ArchSpec, ModelState, arch_from_json, arch_to_json, check_keys
from .optim import TrainConfig, train_from_scratch
from . import unlearn
from .seeding import derive_seed

# relabel_unlearn and saliency_unlearn are not called here; perfbench's
# tracer wraps both under this module, so the names stay bound.
from .unlearn import (  # noqa: F401
    ALGORITHMS,
    UnlearnConfig,
    exact_unlearn,
    relabel_unlearn,
    saliency_unlearn,
    task_loss_kind,
)

__all__ = [
    "ExperimentConfig",
    "UnlearnReport",
    "run_experiment",
    "sweep_hparams",
    "emit_report",
    "load_report",
    "strip_timing",
    "default_config",
    "default_synthetic_spec",
    "default_arch",
    "config_to_dict",
    "config_from_dict",
    "spec_to_dict",
    "spec_from_dict",
]

SET_NAMES = ("retain", "forget", "test")
ROLES = ("easy", "intermediate", "hard")


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    dataset: object  # SyntheticSpec, or str/Path to a dataset file
    arch: ArchSpec
    train_cfg: TrainConfig = TrainConfig(epochs=6, batch_size=32, lr0=1e-3)
    split_fractions: tuple = (0.6, 0.05, 0.35)
    forget_fractions: tuple = (0.05, 0.15, 0.30)
    forget_grouping: str = "patient_level"
    algorithms: tuple = ("exact", "relabel", "salun")
    unlearn_epochs: int = 2
    unlearn_batch_size: int = 32
    lr_grid: tuple = (3e-4, 1e-3, 3e-3, 1e-2)
    threshold_grid: tuple = (1e-3, 4e-3)
    relabel_policy: str | None = None
    repeats: int = 3
    base_seed: int = 0
    group_names: tuple = ("male", "female")

    def validate(self):
        self.arch.validate()
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        for f in self.forget_fractions:
            if not (0.0 < f < 1.0):
                raise ValueError(f"forget fractions must lie in (0, 1), got {f}")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms {sorted(unknown)}")
        if not self.algorithms:
            raise ValueError("no algorithms requested")
        if self.unlearn_epochs < 1:
            raise ValueError("unlearn_epochs must be >= 1")
        if "relabel" in self.algorithms or "salun" in self.algorithms:
            if not self.lr_grid:
                raise ValueError("lr_grid must be non-empty for approximate algorithms")
        if "salun" in self.algorithms and not self.threshold_grid:
            raise ValueError("threshold_grid must be non-empty for salun")
        if not all(lr > 0 for lr in self.lr_grid):
            raise ValueError(f"lr_grid values must be > 0, got {self.lr_grid}")
        # A threshold of 0 means "no mask".
        if not all(t >= 0 for t in self.threshold_grid):
            raise ValueError(f"threshold_grid values must be >= 0, got {self.threshold_grid}")
        check_grouping(self.forget_grouping)
        check_split_fractions(self.split_fractions, allow_empty=True)
        if isinstance(self.dataset, SyntheticSpec):
            self.dataset.validate()
            self.check_group_names(len(self.dataset.group_proportions) - 1, "the dataset spec")

    def check_group_names(self, top_group: int, where: str):
        """Every group id up to ``top_group`` needs a name in the report."""
        if top_group >= len(self.group_names):
            raise ValueError(
                f"group_names has {len(self.group_names)} entries, but {where} has group {top_group}"
            )


def default_arch() -> ArchSpec:
    """BatchNorm conv net over 16x16x1 images, 3 classes. Wide enough to
    memorize some training label noise in 6 epochs, which is what separates
    retain from test performance at this scale."""
    from .nn_core import BatchNorm, Conv2D, Dense, GlobalAvgPool, ReLU

    return ArchSpec(
        input_shape=(1, 16, 16),
        layers=(
            Conv2D(1, 24, kernel=3, stride=2),
            BatchNorm(24),
            ReLU(),
            Conv2D(24, 48, kernel=3, stride=2),
            BatchNorm(48),
            ReLU(),
            GlobalAvgPool(),
            Dense(48, 128),
            ReLU(),
            Dense(128, 3),
        ),
        output_dim=3,
    )


def default_synthetic_spec(seed: int = 0) -> SyntheticSpec:
    """The 3-class desk-scale fixture: ~5,000 samples over 250 patients with
    ordered class separations (easy > intermediate > hard), mild class
    imbalance, and 5% label noise, giving roughly 3,000 training samples
    under the default split."""
    return SyntheticSpec(
        num_patients=250,
        samples_per_patient=20,
        num_classes=3,
        class_weights=(0.45, 0.33, 0.22),
        group_proportions=(0.5, 0.5),
        feature_shape=(1, 16, 16),
        separations=(0.85, 0.4, 0.18),
        label_noise_rate=0.05,
        seed=seed,
    )


def default_config(base_seed: int = 0) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=default_synthetic_spec(),
        arch=default_arch(),
        base_seed=base_seed,
    )


# --------------------------------------------------------------------------
# Config (de)serialization — mirrors the JSON config file field-for-field
# --------------------------------------------------------------------------

def spec_to_dict(spec: SyntheticSpec) -> dict:
    out = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def spec_from_dict(doc: dict) -> SyntheticSpec:
    check_keys(doc, "dataset spec", optional=[f.name for f in fields(SyntheticSpec)])
    kwargs = dict(doc)
    for key in ("class_weights", "group_proportions", "feature_shape", "separations"):
        if kwargs.get(key) is not None:
            kwargs[key] = tuple(kwargs[key])
    if isinstance(kwargs.get("samples_per_patient"), list):
        kwargs["samples_per_patient"] = tuple(kwargs["samples_per_patient"])
    return SyntheticSpec(**kwargs)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    if isinstance(cfg.dataset, SyntheticSpec):
        dataset = {"spec": spec_to_dict(cfg.dataset)}
    else:
        dataset = {"path": str(cfg.dataset)}
    return {
        "dataset": dataset,
        "arch": json.loads(arch_to_json(cfg.arch)),
        "train": {
            "epochs": cfg.train_cfg.epochs,
            "batch_size": cfg.train_cfg.batch_size,
            "lr0": cfg.train_cfg.lr0,
        },
        "split_fractions": list(cfg.split_fractions),
        "forget_fractions": list(cfg.forget_fractions),
        "forget_grouping": cfg.forget_grouping,
        "algorithms": list(cfg.algorithms),
        "unlearn": {"epochs": cfg.unlearn_epochs, "batch_size": cfg.unlearn_batch_size},
        "lr_grid": list(cfg.lr_grid),
        "threshold_grid": list(cfg.threshold_grid),
        "relabel_policy": cfg.relabel_policy,
        "repeats": cfg.repeats,
        "base_seed": cfg.base_seed,
        "group_names": list(cfg.group_names),
    }


def _as_is(value):
    return value


def _convert(convert, value, key: str):
    """Apply a key's conversion; an ``int`` key refuses a fractional part (or
    a non-number) with a ValueError naming the key, instead of truncating."""
    if convert is not int:
        return convert(value)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
    return value


# Optional config keys and the conversion applied to each: top-level keys
# set the ExperimentConfig field of the same name, "train" keys the
# TrainConfig field, "unlearn" keys the unlearn_<key> field. An omitted key
# keeps the dataclass default.
_CONFIG_KEYS = {
    "split_fractions": tuple,
    "forget_fractions": tuple,
    "forget_grouping": _as_is,
    "algorithms": tuple,
    "lr_grid": tuple,
    "threshold_grid": tuple,
    "relabel_policy": _as_is,
    "repeats": int,
    "base_seed": int,
    "group_names": tuple,
}
_TRAIN_KEYS = {"epochs": int, "batch_size": int, "lr0": float}
_UNLEARN_KEYS = {"epochs": int, "batch_size": int}


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Inverse of ``config_to_dict``. Omitted keys take the ``ExperimentConfig``
    defaults; unknown keys raise ValueError."""
    check_keys(doc, "config", ("dataset", "arch"), ("train", "unlearn", *_CONFIG_KEYS))
    dataset_doc = doc["dataset"]
    check_keys(dataset_doc, "config dataset", optional=("spec", "path"))
    if "spec" in dataset_doc:
        dataset = spec_from_dict(dataset_doc["spec"])
    elif "path" in dataset_doc:
        dataset = dataset_doc["path"]
    else:
        raise ValueError("config dataset needs either 'spec' or 'path'")
    train_doc = doc.get("train", {})
    check_keys(train_doc, "config train", optional=_TRAIN_KEYS)
    unlearn_doc = doc.get("unlearn", {})
    check_keys(unlearn_doc, "config unlearn", optional=_UNLEARN_KEYS)
    kwargs = {
        key: _convert(convert, doc[key], key)
        for key, convert in _CONFIG_KEYS.items()
        if key in doc
    }
    kwargs.update({
        f"unlearn_{key}": _convert(_UNLEARN_KEYS[key], value, f"unlearn.{key}")
        for key, value in unlearn_doc.items()
    })
    train_cfg = replace(
        ExperimentConfig.train_cfg,
        **{key: _convert(_TRAIN_KEYS[key], value, f"train.{key}") for key, value in train_doc.items()},
    )
    cfg = ExperimentConfig(
        dataset=dataset,
        arch=arch_from_json(json.dumps(doc["arch"])),
        train_cfg=train_cfg,
        **kwargs,
    )
    cfg.validate()
    return cfg


# --------------------------------------------------------------------------
# Sweeps
# --------------------------------------------------------------------------

def sweep_hparams(
    pretrained: ModelState,
    forget: LabeledDataset,
    retain: LabeledDataset,
    test: LabeledDataset,
    algorithm: str,
    grid: list[dict],
    exact_reference: EvalResult,
    *,
    epochs: int = 2,
    batch_size: int = 32,
    seed: int = 0,
    relabel_policy: str | None = None,
):
    """Run every grid point and pick the one whose forget macro AUROC is
    closest to exact unlearning's; ties go to higher test AUROC, then lower
    lr, then lower threshold. Returns (best config, best model, sweep table,
    best model's {"forget", "test"} EvalResults).

    Grid points are dicts with "lr" and, for salun, "threshold". All points
    share one seed, so they differ only in hyper-parameters, and the work
    that depends on neither (the noisy forget set and, for salun, the forget
    gradient) is done once; each row's seconds include that shared set-up,
    so a row is the cost of one run.
    """
    if not grid:
        raise ValueError("empty hyper-parameter grid")
    if algorithm not in ("relabel", "salun"):
        raise ValueError(f"not an approximate algorithm: {algorithm!r}")
    started = time.perf_counter()
    noisy = unlearn.noisy_forget_set(forget, relabel_policy, seed)
    gradient = (
        unlearn.forget_gradient(pretrained, forget, task_loss_kind(forget))
        if algorithm == "salun"
        else None
    )
    setup_seconds = time.perf_counter() - started
    table = []
    best = None
    errors = []
    for point in grid:
        ucfg = UnlearnConfig(
            algorithm=algorithm,
            epochs=epochs,
            lr=float(point["lr"]),
            threshold=(float(point["threshold"]) if algorithm == "salun" else None),
            seed=seed,
            relabel_policy=relabel_policy,
            batch_size=batch_size,
        )
        started = time.perf_counter()
        try:
            mask = None if gradient is None else unlearn.mask_from_gradient(gradient, ucfg.threshold)
            model = unlearn.relabel_finetune(pretrained, retain, noisy, ucfg, mask=mask)
            forget_eval = evaluate(model, forget, "forget")
            test_eval = evaluate(model, test, "test")
        except (ValueError, FloatingPointError) as exc:  # a diverging lr must not kill the sweep
            errors.append(f"{point}: {exc}")
            continue
        seconds = time.perf_counter() - started + setup_seconds
        gap = abs(forget_eval.macro_auroc - exact_reference.macro_auroc)
        row = {
            "lr": ucfg.lr,
            "threshold": ucfg.threshold,
            "forget_macro": forget_eval.macro_auroc,
            "test_macro": test_eval.macro_auroc,
            "forget_gap": gap,
            "seconds": seconds,
        }
        table.append(row)
        key = (gap, -test_eval.macro_auroc, ucfg.lr, ucfg.threshold or 0.0)
        if best is None or key < best[0]:
            best = (key, ucfg, model, {"forget": forget_eval, "test": test_eval})
    if best is None:
        raise ValueError(f"all grid points failed: {errors}")
    return best[1], best[2], table, best[3]


# --------------------------------------------------------------------------
# Experiment pipeline
# --------------------------------------------------------------------------

@dataclass
class UnlearnReport:
    """Everything a run produced: raw per-(repeat, algorithm, fraction)
    cells, aggregated mean/std summaries, failures, and timing."""

    config: dict
    base_seed: int
    repeats: int
    difficulty: list = field(default_factory=list)
    cells: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    incomplete: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "base_seed": self.base_seed,
            "repeats": self.repeats,
            "difficulty": self.difficulty,
            "cells": self.cells,
            "summary": self.summary,
            "incomplete": self.incomplete,
            "timing": self.timing,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "UnlearnReport":
        return cls(
            config=doc["config"],
            base_seed=doc["base_seed"],
            repeats=doc["repeats"],
            difficulty=doc.get("difficulty", []),
            cells=doc.get("cells", []),
            summary=doc.get("summary", {}),
            incomplete=doc.get("incomplete", []),
            timing=doc.get("timing", {}),
        )


def _frac_key(fraction: float) -> str:
    return format(float(fraction), "g")


def _dataset_for_repeat(cfg: ExperimentConfig, r: int):
    if isinstance(cfg.dataset, SyntheticSpec):
        spec = replace(cfg.dataset, seed=derive_seed(cfg.base_seed, "repeat", r, "data"))
        ds = generate_synthetic(spec)
    else:
        ds = load_dataset(cfg.dataset)
        cfg.check_group_names(int(ds.group_array().max()), f"dataset {cfg.dataset}")
    if ds.task_kind == "multi_label" and ds.has_unknown():
        ds = apply_u_one_dataset(ds)
    return ds


def _eval_triplet(model, retain_ds, forget_ds, test_ds) -> dict:
    return {
        "retain": evaluate(model, retain_ds, "retain").to_dict(),
        "forget": evaluate(model, forget_ds, "forget").to_dict(),
        "test": evaluate(model, test_ds, "test").to_dict(),
    }


def run_experiment(cfg: ExperimentConfig) -> UnlearnReport:
    """The full protocol; a pure function of (config, base_seed) apart from
    the timing fields.

    Per repeat: derive seeds, build data, split train/val/test by patient,
    pretrain, rank class difficulty, then per forget fraction: carve
    forget/retain, run exact unlearning (always computed — it is the tuning
    reference), sweep and run each requested approximate algorithm, and
    evaluate every produced model on retain/forget/test. A ValueError or
    FloatingPointError (a diverging lr) aborts only its own (algorithm,
    fraction, repeat) cell and is recorded; any other exception propagates.
    """
    cfg.validate()
    report = UnlearnReport(
        config=config_to_dict(cfg), base_seed=cfg.base_seed, repeats=cfg.repeats
    )
    needs_reference = any(a in cfg.algorithms for a in ("relabel", "salun"))
    pretrain_seconds = []

    for r in range(cfg.repeats):
        ds = _dataset_for_repeat(cfg, r)
        plan = split_train_val_test(
            ds, cfg.split_fractions, derive_seed(cfg.base_seed, "repeat", r, "split"),
            allow_empty=True,
        )
        train_ds = ds.subset(plan.train_ids)
        test_ds = ds.subset(plan.test_ids)
        train_cfg = replace(
            cfg.train_cfg,
            loss_kind=task_loss_kind(ds),
        )

        started = time.perf_counter()
        pretrained, _ = train_from_scratch(
            cfg.arch, train_ds, train_cfg, derive_seed(cfg.base_seed, "repeat", r, "pretrain")
        )
        pretrain_seconds.append(time.perf_counter() - started)

        try:
            ranking = rank_difficulty(pretrained, test_ds)
            report.difficulty.append(
                {
                    "repeat": r,
                    "easy": ranking.easy,
                    "intermediate": ranking.intermediate,
                    "hard": ranking.hard,
                    "order": list(ranking.order),
                    "per_class": {str(k): v for k, v in sorted(ranking.per_class.items())},
                }
            )
        except ValueError as exc:
            report.difficulty.append({"repeat": r, "error": str(exc)})

        for fraction in cfg.forget_fractions:
            frac = _frac_key(fraction)
            try:
                plan_f = split_forget_retain(
                    plan, fraction, cfg.forget_grouping,
                    derive_seed(cfg.base_seed, "repeat", r, "forget", frac), ds,
                )
            except ValueError as exc:
                for alg in cfg.algorithms:
                    report.incomplete.append(
                        {"repeat": r, "fraction": fraction, "algorithm": alg, "error": str(exc)}
                    )
                continue
            retain_ds = ds.subset(plan_f.retain_ids)
            forget_ds = ds.subset(plan_f.forget_ids)

            exact_eval_forget = None
            exact_seconds = None
            if "exact" in cfg.algorithms or needs_reference:
                try:
                    started = time.perf_counter()
                    exact_model = exact_unlearn(
                        pretrained, retain_ds, train_cfg,
                        derive_seed(cfg.base_seed, "repeat", r, "unlearn", "exact", frac),
                    )
                    exact_seconds = time.perf_counter() - started
                    exact_evals = _eval_triplet(exact_model, retain_ds, forget_ds, test_ds)
                    exact_eval_forget = EvalResult(
                        macro_auroc=exact_evals["forget"]["macro_auroc"],
                        per_class={}, per_group={}, set_name="forget",
                        n_samples=len(forget_ds),
                    )
                    if "exact" in cfg.algorithms:
                        report.cells.append(
                            {
                                "repeat": r,
                                "algorithm": "exact",
                                "fraction": fraction,
                                "evals": exact_evals,
                                "chosen": None,
                                "sweep": None,
                                "timing": {"unlearn_seconds": exact_seconds},
                            }
                        )
                except (ValueError, FloatingPointError) as exc:  # numeric and data failures only
                    report.incomplete.append(
                        {"repeat": r, "fraction": fraction, "algorithm": "exact", "error": str(exc)}
                    )

            for alg in cfg.algorithms:
                if alg == "exact":
                    continue
                if exact_eval_forget is None:
                    report.incomplete.append(
                        {
                            "repeat": r,
                            "fraction": fraction,
                            "algorithm": alg,
                            "error": "no exact-unlearning reference available",
                        }
                    )
                    continue
                if alg == "salun":
                    grid = [
                        {"lr": lr, "threshold": thr}
                        for lr in cfg.lr_grid
                        for thr in cfg.threshold_grid
                    ]
                else:
                    grid = [{"lr": lr} for lr in cfg.lr_grid]
                try:
                    best_cfg, best_model, table, best_evals = sweep_hparams(
                        pretrained, forget_ds, retain_ds, test_ds, alg, grid,
                        exact_eval_forget,
                        epochs=cfg.unlearn_epochs,
                        batch_size=cfg.unlearn_batch_size,
                        seed=derive_seed(cfg.base_seed, "repeat", r, "unlearn", alg, frac),
                        relabel_policy=cfg.relabel_policy,
                    )
                    chosen_row = next(
                        row for row in table
                        if row["lr"] == best_cfg.lr and row["threshold"] == best_cfg.threshold
                    )
                    report.cells.append(
                        {
                            "repeat": r,
                            "algorithm": alg,
                            "fraction": fraction,
                            "evals": {
                                "retain": evaluate(best_model, retain_ds, "retain").to_dict(),
                                **{k: v.to_dict() for k, v in best_evals.items()},
                            },
                            "chosen": {"lr": best_cfg.lr, "threshold": best_cfg.threshold},
                            "sweep": table,
                            "timing": {
                                "unlearn_seconds": chosen_row["seconds"],
                                "sweep_seconds": sum(row["seconds"] for row in table),
                                "exact_seconds": exact_seconds,
                            },
                        }
                    )
                except (ValueError, FloatingPointError) as exc:  # numeric and data failures only
                    report.incomplete.append(
                        {"repeat": r, "fraction": fraction, "algorithm": alg, "error": str(exc)}
                    )

    report.summary = _aggregate(report, cfg)
    report.timing = _timing_summary(report, pretrain_seconds)
    return report


def _mean_std(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    out = {"mean": float(arr.mean()), "n": int(arr.size)}
    out["std"] = float(arr.std(ddof=1)) if arr.size >= 2 else 0.0
    if arr.size < 2:
        out["std_over_one_repeat"] = True
    return out


def _aggregate(report: UnlearnReport, cfg: ExperimentConfig) -> dict:
    roles_by_repeat = {
        d["repeat"]: d for d in report.difficulty if "error" not in d
    }
    summary: dict = {}
    for alg in cfg.algorithms:
        for fraction in cfg.forget_fractions:
            frac = _frac_key(fraction)
            cells = [
                c for c in report.cells
                if c["algorithm"] == alg and c["fraction"] == fraction
            ]
            if not cells:
                continue
            entry: dict = {}
            for set_name in SET_NAMES:
                macro = [c["evals"][set_name]["macro_auroc"] for c in cells]
                per_class: dict = {}
                for role in ROLES:
                    vals = []
                    for c in cells:
                        roles = roles_by_repeat.get(c["repeat"])
                        if roles is None:
                            continue
                        value = c["evals"][set_name]["per_class"].get(str(roles[role]))
                        if value is not None:
                            vals.append(value)
                    if vals:
                        per_class[role] = _mean_std(vals)
                per_group: dict = {}
                group_keys = sorted(
                    {g for c in cells for g in c["evals"][set_name]["per_group"]}
                )
                for g in group_keys:
                    vals = [
                        c["evals"][set_name]["per_group"][g]
                        for c in cells
                        if g in c["evals"][set_name]["per_group"]
                    ]
                    per_group[cfg.group_names[int(g)]] = _mean_std(vals)
                entry[set_name] = {
                    "macro": _mean_std(macro),
                    "per_class": per_class,
                    "per_group": per_group,
                }
            entry["chosen"] = [
                c["chosen"] for c in sorted(cells, key=lambda c: c["repeat"])
            ]
            entry["repeats_present"] = sorted(c["repeat"] for c in cells)
            summary.setdefault(alg, {})[frac] = entry
    return summary


def _timing_summary(report: UnlearnReport, pretrain_seconds: list[float]) -> dict:
    approx_cells = [c for c in report.cells if c["algorithm"] != "exact"]
    faster = [
        c["timing"]["unlearn_seconds"] < c["timing"]["exact_seconds"]
        for c in approx_cells
        if c["timing"].get("exact_seconds") is not None
    ]
    sweep_exceeds = [
        c["timing"]["sweep_seconds"] > c["timing"]["unlearn_seconds"]
        for c in approx_cells
    ]
    exact_cells = [c for c in report.cells if c["algorithm"] == "exact"]
    return {
        "pretrain_seconds": pretrain_seconds,
        "approx_faster_than_exact": bool(faster) and all(faster),
        "sweep_cost_exceeds_single_run": bool(sweep_exceeds) and all(sweep_exceeds),
        "exact_seconds_mean": (
            float(np.mean([c["timing"]["unlearn_seconds"] for c in exact_cells]))
            if exact_cells
            else None
        ),
        "approx_seconds_mean": (
            float(np.mean([c["timing"]["unlearn_seconds"] for c in approx_cells]))
            if approx_cells
            else None
        ),
    }


# --------------------------------------------------------------------------
# Report emission
# --------------------------------------------------------------------------

def strip_timing(obj):
    """Recursively drop every wall-clock field ("timing", "seconds",
    "*_seconds"); what remains is byte-reproducible for a fixed config."""
    if isinstance(obj, dict):
        return {
            k: strip_timing(v)
            for k, v in obj.items()
            if not (k == "timing" or k == "seconds" or k.endswith("_seconds"))
        }
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def _fmt_cell(stats: dict | None) -> str:
    if stats is None:
        return ""
    return f"{stats['mean'] * 100:.2f}±{stats['std'] * 100:.2f}"


def _write_csv(path: Path, header: list[str], rows: list[list[str]]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_report(report: UnlearnReport, out_dir) -> list[Path]:
    """Write report.json plus CSV tables (AUROC in percentage points,
    mean±std cells): forget-size analysis, and per-class / fairness tables
    per fraction. Returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    # Written to a temporary file and renamed into place, so report.json is
    # always either the previous report or the whole new one.
    json_path = out / "report.json"
    fd, tmp = tempfile.mkstemp(dir=out, prefix=".report.json.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
        os.replace(tmp, json_path)
    except BaseException:
        os.unlink(tmp)
        raise
    paths.append(json_path)

    # Only algorithms with at least one aggregated cell get table rows, so an
    # empty report emits headers with zero data rows.
    algorithms = [a for a in report.config["algorithms"] if a in report.summary]
    fractions = [_frac_key(f) for f in report.config["forget_fractions"]]

    header = ["algorithm"]
    for frac in fractions:
        header += [f"{s}@{frac}" for s in SET_NAMES]
    rows = []
    for alg in algorithms:
        row = [alg]
        for frac in fractions:
            entry = report.summary.get(alg, {}).get(frac)
            for set_name in SET_NAMES:
                row.append(_fmt_cell(entry[set_name]["macro"]) if entry else "")
        rows.append(row)
    path = out / "forget_size.csv"
    _write_csv(path, header, rows)
    paths.append(path)

    for frac in fractions:
        header = ["algorithm"]
        for role in ROLES:
            header += [f"{role}_{s}" for s in SET_NAMES]
        rows = []
        for alg in algorithms:
            entry = report.summary.get(alg, {}).get(frac)
            row = [alg]
            for role in ROLES:
                for set_name in SET_NAMES:
                    stats = (
                        entry[set_name]["per_class"].get(role) if entry else None
                    )
                    row.append(_fmt_cell(stats))
            rows.append(row)
        path = out / f"per_class_{frac}.csv"
        _write_csv(path, header, rows)
        paths.append(path)

        group_names = sorted(
            {
                name
                for alg in algorithms
                for name in report.summary.get(alg, {})
                .get(frac, {})
                .get("test", {})
                .get("per_group", {})
            }
        )
        header = ["algorithm"]
        for set_name in SET_NAMES:
            header += [f"{set_name}_{g}" for g in group_names]
        rows = []
        for alg in algorithms:
            entry = report.summary.get(alg, {}).get(frac)
            row = [alg]
            for set_name in SET_NAMES:
                for g in group_names:
                    stats = entry[set_name]["per_group"].get(g) if entry else None
                    row.append(_fmt_cell(stats))
            rows.append(row)
        path = out / f"fairness_{frac}.csv"
        _write_csv(path, header, rows)
        paths.append(path)

    return paths


def load_report(report_dir) -> UnlearnReport:
    path = Path(report_dir) / "report.json"
    if not path.exists():
        raise FileNotFoundError(f"no report.json in {report_dir}")
    return UnlearnReport.from_dict(json.loads(path.read_text()))
