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
    SplitPlan,
    SyntheticSpec,
    apply_u_one_dataset,
    check_forget_fraction,
    check_grouping,
    check_split_fractions,
    generate_synthetic,
    load_dataset,
    split_forget_retain,
    split_train_val_test,
)
from .metrics import EvalResult, evaluate, rank_difficulty
from .nn_core import (
    ArchSpec,
    ModelState,
    arch_from_json,
    arch_to_json,
    check_keys,
    fields_from_json,
    fields_to_json,
)
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
    train: TrainConfig = TrainConfig()
    split_fractions: tuple[float, ...] = (0.6, 0.05, 0.35)
    forget_fractions: tuple[float, ...] = (0.05, 0.15, 0.30)
    forget_grouping: str = "patient_level"
    algorithms: tuple[str, ...] = ("exact", "relabel", "salun")
    unlearn_epochs: int = 2
    unlearn_batch_size: int = 32
    lr_grid: tuple[float, ...] = (3e-4, 1e-3, 3e-3, 1e-2)
    threshold_grid: tuple[float, ...] = (1e-3, 4e-3)
    relabel_policy: str | None = None
    repeats: int = 3
    base_seed: int = 0
    group_names: tuple[str, ...] = ("male", "female")

    def validate(self):
        self.arch.validate()
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        # A repeated entry would be run, and summarised, as if it were another.
        for key in ("forget_fractions", "algorithms", "group_names", "lr_grid", "threshold_grid"):
            values = getattr(self, key)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{key} repeats {repeated[0]!r}")
        if not self.forget_fractions:
            raise ValueError("no forget fractions requested")
        for f in self.forget_fractions:
            check_forget_fraction(f)
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms {sorted(unknown)}")
        if not self.algorithms:
            raise ValueError("no algorithms requested")
        if "relabel" in self.algorithms or "salun" in self.algorithms:
            if not self.lr_grid:
                raise ValueError("lr_grid must be non-empty for approximate algorithms")
        if "salun" in self.algorithms and not self.threshold_grid:
            raise ValueError("threshold_grid must be non-empty for salun")
        # Before the grids, so an unknown policy reads the same with or without a sweep.
        if self.relabel_policy is not None:
            unlearn.check_relabel_policy(self.relabel_policy)
        for algorithm in self.algorithms:
            if algorithm != "exact":
                self.grid(algorithm, self.base_seed)
        check_grouping(self.forget_grouping)
        # The harness never reads the val split, so only val may be empty.
        train, _, test = check_split_fractions(self.split_fractions)
        if train == 0 or test == 0:
            raise ValueError(
                f"split_fractions needs positive train and test fractions, got {self.split_fractions}"
            )
        if isinstance(self.dataset, SyntheticSpec):
            self.dataset.validate()
            self.check_dataset(self.dataset, len(self.dataset.group_proportions) - 1, "the dataset spec")

    def check_dataset(self, data, top_group: int, where: str):
        """Raise ValueError unless ``data`` (a ``SyntheticSpec`` or a loaded
        dataset, named ``where``) fits this run: its feature shape and output
        count are the arch's, every group id up to ``top_group`` has a name
        in the report, and the relabel policy fits its task kind."""
        arch, shape = self.arch, tuple(data.feature_shape)
        if (shape, data.num_outputs) != (arch.input_shape, arch.output_dim):
            raise ValueError(f"arch takes input {arch.input_shape} and emits {arch.output_dim} outputs, "
                             f"but {where} has features {shape} and {data.num_outputs} outputs")
        if top_group >= len(self.group_names):
            raise ValueError(f"group_names has {len(self.group_names)} entries, "
                             f"but {where} has group {top_group}")
        if self.relabel_policy is not None:
            unlearn.check_relabel_policy(self.relabel_policy, data.task_kind)

    def grid(self, algorithm: str, seed: int) -> list[UnlearnConfig]:
        """The runs of one approximate algorithm's sweep, lr-major with the
        thresholds inner for salun. Every point shares ``seed``, the relabel
        policy and the unlearn epochs and batch size; a value that
        ``UnlearnConfig`` rejects raises ValueError naming the sweep."""
        thresholds = tuple(map(float, self.threshold_grid)) if algorithm == "salun" else (None,)
        try:
            return [
                UnlearnConfig(algorithm, self.unlearn_epochs, float(lr), t, seed, self.relabel_policy,
                              self.unlearn_batch_size)
                for lr in self.lr_grid for t in thresholds
            ]
        except ValueError as exc:
            raise ValueError(f"{algorithm} grid: {exc}") from None


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

def spec_from_dict(doc: dict) -> SyntheticSpec:
    return SyntheticSpec(**fields_from_json(SyntheticSpec, doc, "dataset spec"))


# The UnlearnConfig fields a config file sets under "unlearn", held as
# ExperimentConfig.unlearn_<key>. Every other field but dataset, arch and
# train is a top-level key of the same name.
_UNLEARN_KEYS = ("epochs", "batch_size")
_TOP_LEVEL_KEYS = tuple(
    f.name for f in fields(ExperimentConfig)
    if f.name not in ("dataset", "arch", "train") and not f.name.startswith("unlearn_")
)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The config file's JSON object, keys in field order."""
    doc = {}
    for key, value in fields_to_json(cfg).items():
        if key == "dataset":
            is_spec = isinstance(value, SyntheticSpec)
            value = {"spec": fields_to_json(value)} if is_spec else {"path": str(value)}
        elif key == "arch":
            value = json.loads(arch_to_json(value))
        elif key == "train":
            value = fields_to_json(value)
        elif key.startswith("unlearn_"):
            doc.setdefault("unlearn", {})[key.removeprefix("unlearn_")] = value
            continue
        doc[key] = value
    return doc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Inverse of ``config_to_dict``. Omitted keys take the ``ExperimentConfig``
    defaults; unknown keys and values of the wrong type raise ValueError."""
    check_keys(doc, "config", ("dataset", "arch"), ("train", "unlearn", *_TOP_LEVEL_KEYS))
    dataset_doc = doc["dataset"]
    check_keys(dataset_doc, "config dataset", optional=("spec", "path"))
    if len(dataset_doc) != 1:
        raise ValueError("config dataset needs exactly one of 'spec' and 'path'")
    if "spec" in dataset_doc:
        dataset = spec_from_dict(dataset_doc["spec"])
    elif isinstance(dataset_doc["path"], str):
        dataset = dataset_doc["path"]
    else:
        raise ValueError(f"config dataset key 'path' must be str, got {dataset_doc['path']!r}")
    top = {key: value for key, value in doc.items() if key in _TOP_LEVEL_KEYS}
    train = fields_from_json(TrainConfig, doc.get("train", {}), "config", "train")
    unlearn = fields_from_json(UnlearnConfig, doc.get("unlearn", {}), "config", "unlearn", _UNLEARN_KEYS)
    cfg = ExperimentConfig(
        dataset=dataset,
        arch=arch_from_json(json.dumps(doc["arch"])),
        train=replace(ExperimentConfig.train, **train),
        **{f"unlearn_{key}": value for key, value in unlearn.items()},
        **fields_from_json(ExperimentConfig, top, "config", keys=_TOP_LEVEL_KEYS),
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
    grid: list[UnlearnConfig],
    exact_reference: EvalResult,
):
    """Run every grid point and pick the one whose forget macro AUROC is
    closest to exact unlearning's; ties go to higher test AUROC, then lower
    lr, then lower threshold. Returns (the chosen point's row of the sweep
    table, its model, the sweep table, its model's {"forget", "test"}
    EvalResults).

    Grid points are ``algorithm``'s UnlearnConfigs, as
    ``ExperimentConfig.grid`` builds them. All points share one seed and
    relabel policy, so they differ only in hyper-parameters, and the work
    that depends on neither (the noisy forget set and, for salun, the forget
    gradient) is done once; each row's seconds include that shared set-up,
    so a row is the cost of one run.
    """
    if not grid:
        raise ValueError("empty hyper-parameter grid")
    if algorithm not in ("relabel", "salun"):
        raise ValueError(f"not an approximate algorithm: {algorithm!r}")
    shared = grid[0]
    if any((p.algorithm, p.seed, p.relabel_policy) != (algorithm, shared.seed, shared.relabel_policy)
           for p in grid):
        raise ValueError(f"a {algorithm} sweep's grid points must share its algorithm, seed and relabel_policy")
    started = time.perf_counter()
    noisy = unlearn.noisy_forget_set(forget, shared.relabel_policy, shared.seed)
    gradient = unlearn.forget_gradient(pretrained, forget) if algorithm == "salun" else None
    setup_seconds = time.perf_counter() - started
    table = []
    best = None
    errors = []
    for ucfg in grid:
        started = time.perf_counter()
        try:
            mask = None if gradient is None else unlearn.mask_from_gradient(gradient, ucfg.threshold)
            model = unlearn.relabel_finetune(pretrained, retain, noisy, ucfg, mask=mask)
            forget_eval = evaluate(model, forget, "forget")
            test_eval = evaluate(model, test, "test")
        except (ValueError, FloatingPointError) as exc:  # a diverging lr must not kill the sweep
            point = {"lr": ucfg.lr, "threshold": ucfg.threshold} if algorithm == "salun" else {"lr": ucfg.lr}
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
            best = (key, row, model, {"forget": forget_eval, "test": test_eval})
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
        return fields_to_json(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "UnlearnReport":
        """Inverse of ``to_dict``; a key with a default may be omitted. A
        missing required or unknown key, a value of the wrong type or a
        config that ``config_from_dict`` rejects raises ValueError."""
        report = cls(**fields_from_json(cls, doc, "report"))
        try:
            config_from_dict(report.config)
        except ValueError as exc:
            raise ValueError(f"report {exc}") from None
        return report


def _frac_key(fraction: float) -> str:
    return format(float(fraction), "g")


@dataclass(frozen=True)
class _Repeat:
    """One repeat's data and pretrained model, shared by all of its cells."""

    r: int
    ds: LabeledDataset
    plan: SplitPlan
    test: LabeledDataset
    pretrained: ModelState
    difficulty: dict


def _prepare_repeat(cfg: ExperimentConfig, r: int, ds: LabeledDataset | None) -> tuple[_Repeat, float]:
    """Split the repeat's data by patient (``ds``, or for a spec a fresh
    draw), pretrain and rank class difficulty; returns the repeat and its
    pretraining seconds."""
    if ds is None:
        ds = generate_synthetic(replace(cfg.dataset, seed=derive_seed(cfg.base_seed, "repeat", r, "data")))
    plan = split_train_val_test(ds, cfg.split_fractions, derive_seed(cfg.base_seed, "repeat", r, "split"))
    train_ds = ds.subset(plan.train_ids)
    test_ds = ds.subset(plan.test_ids)
    started = time.perf_counter()
    pretrained, _ = train_from_scratch(
        cfg.arch, train_ds, cfg.train, derive_seed(cfg.base_seed, "repeat", r, "pretrain")
    )
    seconds = time.perf_counter() - started
    try:
        ranking = rank_difficulty(pretrained, test_ds)
        difficulty = {
            "repeat": r,
            "easy": ranking.easy,
            "intermediate": ranking.intermediate,
            "hard": ranking.hard,
            "order": list(ranking.order),
            "per_class": {str(k): v for k, v in sorted(ranking.per_class.items())},
        }
    except ValueError as exc:
        difficulty = {"repeat": r, "error": str(exc)}
    return _Repeat(r, ds, plan, test_ds, pretrained, difficulty), seconds


def _split_forget(cfg: ExperimentConfig, rep: _Repeat, fraction: float) -> tuple:
    """The (retain, forget) datasets of one forget fraction."""
    plan = split_forget_retain(
        rep.plan, fraction, cfg.forget_grouping,
        derive_seed(cfg.base_seed, "repeat", rep.r, "forget", _frac_key(fraction)), rep.ds,
    )
    return rep.ds.subset(plan.retain_ids), rep.ds.subset(plan.forget_ids)


def _run_exact(cfg: ExperimentConfig, rep: _Repeat, fraction: float, split: tuple) -> dict:
    """The exact cell, which is also the tuning reference of the
    (repeat, fraction)'s approximate cells."""
    retain, forget = split
    started = time.perf_counter()
    model = exact_unlearn(
        rep.pretrained, retain, cfg.train,
        derive_seed(cfg.base_seed, "repeat", rep.r, "unlearn", "exact", _frac_key(fraction)),
    )
    seconds = time.perf_counter() - started
    return {
        "evals": {
            name: evaluate(model, data, name)
            for name, data in zip(SET_NAMES, (retain, forget, rep.test))
        },
        "chosen": None,
        "sweep": None,
        "timing": {"unlearn_seconds": seconds},
    }


def _run_cell(
    cfg: ExperimentConfig, rep: _Repeat, fraction: float, split: tuple,
    reference: dict | None, algorithm: str,
) -> dict:
    """One approximate cell: sweep the grid against the exact reference and
    evaluate the chosen model."""
    if reference is None:
        raise ValueError("no exact-unlearning reference available")
    retain, forget = split
    seed = derive_seed(cfg.base_seed, "repeat", rep.r, "unlearn", algorithm, _frac_key(fraction))
    chosen, best_model, table, best_evals = sweep_hparams(
        rep.pretrained, forget, retain, rep.test, algorithm, cfg.grid(algorithm, seed),
        reference["evals"]["forget"],
    )
    return {
        "evals": {"retain": evaluate(best_model, retain, "retain"), **best_evals},
        "chosen": {"lr": chosen["lr"], "threshold": chosen["threshold"]},
        "sweep": table,
        "timing": {
            "unlearn_seconds": chosen["seconds"],
            "sweep_seconds": sum(row["seconds"] for row in table),
            "exact_seconds": reference["timing"]["unlearn_seconds"],
        },
    }


def run_experiment(cfg: ExperimentConfig) -> UnlearnReport:
    """The full protocol; a pure function of (config, base_seed) apart from
    the timing fields.

    A dataset file is read, checked against the run and U-Ones-resolved
    once, before repeat 0. Per repeat: derive seeds, draw a spec's data (a
    file's is reused), split train/val/test by patient, pretrain, rank
    class difficulty, then per forget fraction: carve
    forget/retain, run exact unlearning (always, as the tuning reference),
    then sweep and run each requested approximate algorithm in config order;
    every produced model is evaluated on retain/forget/test. A ValueError or
    FloatingPointError (a diverging lr) fails only its own (repeat, fraction,
    algorithm) cell, which is filed under ``incomplete``; a failed split
    fails every cell of its fraction, and a failed exact run leaves the
    fraction's approximate cells without a reference. Any other exception
    propagates.
    """
    cfg.validate()
    report = UnlearnReport(
        config=config_to_dict(cfg), base_seed=cfg.base_seed, repeats=cfg.repeats
    )
    loaded = None if isinstance(cfg.dataset, SyntheticSpec) else load_dataset(cfg.dataset)
    if loaded is not None:
        cfg.check_dataset(loaded, int(loaded.group_array().max()), f"dataset {cfg.dataset}")
        loaded = apply_u_one_dataset(loaded) if loaded.has_unknown() else loaded
    approximate = [a for a in cfg.algorithms if a != "exact"]
    pretrain_seconds = []
    for r in range(cfg.repeats):
        rep, seconds = _prepare_repeat(cfg, r, loaded)
        pretrain_seconds.append(seconds)
        report.difficulty.append(rep.difficulty)
        for fraction in cfg.forget_fractions:
            split = reference = None
            for algorithm in ("exact", *approximate):
                try:
                    if split is None:  # a split that fails, fails each cell alike
                        split = _split_forget(cfg, rep, fraction)
                    if algorithm == "exact":
                        cell = reference = _run_exact(cfg, rep, fraction, split)
                    else:
                        cell = _run_cell(cfg, rep, fraction, split, reference, algorithm)
                except (ValueError, FloatingPointError) as exc:  # numeric and data failures only
                    # An exact failure is filed even when exact was not
                    # requested: it is why the approximate cells have no reference.
                    if algorithm in cfg.algorithms or split is not None:
                        report.incomplete.append(
                            {"repeat": r, "fraction": fraction, "algorithm": algorithm, "error": str(exc)}
                        )
                    continue
                if algorithm in cfg.algorithms:
                    report.cells.append({
                        "repeat": r, "algorithm": algorithm, "fraction": fraction, **cell,
                        "evals": {name: e.to_dict() for name, e in cell["evals"].items()},
                    })
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
    approx = [c["timing"] for c in report.cells if c["algorithm"] != "exact"]
    exact = [c["timing"] for c in report.cells if c["algorithm"] == "exact"]
    faster = [t["unlearn_seconds"] < t["exact_seconds"] for t in approx]
    sweep_exceeds = [t["sweep_seconds"] > t["unlearn_seconds"] for t in approx]

    def mean_seconds(timings: list[dict]) -> float | None:
        return float(np.mean([t["unlearn_seconds"] for t in timings])) if timings else None

    return {
        "pretrain_seconds": pretrain_seconds,
        "approx_faster_than_exact": bool(faster) and all(faster),
        "sweep_cost_exceeds_single_run": bool(sweep_exceeds) and all(sweep_exceeds),
        "exact_seconds_mean": mean_seconds(exact),
        "approx_seconds_mean": mean_seconds(approx),
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

    def table(name: str, columns: list[tuple]):
        """One row per algorithm; a (header, fraction, set, picker) column
        holds the picker's stats from that set's summary at that fraction."""
        rows = [["algorithm", *(header for header, *_ in columns)]]
        for alg in algorithms:
            row = [alg]
            for _, frac, set_name, pick in columns:
                entry = report.summary[alg].get(frac)
                row.append(_fmt_cell(pick(entry[set_name]) if entry else None))
            rows.append(row)
        path = out / name
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        paths.append(path)

    table("forget_size.csv", [
        (f"{s}@{frac}", frac, s, lambda stats: stats["macro"])
        for frac in fractions for s in SET_NAMES
    ])
    for frac in fractions:
        table(f"per_class_{frac}.csv", [
            (f"{role}_{s}", frac, s, lambda stats, role=role: stats["per_class"].get(role))
            for role in ROLES for s in SET_NAMES
        ])
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
        table(f"fairness_{frac}.csv", [
            (f"{s}_{g}", frac, s, lambda stats, g=g: stats["per_group"].get(g))
            for s in SET_NAMES for g in group_names
        ])
    return paths


def load_report(report_dir) -> UnlearnReport:
    path = Path(report_dir) / "report.json"
    if not path.exists():
        raise FileNotFoundError(f"no report.json in {report_dir}")
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path} is not JSON: {exc}") from None
    return UnlearnReport.from_dict(doc)
