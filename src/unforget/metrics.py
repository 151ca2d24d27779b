"""AUROC evaluation: exact rank-based binary AUROC with tie correction,
macro/per-class/per-group evaluation of a model on a dataset, and class
difficulty ranking.

AUROC here is the Mann-Whitney statistic: the fraction of (positive,
negative) pairs where the positive outscores the negative, ties counted as
one half. It is computed from average ranks, which is exact (no ROC-curve
binning), and the final division is canonicalized so that a score vector and
its label complement sum to exactly 1.0 in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DatasetStream, LabeledDataset
from .nn_core import EVAL_BATCH, ModelState, forward, kind_of

__all__ = [
    "EvalResult",
    "DifficultyRanking",
    "auroc_binary",
    "average_ranks",
    "predict_scores",
    "evaluate",
    "rank_difficulty",
    "ranking_from_per_class",
]


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    values = np.asarray(values)
    n = values.size
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], n]
    group_rank = (starts + ends - 1) / 2.0 + 1.0
    ranks = np.empty(n)
    ranks[order] = np.repeat(group_rank, ends - starts)
    return ranks


def auroc_binary(scores, labels) -> float:
    """Exact tie-corrected AUROC of scores against 0/1 labels.

    Requires at least one positive and one negative. The win count
    (wins + ties/2) is an exact float, and the division is arranged so that
    complement symmetry holds exactly: auroc(s, y) + auroc(s, 1-y) == 1.0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC undefined: need at least one positive and one negative")
    ranks = average_ranks(scores)
    wins = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    total = float(n_pos) * float(n_neg)
    if wins <= total - wins:
        return wins / total
    return 1.0 - (total - wins) / total


@dataclass(frozen=True)
class EvalResult:
    """Per-set AUROC summary. Values are fractions in [0, 1]; reports scale
    them to percentage points."""

    macro_auroc: float
    per_class: dict
    per_group: dict
    set_name: str
    n_samples: int
    skipped_classes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "set_name": self.set_name,
            "n_samples": self.n_samples,
            "macro_auroc": self.macro_auroc,
            "per_class": {str(k): v for k, v in sorted(self.per_class.items())},
            "per_group": {str(k): v for k, v in sorted(self.per_group.items())},
            "skipped_classes": list(self.skipped_classes),
        }


def predict_scores(model: ModelState, ds: LabeledDataset | DatasetStream) -> np.ndarray:
    """Eval-mode class scores: softmax probabilities for single-label data,
    sigmoid probabilities per label for multi-label data.

    A dataset in memory is scored in ``EVAL_BATCH``-row passes from row 0; a
    ``DatasetStream`` is scored the same way, block by block as it is read,
    so the same passes reach ``forward`` and the scores are the same. A
    stream's file errors come first, then a model whose output count does
    not match the dataset's, then an error from a pass: passes stop at the
    first error or mismatch, and the stream is still read to its end, so
    each file fails as its loaded dataset would."""
    blocks = ds if isinstance(ds, DatasetStream) else (ds.feature_array(),)
    matches = model.arch.output_dim == ds.num_outputs
    logits, failure = [], None
    for features in blocks:
        if failure is None and matches:
            try:
                logits += [forward(model, features[start : start + EVAL_BATCH], "eval")
                           for start in range(0, len(features), EVAL_BATCH)]
            except (ValueError, FloatingPointError) as exc:
                failure = exc
    if not matches:
        raise ValueError(f"model emits {model.arch.output_dim} outputs, dataset has {ds.num_outputs}")
    if failure is not None:
        raise failure
    return kind_of(ds.task_kind).scores(np.concatenate(logits))


def _per_class(scores, positives) -> tuple[dict, list]:
    per_class = {}
    skipped = []
    for c in range(positives.shape[1]):
        pos = positives[:, c]
        if pos.all() or not pos.any():
            skipped.append(c)
            continue
        per_class[c] = auroc_binary(scores[:, c], pos)
    return per_class, skipped


def _summary(scores: np.ndarray, positives: np.ndarray, groups: np.ndarray, set_name: str) -> EvalResult:
    """The AUROC summary of (N, K) scores against (N, K) positives, with
    each sample's group."""
    per_class, skipped = _per_class(scores, positives)
    if not per_class:
        raise ValueError("no class had both positives and negatives")
    macro = float(np.mean(list(per_class.values())))

    per_group = {}
    for g in sorted(set(groups.tolist())):
        sel = groups == g
        group_per_class, group_skipped = _per_class(scores[sel], positives[sel])
        if group_per_class:
            per_group[g] = float(np.mean(list(group_per_class.values())))
        skipped.extend(f"group{g}:{c}" for c in group_skipped)

    return EvalResult(
        macro_auroc=macro,
        per_class=per_class,
        per_group=per_group,
        set_name=set_name,
        n_samples=len(positives),
        skipped_classes=tuple(skipped),
    )


def evaluate(model: ModelState, ds: LabeledDataset | DatasetStream, set_name: str = "") -> EvalResult:
    """Macro / per-class / per-group AUROC of a model on a dataset.

    Classes missing a label polarity are excluded from the macro mean and
    flagged in ``skipped_classes``; the macro is the unweighted mean of the
    remaining per-class values. Group results restrict to each group's
    samples and macro-average the same way.

    A ``DatasetStream`` is scored by ``predict_scores`` as its records are
    read, and answers what its file's loaded dataset would, with the same
    result or the same error. Scoring a stream holds one block of records,
    one ``EVAL_BATCH``-row pass and, per sample, the id, patient, group and
    label columns and the logits.
    """
    if len(ds) == 0:
        raise ValueError("empty dataset")
    scores = predict_scores(model, ds)
    positives = kind_of(ds.task_kind).positives(ds.label_array(), scores.shape[1])
    return _summary(scores, positives, ds.group_array(), set_name)


@dataclass(frozen=True)
class DifficultyRanking:
    """Classes ordered easiest (highest test AUROC) to hardest, with the
    easy / intermediate / hard representatives used by per-class analysis."""

    order: tuple
    easy: int
    intermediate: int
    hard: int
    per_class: dict


def ranking_from_per_class(per_class: dict) -> DifficultyRanking:
    """Order classes by descending AUROC (ties broken by class index); the
    representatives are the max, lower median, and min of that order."""
    if len(per_class) < 3:
        raise ValueError(f"need at least 3 evaluable classes, got {len(per_class)}")
    order = tuple(sorted(per_class, key=lambda c: (-per_class[c], c)))
    return DifficultyRanking(
        order=order,
        easy=order[0],
        intermediate=order[(len(order) - 1) // 2],
        hard=order[-1],
        per_class=dict(per_class),
    )


def rank_difficulty(pretrained: ModelState, test: LabeledDataset) -> DifficultyRanking:
    """Class difficulty from the pretrained model's per-class test AUROC."""
    result = evaluate(pretrained, test, set_name="test")
    return ranking_from_per_class(result.per_class)
