"""Datasets: synthetic medical-like corpus generation, patient-grouped
splitting, forget/retain partitioning, the unknown-label policy, and a
binary dataset file format.

A dataset is a set of columns with one row per sample: ids, image-like
features scaled to [0, 1], labels (class indices, or 0/1 vectors where -1
marks an unknown entry), patient ids and a categorical group attribute.
Every column is a read-only array, so datasets are immutable after
construction and safe to share across runs.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .nn_core import EVAL_BATCH

__all__ = [
    "UNKNOWN",
    "LabeledDataset",
    "SplitPlan",
    "SyntheticSpec",
    "generate_synthetic",
    "apply_u_one",
    "apply_u_one_dataset",
    "split_train_val_test",
    "split_forget_retain",
    "concat_datasets",
    "save_dataset",
    "load_dataset",
    "DatasetStream",
]

UNKNOWN = -1  # unknown multi-label entry, resolved by apply_u_one

DATASET_MAGIC = b"UNDS"
DATASET_FORMAT_VERSION = 1

# Pixel noise scale for the synthetic generator; per-class separation values
# are expressed in units of this scale.
_NOISE_SCALE = 0.1


def _readonly(values, dtype) -> np.ndarray:
    """Read-only contiguous array of ``values`` as ``dtype``; copies only to
    convert, and refuses an integer conversion that changes a value (an int8
    cast would turn a label of 255 into UNKNOWN)."""
    raw = np.asarray(values)
    col = np.ascontiguousarray(raw, dtype=dtype).view()
    if col.dtype.kind == "i" and not np.array_equal(col, raw):
        raise ValueError(f"column values do not fit {col.dtype}")
    col.flags.writeable = False
    return col


def _row_problem(ids: np.ndarray, ok: np.ndarray, problem: str) -> str | None:
    """The message naming the first sample whose row fails ``ok``, if any."""
    bad = np.flatnonzero(~ok)
    return f"sample {ids[bad[0]]} {problem}" if bad.size else None


def _check_rows(ids: np.ndarray, ok: np.ndarray, problem: str) -> None:
    """Raise ValueError naming the first sample whose row fails ``ok``."""
    if message := _row_problem(ids, ok, problem):
        raise ValueError(message)


def _check_task(task_kind: str, num_outputs: int) -> None:
    if task_kind not in ("single_label", "multi_label"):
        raise ValueError(f"unknown task_kind {task_kind!r}")
    min_outputs = 1 if task_kind == "multi_label" else 2
    if num_outputs < min_outputs:
        raise ValueError(f"{task_kind} needs num_outputs >= {min_outputs}")


def _check_unique(ids: np.ndarray) -> None:
    """Raise ValueError naming the smallest id that appears twice."""
    ordered = np.sort(ids)
    duplicated = ordered[1:][ordered[1:] == ordered[:-1]]
    if duplicated.size:
        raise ValueError(f"duplicate sample id {duplicated[0]}")


def _row_checks(features, labels, task_kind: str, num_outputs: int) -> list:
    """The value checks of a run of rows, as (pass flag per row, problem)
    pairs in the order ``LabeledDataset`` raises them; ``features`` is
    ``(rows, C, H, W)``. Written so that NaN, which fails every comparison,
    is rejected."""
    lo, hi = features.min(axis=(1, 2, 3)), features.max(axis=(1, 2, 3))
    checks = [((lo >= 0.0) & (hi <= 1.0), "features outside [0, 1] or not finite")]
    if task_kind == "multi_label":
        checks.append((np.isin(labels, (0, 1, UNKNOWN)).all(axis=1), "label entries must be 0/1/UNKNOWN"))
    else:
        checks.append(((labels >= 0) & (labels < num_outputs), f"class out of range [0, {num_outputs})"))
    return checks


def _label_array(labels: np.ndarray, task_kind: str) -> np.ndarray:
    """Labels as training and evaluation read them: class indices, or a
    float 0/1 matrix that must hold no unknown entry."""
    if task_kind == "single_label":
        return labels
    if (labels == UNKNOWN).any():
        raise ValueError("unknown label entries remain; apply the u-one policy first")
    return labels.astype(np.float64)


class LabeledDataset:
    """Ordered samples with a homogeneous task kind, stored as columns.

    ``ids``, ``patients`` and ``groups`` are int64 ``(N,)``; ``features`` is
    ``(N, C, H, W)``, float32 when given float32 (as the generator and the
    dataset file make it) and float64 otherwise, so no value is ever
    rounded. ``task_kind`` is "single_label" (``labels`` is
    int64 ``(N,)`` of class indices below ``num_outputs``) or "multi_label"
    (``labels`` is int8 ``(N, num_outputs)`` over {0, 1, UNKNOWN}). An
    argument already of the right dtype and layout is not copied, so the
    caller must not write to it afterwards.
    """

    def __init__(self, ids, features, labels, patients, groups, task_kind: str, num_outputs: int):
        _check_task(task_kind, num_outputs)
        multi = task_kind == "multi_label"
        self._ids = _readonly(ids, np.int64)
        features = np.asarray(features)
        self._features = _readonly(features, np.float32 if features.dtype == np.float32 else np.float64)
        self._labels = _readonly(labels, np.int8 if multi else np.int64)
        self._patients = _readonly(patients, np.int64)
        self._groups = _readonly(groups, np.int64)
        n = len(self._ids)
        shapes = [c.shape for c in (self._ids, self._patients, self._groups, self._labels)]
        if shapes != [(n,)] * 3 + [(n, num_outputs) if multi else (n,)] or (
            self._features.ndim != 4 or len(self._features) != n
        ):
            raise ValueError(f"column shapes {shapes} and features {self._features.shape} "
                             f"do not describe {n} samples of {num_outputs} outputs")
        _check_unique(self._ids)
        for ok, problem in _row_checks(self._features, self._labels, task_kind, num_outputs):
            _check_rows(self._ids, ok, problem)
        self.task_kind = task_kind
        self.num_outputs = num_outputs

    def _columns(self) -> tuple:
        """The columns in constructor order."""
        return self._ids, self._features, self._labels, self._patients, self._groups

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def feature_shape(self) -> tuple[int, ...]:
        return self._features.shape[1:]

    def ids(self) -> list[int]:
        return self._ids.tolist()

    def feature_array(self) -> np.ndarray:
        """(N, C, H, W) read-only features."""
        return self._features

    def label_array(self) -> np.ndarray:
        return _label_array(self._labels, self.task_kind)

    def group_array(self) -> np.ndarray:
        return self._groups

    def patient_array(self) -> np.ndarray:
        return self._patients

    def has_unknown(self) -> bool:
        return self.task_kind == "multi_label" and bool((self._labels == UNKNOWN).any())

    def subset(self, ids) -> "LabeledDataset":
        """New dataset with the given sample ids, preserving original order."""
        wanted = np.unique(np.fromiter(ids, dtype=np.int64))
        rows = np.isin(self._ids, wanted)
        if rows.sum() != wanted.size:
            raise KeyError("subset ids not all present in dataset")
        return LabeledDataset(*(c[rows] for c in self._columns()), self.task_kind, self.num_outputs)

    def with_labels(self, labels) -> "LabeledDataset":
        """Copy with the label column replaced; the other columns are shared."""
        return LabeledDataset(
            self._ids, self._features, labels, self._patients, self._groups,
            self.task_kind, self.num_outputs,
        )


def concat_datasets(a: LabeledDataset, b: LabeledDataset) -> LabeledDataset:
    """``a``'s rows, then ``b``'s; float32 and float64 features give float64."""
    if a.task_kind != b.task_kind or a.num_outputs != b.num_outputs:
        raise ValueError("cannot concatenate datasets with different task kinds")
    return LabeledDataset(
        *(np.concatenate(pair) for pair in zip(a._columns(), b._columns())),
        a.task_kind, a.num_outputs,
    )


# --------------------------------------------------------------------------
# Unknown-label policy
# --------------------------------------------------------------------------

def apply_u_one(labels) -> np.ndarray:
    """Resolve unknown multi-label entries as positive; known entries unchanged."""
    vec = np.asarray(labels, dtype=np.int8).copy()
    vec[vec == UNKNOWN] = 1
    return vec


def apply_u_one_dataset(ds: LabeledDataset) -> LabeledDataset:
    if ds.task_kind != "multi_label":
        raise ValueError("the unknown-label policy applies to multi-label datasets")
    return ds.with_labels(apply_u_one(ds._labels))


# --------------------------------------------------------------------------
# Synthetic corpus
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic patient-grouped image classification corpus.

    Each class (or label) gets a fixed random template image; a sample is its
    class template scaled by that class's ``separation``, plus unit Gaussian
    pixel noise, mapped into [0, 1]. Larger separation means an easier class.
    Groups are assigned per patient, independently of labels. For multi-label
    specs, ``class_weights`` are per-label positive rates.
    """

    num_patients: int
    samples_per_patient: int | tuple[int, ...] = 10  # or a (lo, hi) inclusive range
    num_classes: int | None = None
    num_labels: int | None = None
    class_weights: tuple[float, ...] | None = None
    group_proportions: tuple[float, ...] = (0.5, 0.5)
    feature_shape: tuple[int, ...] = (1, 16, 16)
    separations: tuple[float, ...] | None = None
    label_noise_rate: float = 0.0
    seed: int = 0

    @property
    def task_kind(self) -> str:
        return "single_label" if self.num_classes is not None else "multi_label"

    @property
    def num_outputs(self) -> int:
        return self.num_classes if self.num_classes is not None else self.num_labels

    def validate(self):
        if (self.num_classes is None) == (self.num_labels is None):
            raise ValueError("set exactly one of num_classes / num_labels")
        if self.num_patients < 1:
            raise ValueError("num_patients must be >= 1")
        spp = self.samples_per_patient
        bounds = spp if isinstance(spp, tuple) else (spp, spp)
        if len(bounds) != 2 or not all(map(_is_int, bounds)) or not 1 <= bounds[0] <= bounds[1]:
            raise ValueError(
                f"samples_per_patient must be an int >= 1, or ints (lo, hi) with 1 <= lo <= hi; got {spp}"
            )
        shape = self.feature_shape
        if len(shape) != 3 or not all(_is_int(d) and d >= 1 for d in shape):
            raise ValueError(f"feature_shape must be three positive ints (C, H, W), got {shape}")
        if self.num_outputs < (2 if self.num_classes is not None else 1):
            raise ValueError("too few classes/labels")
        # Each check is written so that NaN, which fails every comparison,
        # is rejected here rather than turning into arbitrary draws.
        if self.class_weights is not None:
            w = np.asarray(self.class_weights, dtype=np.float64)
            if w.size != self.num_outputs or not (np.isfinite(w) & (w >= 0)).all():
                raise ValueError("class_weights must be finite, non-negative, one per class/label")
            if self.num_classes is not None and abs(w.sum() - 1.0) > 1e-9:
                raise ValueError("single-label class_weights must sum to 1")
        p = np.asarray(self.group_proportions, dtype=np.float64)
        if p.size < 1 or not (np.isfinite(p) & (p >= 0)).all() or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("group_proportions must be finite, non-negative and sum to 1")
        if self.separations is not None:
            s = np.asarray(self.separations, dtype=np.float64)
            if s.size != self.num_outputs or not (np.isfinite(s) & (s > 0)).all():
                raise ValueError("separations must be finite and positive, one per class/label")
        if not (0.0 <= self.label_noise_rate < 1.0):
            raise ValueError("label_noise_rate must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _samples_per_patient(spec: SyntheticSpec, rng) -> int:
    spp = spec.samples_per_patient
    if isinstance(spp, int):
        return spp
    lo, hi = spp
    return int(rng.integers(lo, hi + 1))


def _choice_cdf(p) -> np.ndarray:
    """The table ``Generator.choice(len(p), p=p)`` searches: for one draw
    ``u = rng.random()``, ``cdf.searchsorted(u, side="right")`` is the index
    ``choice`` returns, and the stream moves on by that one double."""
    cdf = np.cumsum(np.asarray(p, dtype=np.float64))
    cdf /= cdf[-1]
    return cdf


def generate_synthetic(spec: SyntheticSpec) -> LabeledDataset:
    """Deterministic synthetic dataset for the given spec (one seeded stream).

    The draws come in a fixed order: the templates, then for each patient its
    group, its sample count (for a ranged ``samples_per_patient``) and, for
    each of its samples, the class (or label bits), the label noise and the
    pixel noise. Pixels are computed per patient and stored as float32."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    k = spec.num_outputs
    single = spec.num_classes is not None
    seps = np.asarray(
        spec.separations if spec.separations is not None else [1.0] * k, dtype=np.float64
    )
    weights = spec.class_weights
    if weights is None:
        weights = [1.0 / k] * k if single else [0.5] * k
    weights = np.asarray(weights, dtype=np.float64)
    shape = tuple(spec.feature_shape)

    templates = rng.standard_normal((k,) + shape)
    templates -= templates.mean(axis=(1, 2, 3), keepdims=True)
    templates /= templates.std(axis=(1, 2, 3), keepdims=True)
    group_cdf = _choice_cdf(spec.group_proportions)
    if single:
        class_cdf = _choice_cdf(weights)
        scaled = seps.reshape(k, 1, 1, 1) * templates  # each class's signal
    noise_rate = spec.label_noise_rate

    group_of, counts, blocks, labels = [], [], [], []
    for _ in range(spec.num_patients):
        group_of.append(int(group_cdf.searchsorted(rng.random(), side="right")))
        n = _samples_per_patient(spec, rng)
        counts.append(n)
        noise = np.empty((n,) + shape)
        classes = np.empty(n, dtype=np.int64)  # single-label signal rows
        signal = None if single else np.empty_like(noise)
        for j in range(n):
            # Features always come from the true class; label noise corrupts
            # only the recorded annotation.
            if single:
                true_class = classes[j] = int(class_cdf.searchsorted(rng.random(), side="right"))
                label = true_class
                if noise_rate > 0 and rng.random() < noise_rate:
                    label = (true_class + 1 + int(rng.integers(k - 1))) % k
            else:
                true_bits = (rng.random(k) < weights).astype(np.int8)
                signal[j] = np.tensordot(true_bits * seps, templates, axes=1)
                label = true_bits
                if noise_rate > 0:
                    flips = rng.random(k) < noise_rate
                    label = np.where(flips, 1 - true_bits, true_bits).astype(np.int8)
            rng.standard_normal(out=noise[j])
            labels.append(label)
        # 0.5 + scale * (signal + noise), clipped: the per-sample elementwise
        # operations, so the same bits. Only float32 blocks are kept, which
        # is the precision the dataset file stores.
        noise += scaled[classes] if single else signal
        noise *= _NOISE_SCALE
        noise += 0.5
        blocks.append(np.clip(noise, 0.0, 1.0, out=noise).astype(np.float32))
    return LabeledDataset(
        np.arange(len(labels)),
        np.concatenate(blocks),
        labels,
        np.repeat(np.arange(spec.num_patients), counts),
        np.repeat(group_of, counts),
        spec.task_kind,
        k,
    )


# --------------------------------------------------------------------------
# Splitting
# --------------------------------------------------------------------------

def check_grouping(grouping: str) -> None:
    if grouping not in ("sample_level", "patient_level"):
        raise ValueError(f"unknown grouping {grouping!r}")


def check_split_fractions(fractions, allow_empty: bool) -> np.ndarray:
    """The train/val/test fractions as an array; raises ValueError unless they
    are three non-negative values summing to 1, and positive unless
    ``allow_empty``."""
    f = np.asarray(fractions, dtype=np.float64)
    if f.size != 3 or (f < 0).any() or abs(f.sum() - 1.0) > 1e-9:
        raise ValueError(f"fractions must be three non-negative values summing to 1, got {fractions}")
    if (f == 0).any() and not allow_empty:
        raise ValueError("zero fractions need allow_empty=True")
    return f


@dataclass(frozen=True)
class SplitPlan:
    """Deterministic assignment of sample ids to train/val/test plus an
    optional forget subset of train; retain is always train minus forget."""

    train_ids: frozenset
    val_ids: frozenset
    test_ids: frozenset
    forget_ids: frozenset

    def __post_init__(self):
        if (
            self.train_ids & self.val_ids
            or self.train_ids & self.test_ids
            or self.val_ids & self.test_ids
        ):
            raise ValueError("train/val/test sets overlap")
        if not self.forget_ids <= self.train_ids:
            raise ValueError("forget ids must come from the train set")

    @property
    def retain_ids(self) -> frozenset:
        return self.train_ids - self.forget_ids


def _placed_before(patients: np.ndarray, rng) -> np.ndarray:
    """For each sample, how many samples a walk over whole patients places
    before its patient; the walk visits the sorted distinct patients in the
    order ``rng.permutation`` gives."""
    distinct, patient_row = np.unique(patients, return_inverse=True)
    sizes = np.bincount(patient_row, minlength=distinct.size)
    order = rng.permutation(distinct.size)
    before = np.empty(distinct.size, dtype=np.int64)
    before[order] = np.cumsum(sizes[order]) - sizes[order]
    return before[patient_row]


def split_train_val_test(
    ds: LabeledDataset,
    fractions: tuple[float, float, float],
    seed: int,
    allow_empty: bool = False,
) -> SplitPlan:
    """Patient-level train/val/test split by seeded shuffle of patient ids.

    Whole patients are assigned in shuffled order against cumulative sample
    targets, so achieved fractions track the requested ones to within about
    one patient's worth of samples per boundary. Splits with a positive
    fraction must end up non-empty; zero fractions require ``allow_empty``.
    """
    f = check_split_fractions(fractions, allow_empty)
    placed = _placed_before(ds._patients, np.random.default_rng(seed))
    n = len(ds)
    bucket_of = np.searchsorted((f[0] * n, (f[0] + f[1]) * n), placed, side="right")
    buckets = [ds._ids[bucket_of == b] for b in range(3)]

    for name, frac, bucket in zip(("train", "val", "test"), f, buckets):
        if frac > 0 and not bucket.size:
            raise ValueError(f"too few patients to populate the {name} split")
    return SplitPlan(
        train_ids=frozenset(buckets[0].tolist()),
        val_ids=frozenset(buckets[1].tolist()),
        test_ids=frozenset(buckets[2].tolist()),
        forget_ids=frozenset(),
    )


def split_forget_retain(
    plan: SplitPlan,
    fraction: float,
    grouping: str,
    seed: int,
    dataset: LabeledDataset,
) -> SplitPlan:
    """Carve a forget set out of the plan's train set.

    sample_level moves exactly round(fraction * |train|) seeded-shuffled ids;
    patient_level accumulates whole patients in seeded order until the sample
    count first reaches the target, so the achieved fraction is approximate.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"forget fraction must lie in (0, 1), got {fraction}")
    check_grouping(grouping)
    train = np.array(sorted(plan.train_ids), dtype=np.int64)
    if not train.size:
        raise ValueError("plan has an empty train set")
    target = round(fraction * train.size)
    rng = np.random.default_rng(seed)

    if grouping == "sample_level":
        forget = train[rng.permutation(train.size)[:target]]
    else:
        rows = np.isin(dataset._ids, train)
        if rows.sum() != train.size:
            raise KeyError("plan train ids not all present in dataset")
        forget = dataset._ids[rows][_placed_before(dataset._patients[rows], rng) < target]

    if not forget.size:
        raise ValueError(f"fraction {fraction} yields an empty forget set")
    if forget.size >= train.size:
        raise ValueError(f"fraction {fraction} yields an empty retain set")
    return SplitPlan(
        train_ids=plan.train_ids,
        val_ids=plan.val_ids,
        test_ids=plan.test_ids,
        forget_ids=frozenset(forget.tolist()),
    )


# --------------------------------------------------------------------------
# Dataset file format
# --------------------------------------------------------------------------

# Header: magic, format version, task-kind tag (0 single-label, 1 multi-label),
# output count, sample count, then C, H, W of the feature shape.
_HEADER = struct.Struct("<4sIBIQIII")
# Bytes of records ``_RecordReader`` reads at a time (at least one record).
_BLOCK_BYTES = 1 << 20


def _record_dtype(task_kind: str, num_outputs: int, feature_size: int) -> np.dtype:
    """One packed little-endian record per sample, shared by save and load."""
    label = ("<u4", ()) if task_kind == "single_label" else ("i1", (num_outputs,))
    return np.dtype([
        ("id", "<u8"),
        ("patient", "<u8"),
        ("group", "u1"),
        ("label", *label),
        ("feature_len", "<u8"),
        ("features", "<f4", (feature_size,)),
    ])


def save_dataset(ds: LabeledDataset, path) -> None:
    """Binary dataset file: the ``_HEADER`` fields, then one ``_record_dtype``
    record per sample."""
    c, h, w = ds.feature_shape
    if (ds._ids < 0).any() or (ds._patients < 0).any() or not np.isin(ds._groups, range(256)).all():
        raise ValueError("dataset files hold ids and patients >= 0 and groups in [0, 255]")
    records = np.empty(len(ds), dtype=_record_dtype(ds.task_kind, ds.num_outputs, c * h * w))
    records["id"], records["patient"], records["group"] = ds._ids, ds._patients, ds._groups
    records["label"] = ds._labels
    records["feature_len"] = c * h * w
    records["features"] = ds._features.reshape(len(ds), c * h * w)
    tag = 0 if ds.task_kind == "single_label" else 1
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(DATASET_MAGIC, DATASET_FORMAT_VERSION, tag, ds.num_outputs, len(ds), c, h, w))
        fh.write(records.tobytes())


_BEYOND_INT64 = "id or patient >= 2**63"
_TRAILING = "trailing bytes after dataset payload"


class _RecordReader:
    """The records of an open dataset file, a block at a time.

    Construction checks the header and, for a regular file, the payload
    size against it before anything is allocated. Iterating reads blocks of
    ``rows`` records (a multiple of ``multiple``, at least ``_BLOCK_BYTES``'
    worth when one record fits in that) into one reused buffer and yields
    ``(start row, block)``, the block valid until the next one. Any other
    input (a pipe, say) is checked as it is read: a short read is a truncated
    file and a byte after the last record is a trailing one. Each block's
    feature lengths are checked as it arrives."""

    def __init__(self, fh, multiple: int = 1):
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError("truncated dataset file header")
        magic, version, tag, num_outputs, count, c, h, w = _HEADER.unpack(header)
        if magic != DATASET_MAGIC:
            raise ValueError(f"not a dataset file (magic {magic!r})")
        if version != DATASET_FORMAT_VERSION:
            raise ValueError(f"unsupported dataset format version {version}")
        if tag not in (0, 1):
            raise ValueError(f"unknown task-kind tag {tag}")
        if count == 0:
            raise ValueError("dataset file contains no samples")
        if 0 in (c, h, w):
            raise ValueError(f"dataset file has an empty feature shape {c}x{h}x{w}")
        self.task_kind = "single_label" if tag == 0 else "multi_label"
        try:
            self.dtype = _record_dtype(self.task_kind, num_outputs, c * h * w)
        except ValueError:
            raise ValueError(f"dataset record of {num_outputs} outputs and {c}x{h}x{w} "
                             "features is too large") from None
        payload = count * self.dtype.itemsize
        self._truncated = f"truncated dataset file: {count} records need {payload} bytes"
        st = os.fstat(fh.fileno())
        self.regular = stat.S_ISREG(st.st_mode)
        if self.regular:
            if st.st_size - _HEADER.size < payload:
                raise ValueError(self._truncated)
            if st.st_size - _HEADER.size > payload:
                raise ValueError(_TRAILING)
        self.num_outputs, self.count, self.feature_shape = num_outputs, count, (c, h, w)
        self.rows = max(multiple, _BLOCK_BYTES // self.dtype.itemsize // multiple * multiple)
        self._fh = fh

    def __iter__(self):
        size = self.dtype["features"].shape[0]
        block = np.empty(self.rows, dtype=self.dtype)
        for start in range(0, self.count, self.rows):
            part = block[: min(self.rows, self.count - start)]
            if self._fh.readinto(part.view(np.uint8)) != part.nbytes:
                raise ValueError(self._truncated)
            _check_rows(part["id"], part["feature_len"] == size, f"feature length != {size}")
            yield start, part
        if self._fh.read(1):
            raise ValueError(_TRAILING)


def load_dataset(path) -> LabeledDataset:
    """Read a dataset file written by ``save_dataset``.

    The file is read and checked by ``_RecordReader``. A pipe's record count
    is trusted only as far as its records have arrived, so a false count
    fails as truncated without first allocating columns for it. Each block
    is copied into columns of the dtypes ``LabeledDataset`` keeps, so the
    file's samples are held once, not twice."""
    with open(path, "rb") as fh:
        records = _RecordReader(fh)
        c, h, w = records.feature_shape
        # A regular file has shown every record through its size; a pipe's
        # columns start at one block and double as its blocks arrive.
        shown = records.count if records.regular else min(records.count, records.rows)
        ids = np.empty(shown, dtype=np.uint64)
        patients = np.empty(shown, dtype=np.uint64)
        groups = np.empty(shown, dtype=np.int64)
        multi = records.task_kind == "multi_label"
        labels = np.empty((shown, records.num_outputs) if multi else shown, dtype=np.int8 if multi else np.int64)
        features = np.empty((shown, c, h, w), dtype=np.float32)
        for start, part in records:
            if start + len(part) > len(ids):
                # In place, so the rows read are not copied; refcheck is off,
                # which holds because no view of a column outlives its statement.
                shown = min(records.count, 2 * len(ids))
                for col in (ids, patients, groups, labels, features):
                    col.resize((shown, *col.shape[1:]), refcheck=False)
            rows = slice(start, start + len(part))
            ids[rows], patients[rows], groups[rows] = part["id"], part["patient"], part["group"]
            labels[rows], features.reshape(shown, c * h * w)[rows] = part["label"], part["features"]
    _check_rows(ids, (ids < 2**63) & (patients < 2**63), _BEYOND_INT64)
    return LabeledDataset(
        ids.view(np.int64), features, labels, patients.view(np.int64), groups,
        records.task_kind, records.num_outputs,
    )


class DatasetStream:
    """One pass over a dataset file that hands out its features a block at
    a time and keeps its other columns.

    Construction opens the file and checks its header and, for a regular
    file, its size; ``task_kind``, ``num_outputs`` and ``len`` (the header's
    record count) are known from then on. Iterating reads the records with
    ``load_dataset``'s reader and yields each block's ``(rows, C, H, W)``
    float32 features, a view valid until the next block, for as long as
    every row read so far has passed every check ``load_dataset`` makes of
    a row. Blocks hold a multiple of ``EVAL_BATCH`` records, all but the
    last, so an eval pass takes the rows it would take from the loaded
    dataset. A truncation or a feature length is raised as it is read; the
    file's other problems, in ``load_dataset``'s order, once the whole file
    has been read. After a clean pass, ``labels`` and ``groups`` are the
    columns the loaded dataset would hold."""

    def __init__(self, path):
        self._fh = open(path, "rb")
        try:
            self._records = _RecordReader(self._fh, EVAL_BATCH)
        except BaseException:
            self._fh.close()
            raise
        self.task_kind, self.num_outputs = self._records.task_kind, self._records.num_outputs
        self._ids = []

    def __len__(self) -> int:
        return self._records.count

    def ids(self) -> np.ndarray:
        """The ids of the records read so far: every id after a pass."""
        return np.concatenate([np.empty(0, np.uint64), *self._ids]).view(np.int64)

    def __iter__(self):
        records = self._records
        kept = {"group": [], "label": []}
        problems = [None, None, None]  # each row check's first failure, in raising order
        with self._fh:
            for _, part in records:
                features = part["features"].reshape(len(part), *records.feature_shape)
                checks = [((part["id"] < 2**63) & (part["patient"] < 2**63), _BEYOND_INT64),
                          *_row_checks(features, part["label"], self.task_kind, self.num_outputs)]
                for i, (ok, problem) in enumerate(checks):
                    problems[i] = problems[i] or _row_problem(part["id"], ok, problem)
                self._ids.append(part["id"].copy())
                for name, column in kept.items():
                    column.append(part[name].copy())
                if not any(problems):
                    yield features
        if problems[0]:
            raise ValueError(problems[0])
        _check_task(self.task_kind, self.num_outputs)
        _check_unique(self.ids())
        for problem in problems[1:]:
            if problem:
                raise ValueError(problem)
        self.groups = np.concatenate(kept["group"]).astype(np.int64)
        labels = np.concatenate(kept["label"])
        self.labels = labels if self.task_kind == "multi_label" else labels.astype(np.int64)

    def label_array(self) -> np.ndarray:
        """``LabeledDataset.label_array`` of the dataset the file holds."""
        return _label_array(self.labels, self.task_kind)
