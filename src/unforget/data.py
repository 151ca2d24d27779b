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

from .nn_core import EVAL_BATCH, TASK_KINDS, UNKNOWN, kind_of

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
    return [((lo >= 0.0) & (hi <= 1.0), "features outside [0, 1] or not finite"),
            kind_of(task_kind).check_rows(labels, num_outputs)]


class LabeledDataset:
    """Ordered samples with a homogeneous task kind, stored as columns.

    ``ids``, ``patients`` and ``groups`` are int64 ``(N,)``; ``features`` is
    ``(N, C, H, W)``, float32 when given float32 (as the generator and the
    dataset file make it) and float64 otherwise, so no value is ever
    rounded. ``task_kind`` names a record of ``nn_core.TASK_KINDS``, which
    gives the label column's dtype, shape and row check: "single_label"
    labels are int64 ``(N,)`` class indices below ``num_outputs``,
    "multi_label" labels int8 ``(N, num_outputs)`` over {0, 1, UNKNOWN}. An
    argument already of the right dtype and layout is not copied, so the
    caller must not write to it afterwards.
    """

    def __init__(self, ids, features, labels, patients, groups, task_kind: str, num_outputs: int):
        kind = kind_of(task_kind)
        kind.check_outputs(num_outputs)
        self._ids = _readonly(ids, np.int64)
        features = np.asarray(features)
        self._features = _readonly(features, np.float32 if features.dtype == np.float32 else np.float64)
        self._labels = _readonly(labels, kind.label_dtype)
        self._patients = _readonly(patients, np.int64)
        self._groups = _readonly(groups, np.int64)
        n = len(self._ids)
        shapes = [c.shape for c in (self._ids, self._patients, self._groups, self._labels)]
        if shapes != [(n,)] * 3 + [(n, *kind.label_shape(num_outputs))] or (
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
        return kind_of(self.task_kind).label_array(self._labels)

    def group_array(self) -> np.ndarray:
        return self._groups

    def patient_array(self) -> np.ndarray:
        return self._patients

    def has_unknown(self) -> bool:
        return bool((self._labels == UNKNOWN).any())

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
        kind_of(self.task_kind).check_outputs(self.num_outputs)
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


def check_forget_fraction(fraction: float) -> None:
    if not 0.0 < fraction < 1.0:  # NaN fails every comparison
        raise ValueError(f"forget fraction must lie in (0, 1), got {fraction}")


def check_split_fractions(fractions) -> np.ndarray:
    """The train/val/test fractions as an array; raises ValueError unless they
    are three non-negative values summing to 1."""
    f = np.asarray(fractions, dtype=np.float64)
    # Written so that NaN, which fails every comparison, fails the check.
    if f.size != 3 or not ((f >= 0).all() and abs(f.sum() - 1.0) <= 1e-9):
        raise ValueError(f"fractions must be three non-negative values summing to 1, got {fractions}")
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
) -> SplitPlan:
    """Patient-level train/val/test split by seeded shuffle of patient ids.

    Whole patients are assigned in shuffled order against cumulative sample
    targets, so achieved fractions track the requested ones to within about
    one patient's worth of samples per boundary. A split with a positive
    fraction must end up non-empty; a zero fraction gives an empty split.
    """
    f = check_split_fractions(fractions)
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
    check_forget_fraction(fraction)
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

# Header: magic, format version, task-kind tag (the kind's index in
# ``TASK_KINDS``), output count, sample count, then C, H, W of the feature shape.
_HEADER = struct.Struct("<4sIBIQIII")
# Bytes of records ``DatasetStream`` reads at a time (at least one record).
_BLOCK_BYTES = 1 << 20


def _record_dtype(task_kind: str, num_outputs: int, feature_size: int) -> np.dtype:
    """One packed little-endian record per sample, shared by save and load."""
    kind = kind_of(task_kind)
    return np.dtype([
        ("id", "<u8"),
        ("patient", "<u8"),
        ("group", "u1"),
        ("label", kind.record_label, kind.label_shape(num_outputs)),
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
    tag = TASK_KINDS.index(kind_of(ds.task_kind))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(DATASET_MAGIC, DATASET_FORMAT_VERSION, tag, ds.num_outputs, len(ds), c, h, w))
        fh.write(records.tobytes())


_TRAILING = "trailing bytes after dataset payload"


class DatasetStream:
    """One pass over a dataset file that hands out its features a block at
    a time and keeps its other columns.

    Construction opens the file and checks its header and, for a regular
    file, its size against the header's record count, before anything is
    allocated; ``task_kind``, ``num_outputs``, ``feature_shape`` and ``len``
    (the header's record count) are known from then on. Iterating reads
    blocks of ``rows`` records, a multiple of ``EVAL_BATCH`` (at least
    ``_BLOCK_BYTES``' worth when a record fits in that), into one reused
    buffer, and yields each block's ``(rows, C, H, W)`` float32 features, a
    view valid until the next block, for as long as every row read so far
    has passed every row check ``LabeledDataset`` makes. An eval pass thus
    takes the rows it would take from the loaded dataset.

    Any input that is not a regular file (a pipe, say) is checked as it is
    read: a short read is a truncated file and a byte after the last record
    is a trailing one. A truncation or a bad feature length is raised as it
    is read; the file's other problems (ids or patients >= 2**63, then the
    dataset's checks in ``LabeledDataset``'s order) once the whole file has
    been read. After a clean pass the stream holds the id, patient, group
    and label columns the loaded dataset would hold. A stream is read once.
    """

    def __init__(self, path):
        self._fh = open(path, "rb")
        try:
            header = self._fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise ValueError("truncated dataset file header")
            magic, version, tag, num_outputs, count, c, h, w = _HEADER.unpack(header)
            if magic != DATASET_MAGIC:
                raise ValueError(f"not a dataset file (magic {magic!r})")
            if version != DATASET_FORMAT_VERSION:
                raise ValueError(f"unsupported dataset format version {version}")
            if tag >= len(TASK_KINDS):
                raise ValueError(f"unknown task-kind tag {tag}")
            if count == 0:
                raise ValueError("dataset file contains no samples")
            if 0 in (c, h, w):
                raise ValueError(f"dataset file has an empty feature shape {c}x{h}x{w}")
            self.task_kind = TASK_KINDS[tag].name
            try:
                self._dtype = _record_dtype(self.task_kind, num_outputs, c * h * w)
            except ValueError:
                raise ValueError(f"dataset record of {num_outputs} outputs and {c}x{h}x{w} "
                                 "features is too large") from None
            payload = count * self._dtype.itemsize
            self._truncated = f"truncated dataset file: {count} records need {payload} bytes"
            st = os.fstat(self._fh.fileno())
            self.regular = stat.S_ISREG(st.st_mode)
            if self.regular:
                if st.st_size - _HEADER.size < payload:
                    raise ValueError(self._truncated)
                if st.st_size - _HEADER.size > payload:
                    raise ValueError(_TRAILING)
        except BaseException:
            self._fh.close()
            raise
        self.num_outputs, self._count, self.feature_shape = num_outputs, count, (c, h, w)
        self.rows = max(EVAL_BATCH, _BLOCK_BYTES // self._dtype.itemsize // EVAL_BATCH * EVAL_BATCH)
        self._ids = np.empty(0, np.int64)

    def __len__(self) -> int:
        return self._count

    def ids(self) -> np.ndarray:
        """The file's ids after a clean pass; none before."""
        return self._ids

    def __iter__(self):
        if self._fh.closed:
            raise ValueError("a DatasetStream is read once; open the file again to read it again")
        size = self._dtype["features"].shape[0]
        block = np.empty(self.rows, dtype=self._dtype)
        kept = {"id": [], "patient": [], "group": [], "label": []}
        problems = [None, None, None]  # each row check's first failure, in raising order
        with self._fh:
            for start in range(0, self._count, self.rows):
                part = block[: min(self.rows, self._count - start)]
                if self._fh.readinto(part.view(np.uint8)) != part.nbytes:
                    raise ValueError(self._truncated)
                _check_rows(part["id"], part["feature_len"] == size, f"feature length != {size}")
                features = part["features"].reshape(len(part), *self.feature_shape)
                checks = [((part["id"] < 2**63) & (part["patient"] < 2**63),
                           "id or patient >= 2**63"),
                          *_row_checks(features, part["label"], self.task_kind, self.num_outputs)]
                for i, (ok, problem) in enumerate(checks):
                    problems[i] = problems[i] or _row_problem(part["id"], ok, problem)
                for name, column in kept.items():
                    column.append(part[name].copy())
                if not any(problems):
                    yield features
            if self._fh.read(1):
                raise ValueError(_TRAILING)
        if problems[0]:
            raise ValueError(problems[0])
        kind = kind_of(self.task_kind)
        kind.check_outputs(self.num_outputs)
        # Each column's blocks are let go as soon as they are joined.
        ids = np.concatenate(kept.pop("id")).view(np.int64)
        _check_unique(ids)
        for problem in problems[1:]:
            if problem:
                raise ValueError(problem)
        self._ids = ids
        self.patients = np.concatenate(kept.pop("patient")).view(np.int64)
        self.groups = np.concatenate(kept.pop("group")).astype(np.int64)
        self.labels = np.concatenate(kept.pop("label")).astype(kind.label_dtype, copy=False)

    def label_array(self) -> np.ndarray:
        """``LabeledDataset.label_array`` of the dataset the file holds."""
        return kind_of(self.task_kind).label_array(self.labels)

    def group_array(self) -> np.ndarray:
        return self.groups


def load_dataset(path) -> LabeledDataset:
    """Read a dataset file written by ``save_dataset``.

    The file is read and checked by a ``DatasetStream``. A pipe's record
    count is trusted only as far as its records have arrived, so a false
    count fails as truncated without first allocating a column for it. Each
    block's features are copied into one float32 column, so the file's
    samples are held once, not twice."""
    stream = DatasetStream(path)
    # A regular file has shown every record through its size; a pipe's
    # column starts at one block and doubles as its blocks arrive.
    features = np.empty((len(stream) if stream.regular else min(len(stream), stream.rows),
                         *stream.feature_shape), dtype=np.float32)
    start = 0
    for block in stream:
        if start + len(block) > len(features):
            # In place, so the rows read are not copied; refcheck is off,
            # which holds because no view of the column outlives its statement.
            features.resize((min(len(stream), 2 * len(features)), *stream.feature_shape), refcheck=False)
        features[start : start + len(block)] = block
        start += len(block)
    return LabeledDataset(stream.ids(), features, stream.labels, stream.patients, stream.groups,
                          stream.task_kind, stream.num_outputs)
