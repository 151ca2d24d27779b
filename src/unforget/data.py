"""Datasets: synthetic medical-like corpus generation, patient-grouped
splitting, forget/retain partitioning, the unknown-label policy, and a
binary dataset file format.

A dataset is an ordered list of samples, each carrying image-like features
scaled to [0, 1], a label (class index, or a 0/1 vector where -1 marks an
unknown entry), a patient id, and a categorical group attribute. Datasets
are immutable after construction and safe to share across runs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UNKNOWN",
    "Sample",
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
]

UNKNOWN = -1  # unknown multi-label entry, resolved by apply_u_one

DATASET_MAGIC = b"UNDS"
DATASET_FORMAT_VERSION = 1

# Pixel noise scale for the synthetic generator; per-class separation values
# are expressed in units of this scale.
_NOISE_SCALE = 0.1


@dataclass(frozen=True)
class Sample:
    id: int
    features: np.ndarray  # (C, H, W) float64 in [0, 1]
    label: object  # int class index, or int8 vector over {0, 1, UNKNOWN}
    patient_id: int
    group: int


class LabeledDataset:
    """Ordered samples with a homogeneous task kind.

    ``task_kind`` is "single_label" (labels are class indices below
    ``num_outputs``) or "multi_label" (labels are int8 vectors of length
    ``num_outputs`` over {0, 1, UNKNOWN}).
    """

    def __init__(self, samples, task_kind: str, num_outputs: int, provenance: str = ""):
        if task_kind not in ("single_label", "multi_label"):
            raise ValueError(f"unknown task_kind {task_kind!r}")
        min_outputs = 2 if task_kind == "single_label" else 1
        if num_outputs < min_outputs:
            raise ValueError(f"{task_kind} needs num_outputs >= {min_outputs}")
        samples = tuple(samples)
        ids = [s.id for s in samples]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate sample ids")
        for s in samples:
            # Written so that NaN, which fails every comparison, is rejected.
            if not (s.features.min() >= 0.0 and s.features.max() <= 1.0):
                raise ValueError(f"sample {s.id} features outside [0, 1] or not finite")
            if task_kind == "single_label":
                if not (0 <= int(s.label) < num_outputs):
                    raise ValueError(f"sample {s.id} class {s.label} out of range")
            else:
                vec = np.asarray(s.label)
                if vec.shape != (num_outputs,):
                    raise ValueError(f"sample {s.id} label vector length != {num_outputs}")
                if not np.isin(vec, (0, 1, UNKNOWN)).all():
                    raise ValueError(f"sample {s.id} label entries must be 0/1/UNKNOWN")
        self.samples = samples
        self.task_kind = task_kind
        self.num_outputs = num_outputs
        self.provenance = provenance
        self._features = None

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def feature_shape(self) -> tuple[int, ...]:
        return tuple(self.samples[0].features.shape)

    def ids(self) -> list[int]:
        return [s.id for s in self.samples]

    def feature_array(self) -> np.ndarray:
        """(N, C, H, W) stack; built once and cached (datasets are immutable)."""
        if self._features is None:
            self._features = np.stack([s.features for s in self.samples])
        return self._features

    def label_array(self) -> np.ndarray:
        if self.task_kind == "single_label":
            return np.array([int(s.label) for s in self.samples], dtype=np.int64)
        mat = np.stack([np.asarray(s.label, dtype=np.int8) for s in self.samples])
        if (mat == UNKNOWN).any():
            raise ValueError("unknown label entries remain; apply the u-one policy first")
        return mat.astype(np.float64)

    def group_array(self) -> np.ndarray:
        return np.array([s.group for s in self.samples], dtype=np.int64)

    def patient_array(self) -> np.ndarray:
        return np.array([s.patient_id for s in self.samples], dtype=np.int64)

    def has_unknown(self) -> bool:
        if self.task_kind != "multi_label":
            return False
        return any((np.asarray(s.label) == UNKNOWN).any() for s in self.samples)

    def subset(self, ids) -> "LabeledDataset":
        """New dataset with the given sample ids, preserving original order."""
        wanted = set(ids)
        picked = [s for s in self.samples if s.id in wanted]
        if len(picked) != len(wanted):
            raise KeyError("subset ids not all present in dataset")
        return LabeledDataset(picked, self.task_kind, self.num_outputs, self.provenance)

    def with_labels(self, labels_by_id: dict) -> "LabeledDataset":
        """Copy with labels replaced; features, ids, patients, groups untouched."""
        new = [
            Sample(s.id, s.features, labels_by_id.get(s.id, s.label), s.patient_id, s.group)
            for s in self.samples
        ]
        return LabeledDataset(new, self.task_kind, self.num_outputs, self.provenance)


def concat_datasets(a: LabeledDataset, b: LabeledDataset) -> LabeledDataset:
    if a.task_kind != b.task_kind or a.num_outputs != b.num_outputs:
        raise ValueError("cannot concatenate datasets with different task kinds")
    return LabeledDataset(
        a.samples + b.samples, a.task_kind, a.num_outputs, a.provenance or b.provenance
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
    return ds.with_labels({s.id: apply_u_one(s.label) for s in ds.samples})


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
    samples_per_patient: object = 10  # int, or (lo, hi) inclusive range
    num_classes: int | None = None
    num_labels: int | None = None
    class_weights: tuple | None = None
    group_proportions: tuple = (0.5, 0.5)
    feature_shape: tuple = (1, 16, 16)
    separations: tuple | None = None
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
        if self.num_outputs < (2 if self.num_classes is not None else 1):
            raise ValueError("too few classes/labels")
        if self.class_weights is not None:
            w = np.asarray(self.class_weights, dtype=np.float64)
            if w.size != self.num_outputs or (w < 0).any():
                raise ValueError("class_weights must be non-negative, one per class/label")
            if self.num_classes is not None and abs(w.sum() - 1.0) > 1e-9:
                raise ValueError("single-label class_weights must sum to 1")
        p = np.asarray(self.group_proportions, dtype=np.float64)
        if p.size < 1 or (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("group_proportions must be non-negative and sum to 1")
        if self.separations is not None:
            s = np.asarray(self.separations, dtype=np.float64)
            if s.size != self.num_outputs or (s <= 0).any():
                raise ValueError("separations must be positive, one per class/label")
        if not (0.0 <= self.label_noise_rate < 1.0):
            raise ValueError("label_noise_rate must lie in [0, 1)")


def _samples_per_patient(spec: SyntheticSpec, rng) -> int:
    spp = spec.samples_per_patient
    if isinstance(spp, int):
        return spp
    lo, hi = spp
    return int(rng.integers(lo, hi + 1))


def generate_synthetic(spec: SyntheticSpec) -> LabeledDataset:
    """Deterministic synthetic dataset for the given spec (one seeded stream)."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    k = spec.num_outputs
    seps = np.asarray(
        spec.separations if spec.separations is not None else [1.0] * k, dtype=np.float64
    )
    weights = spec.class_weights
    if weights is None:
        weights = [1.0 / k] * k if spec.num_classes is not None else [0.5] * k
    weights = np.asarray(weights, dtype=np.float64)

    templates = rng.standard_normal((k,) + tuple(spec.feature_shape))
    templates -= templates.mean(axis=(1, 2, 3), keepdims=True)
    templates /= templates.std(axis=(1, 2, 3), keepdims=True)

    samples = []
    next_id = 0
    groups = np.arange(len(spec.group_proportions))
    for patient in range(spec.num_patients):
        group = int(rng.choice(groups, p=np.asarray(spec.group_proportions)))
        count = _samples_per_patient(spec, rng)
        for _ in range(count):
            # Features always come from the true class; label noise corrupts
            # only the recorded annotation.
            if spec.num_classes is not None:
                true_class = int(rng.choice(k, p=weights))
                signal = seps[true_class] * templates[true_class]
                label = true_class
                if spec.label_noise_rate > 0 and rng.random() < spec.label_noise_rate:
                    label = (true_class + 1 + int(rng.integers(k - 1))) % k
            else:
                true_bits = (rng.random(k) < weights).astype(np.int8)
                signal = np.tensordot(true_bits * seps, templates, axes=1)
                label = true_bits
                if spec.label_noise_rate > 0:
                    flips = rng.random(k) < spec.label_noise_rate
                    label = np.where(flips, 1 - true_bits, true_bits).astype(np.int8)
            noise = rng.standard_normal(spec.feature_shape)
            pixels = 0.5 + _NOISE_SCALE * (signal + noise)
            # Quantize through float32 so the f32 file format round-trips exactly.
            features = np.clip(pixels, 0.0, 1.0).astype(np.float32).astype(np.float64)
            samples.append(Sample(next_id, features, label, patient, group))
            next_id += 1
    return LabeledDataset(
        samples,
        spec.task_kind,
        k,
        provenance=f"synthetic(seed={spec.seed}, patients={spec.num_patients})",
    )


# --------------------------------------------------------------------------
# Splitting
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitPlan:
    """Deterministic assignment of sample ids to train/val/test plus an
    optional forget subset of train; retain is always train minus forget."""

    train_ids: frozenset
    val_ids: frozenset
    test_ids: frozenset
    forget_ids: frozenset
    forget_fraction: float
    grouping: str  # sample_level | patient_level
    seed: int

    def __post_init__(self):
        if self.grouping not in ("sample_level", "patient_level"):
            raise ValueError(f"unknown grouping {self.grouping!r}")
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
    f = np.asarray(fractions, dtype=np.float64)
    if f.size != 3 or (f < 0).any() or abs(f.sum() - 1.0) > 1e-9:
        raise ValueError(f"fractions must be three non-negative values summing to 1, got {fractions}")
    if (f == 0).any() and not allow_empty:
        raise ValueError("zero fractions need allow_empty=True")

    by_patient: dict[int, list[int]] = {}
    for s in ds.samples:
        by_patient.setdefault(s.patient_id, []).append(s.id)
    patients = sorted(by_patient)
    order = np.random.default_rng(seed).permutation(len(patients))

    n = len(ds)
    train_cut = f[0] * n
    val_cut = (f[0] + f[1]) * n
    buckets: tuple[list[int], list[int], list[int]] = ([], [], [])
    placed = 0
    for j in order:
        pid = patients[j]
        if placed < train_cut:
            bucket = 0
        elif placed < val_cut:
            bucket = 1
        else:
            bucket = 2
        buckets[bucket].extend(by_patient[pid])
        placed += len(by_patient[pid])

    for name, frac, bucket in zip(("train", "val", "test"), f, buckets):
        if frac > 0 and not bucket:
            raise ValueError(f"too few patients to populate the {name} split")
    return SplitPlan(
        train_ids=frozenset(buckets[0]),
        val_ids=frozenset(buckets[1]),
        test_ids=frozenset(buckets[2]),
        forget_ids=frozenset(),
        forget_fraction=0.0,
        grouping="sample_level",
        seed=seed,
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
    if grouping not in ("sample_level", "patient_level"):
        raise ValueError(f"unknown grouping {grouping!r}")
    train = sorted(plan.train_ids)
    if not train:
        raise ValueError("plan has an empty train set")
    target = round(fraction * len(train))
    rng = np.random.default_rng(seed)

    if grouping == "sample_level":
        order = rng.permutation(len(train))
        forget = [train[j] for j in order[:target]]
    else:
        patient_of = {s.id: s.patient_id for s in dataset.samples}
        by_patient: dict[int, list[int]] = {}
        for sid in train:
            by_patient.setdefault(patient_of[sid], []).append(sid)
        patients = sorted(by_patient)
        order = rng.permutation(len(patients))
        forget = []
        for j in order:
            if len(forget) >= target:
                break
            forget.extend(by_patient[patients[j]])

    if not forget:
        raise ValueError(f"fraction {fraction} yields an empty forget set")
    if len(forget) >= len(train):
        raise ValueError(f"fraction {fraction} yields an empty retain set")
    return SplitPlan(
        train_ids=plan.train_ids,
        val_ids=plan.val_ids,
        test_ids=plan.test_ids,
        forget_ids=frozenset(forget),
        forget_fraction=fraction,
        grouping=grouping,
        seed=seed,
    )


# --------------------------------------------------------------------------
# Dataset file format
# --------------------------------------------------------------------------

def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"truncated dataset file while reading {what}")
    return data


def save_dataset(ds: LabeledDataset, path) -> None:
    """Binary dataset file: header, then one record per sample (id, patient,
    group, label payload, f32 feature array). All integers little-endian."""
    c, h, w = ds.feature_shape
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<I", DATASET_FORMAT_VERSION))
        fh.write(struct.pack("<B", 0 if ds.task_kind == "single_label" else 1))
        fh.write(struct.pack("<I", ds.num_outputs))
        fh.write(struct.pack("<Q", len(ds)))
        fh.write(struct.pack("<III", c, h, w))
        for s in ds.samples:
            fh.write(struct.pack("<QQB", s.id, s.patient_id, s.group))
            if ds.task_kind == "single_label":
                fh.write(struct.pack("<I", int(s.label)))
            else:
                fh.write(np.asarray(s.label, dtype=np.int8).tobytes())
            data = s.features.astype("<f4")
            fh.write(struct.pack("<Q", data.size))
            fh.write(data.tobytes())


def load_dataset(path) -> LabeledDataset:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != DATASET_MAGIC:
            raise ValueError(f"not a dataset file (magic {magic!r})")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != DATASET_FORMAT_VERSION:
            raise ValueError(f"unsupported dataset format version {version}")
        (tag,) = struct.unpack("<B", _read_exact(fh, 1, "task kind"))
        if tag not in (0, 1):
            raise ValueError(f"unknown task-kind tag {tag}")
        task_kind = "single_label" if tag == 0 else "multi_label"
        (num_outputs,) = struct.unpack("<I", _read_exact(fh, 4, "output count"))
        (count,) = struct.unpack("<Q", _read_exact(fh, 8, "sample count"))
        if count == 0:
            raise ValueError("dataset file contains no samples")
        c, h, w = struct.unpack("<III", _read_exact(fh, 12, "feature shape"))
        feature_size = c * h * w
        samples = []
        for _ in range(count):
            sid, pid, group = struct.unpack("<QQB", _read_exact(fh, 17, "sample header"))
            if task_kind == "single_label":
                (label,) = struct.unpack("<I", _read_exact(fh, 4, "label"))
                label = int(label)
            else:
                label = np.frombuffer(
                    _read_exact(fh, num_outputs, "label vector"), dtype=np.int8
                ).copy()
            (flen,) = struct.unpack("<Q", _read_exact(fh, 8, "feature length"))
            if flen != feature_size:
                raise ValueError(f"sample {sid} feature length {flen} != {feature_size}")
            features = (
                np.frombuffer(_read_exact(fh, 4 * flen, "features"), dtype="<f4")
                .astype(np.float64)
                .reshape(c, h, w)
            )
            samples.append(Sample(int(sid), features, label, int(pid), int(group)))
        if fh.read(1):
            raise ValueError("trailing bytes after dataset payload")
    return LabeledDataset(samples, task_kind, num_outputs, provenance=str(path))
